package core

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultSpecValid(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	mutations := map[string]func(*SystemSpec){
		"boards":    func(s *SystemSpec) { s.Boards = 0 },
		"spacing":   func(s *SystemSpec) { s.BoardSpacingM = 0 },
		"edge":      func(s *SystemSpec) { s.BoardEdgeM = -1 },
		"nodes":     func(s *SystemSpec) { s.NodesPerBoard = 0 },
		"rate":      func(s *SystemSpec) { s.LinkRateGbps = 0 },
		"latency":   func(s *SystemSpec) { s.LatencyBudgetBits = 10 },
		"modules":   func(s *SystemSpec) { s.StackModules = 1 },
		"injection": func(s *SystemSpec) { s.StackInjectionRate = 0 },
	}
	for name, mutate := range mutations {
		spec := DefaultSpec()
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: bad spec accepted", name)
		}
		if _, err := DesignSystem(spec); err == nil {
			t.Errorf("%s: DesignSystem accepted bad spec", name)
		}
	}
}

func TestDesignSystemDefault(t *testing.T) {
	d, err := DesignSystem(DefaultSpec())
	if err != nil {
		t.Fatalf("design failed: %v", err)
	}
	// Links: ahead at board spacing, diagonal across spacing + board
	// diagonal.
	if len(d.Links) != 2 {
		t.Fatalf("links = %d, want 2", len(d.Links))
	}
	if d.Links[0].DistanceM != 0.1 {
		t.Errorf("ahead distance = %g", d.Links[0].DistanceM)
	}
	wantDiag := math.Sqrt(0.1*0.1 + 2*0.1*0.1)
	if math.Abs(d.Links[1].DistanceM-wantDiag) > 1e-12 {
		t.Errorf("diagonal distance = %g, want %g", d.Links[1].DistanceM, wantDiag)
	}
	// 100 Gbit/s in 25 GHz dual-pol: 2 bit/s/Hz per polarisation.
	if math.Abs(d.SpectralEfficiency-2) > 1e-12 {
		t.Errorf("spectral efficiency = %g, want 2", d.SpectralEfficiency)
	}
	// Target SNR = Shannon (4.77 dB) + 3 dB margin.
	if math.Abs(d.Links[0].TargetSNRdB-7.77) > 0.05 {
		t.Errorf("target SNR = %g, want ~7.77", d.Links[0].TargetSNRdB)
	}
	// The diagonal+butler link dominates the power budget and stays
	// within a plausible PA range (Fig. 4 scale).
	if d.WorstTxPowerDBm() != d.Links[1].TxPowerDBm {
		t.Error("worst link is not the diagonal")
	}
	if d.WorstTxPowerDBm() < -10 || d.WorstTxPowerDBm() > 20 {
		t.Errorf("worst PTX = %.1f dBm, outside plausible range", d.WorstTxPowerDBm())
	}
}

func TestChooseCodeRespectsBudget(t *testing.T) {
	d, err := DesignSystem(DefaultSpec()) // budget 200
	if err != nil {
		t.Fatal(err)
	}
	if d.Code.LatencyBits > 200 {
		t.Errorf("code latency %.0f exceeds budget 200", d.Code.LatencyBits)
	}
	// Best fit for 200 bits: N=40, W=5 (prefers the larger lifting).
	if d.Code.Lifting != 40 || d.Code.Window != 5 {
		t.Errorf("code = N=%d W=%d, want N=40 W=5", d.Code.Lifting, d.Code.Window)
	}

	// A huge budget buys N=60 with a big window.
	spec := DefaultSpec()
	spec.LatencyBudgetBits = 1000
	d2, err := DesignSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Code.Lifting != 60 || d2.Code.Window != 8 {
		t.Errorf("large budget code = N=%d W=%d, want N=60 W=8", d2.Code.Lifting, d2.Code.Window)
	}

	// The minimum viable budget picks the smallest code.
	spec.LatencyBudgetBits = 75
	d3, err := DesignSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Code.Lifting != 25 || d3.Code.Window != 3 {
		t.Errorf("tight budget code = N=%d W=%d, want N=25 W=3", d3.Code.Lifting, d3.Code.Window)
	}
}

func TestChooseStackPrefers3DAtHighLoad(t *testing.T) {
	spec := DefaultSpec()
	spec.StackInjectionRate = 0.3 // beyond star-mesh saturation (0.19)
	d, err := DesignSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.Stack.Topology.Name(), "3D mesh") {
		t.Errorf("high-load winner = %s, want a 3D mesh", d.Stack.Topology.Name())
	}
	// The star-mesh alternative must be flagged saturated.
	foundSaturatedStar := false
	for _, a := range d.Stack.Alternatives {
		if strings.Contains(a.Name, "star") && !a.Feasible {
			foundSaturatedStar = true
		}
	}
	if !foundSaturatedStar {
		t.Error("star-mesh not flagged as saturated at 0.3 load")
	}
}

func TestChooseStackPrefersStarAtLowLoad(t *testing.T) {
	spec := DefaultSpec()
	spec.StackInjectionRate = 0.05
	d, err := DesignSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	// At light load the star-mesh's 7-cycle floor wins (Fig. 8a).
	if !strings.Contains(d.Stack.Topology.Name(), "star-mesh") {
		t.Errorf("low-load winner = %s, want star-mesh", d.Stack.Topology.Name())
	}
}

func TestDesignFailsWhenNoTopologySustainsLoad(t *testing.T) {
	spec := DefaultSpec()
	spec.StackInjectionRate = 0.95
	if _, err := DesignSystem(spec); err == nil {
		t.Error("design accepted an unsustainable load")
	}
}

func TestButlerFlagChangesDiagonalPower(t *testing.T) {
	with := DefaultSpec()
	without := DefaultSpec()
	without.Butler = false
	dWith, err := DesignSystem(with)
	if err != nil {
		t.Fatal(err)
	}
	dWithout, err := DesignSystem(without)
	if err != nil {
		t.Fatal(err)
	}
	diff := dWith.Links[1].TxPowerDBm - dWithout.Links[1].TxPowerDBm
	if math.Abs(diff-5) > 1e-9 {
		t.Errorf("butler penalty = %g dB, want 5", diff)
	}
}

func TestHigherRateNeedsMorePower(t *testing.T) {
	lo := DefaultSpec()
	hi := DefaultSpec()
	hi.LinkRateGbps = 400
	dLo, err := DesignSystem(lo)
	if err != nil {
		t.Fatal(err)
	}
	dHi, err := DesignSystem(hi)
	if err != nil {
		t.Fatal(err)
	}
	if dHi.WorstTxPowerDBm() <= dLo.WorstTxPowerDBm() {
		t.Error("400 Gbit/s does not need more power than 100 Gbit/s")
	}
}

func TestReportContainsKeyFacts(t *testing.T) {
	d, err := DesignSystem(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	r := d.Report()
	for _, want := range []string{
		"232.5 GHz", "25 GHz", "ahead", "diagonal", "LDPC-CC",
		"N=40 W=5", "candidate", "flits/cycle/module",
	} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestTotalNodes(t *testing.T) {
	d, err := DesignSystem(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalNodes() != 36 {
		t.Errorf("total nodes = %d, want 36", d.TotalNodes())
	}
}
