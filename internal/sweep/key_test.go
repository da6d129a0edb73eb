package sweep_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// keyerSpecDocs are spec grids shaped like the fleet benchmark's
// warm-resubmit and noc-wide studies, plus one over the interference
// and power sections: every axis kind, fractional and integral floats,
// and hotspot traffic.
var keyerSpecDocs = []string{
	`{"name":"warm-like","base":{"board-spacing-m":0.07,"stack-injection-rate":0.1},
	  "axes":[{"name":"boards","kind":"integer","min":3,"max":6},
	          {"name":"link-rate-gbps","kind":"continuous","min":15,"max":50,"step":5},
	          {"name":"latency-budget-bits","kind":"enum","values":[100,200,300,400]},
	          {"name":"butler","kind":"bool"}],"budget":"analytic"}`,
	`{"name":"noc-wide-like","base":{"traffic-pattern":"hotspot","traffic-hotspot-module":0,"traffic-hotspot-fraction":0.02},
	  "axes":[{"name":"stack-modules","kind":"enum","values":[17,60,93,140,170,201,250,301]},
	          {"name":"stack-injection-rate","kind":"enum","values":[0.01,0.02]}],"budget":"analytic"}`,
	`{"name":"sections","base":{"max-tx-power-dbm":12.5,"interference-copper-boards":true},
	  "axes":[{"name":"interference-neighbors","kind":"integer","min":0,"max":3},
	          {"name":"interference-rejection-db","kind":"continuous","min":0.05,"max":0.45,"step":0.1},
	          {"name":"traffic-pattern","kind":"enum","values":["uniform","bit-complement"]}],"budget":"analytic"}`,
}

// TestKeyerMatchesPointKey pins the Keyer's reflection-free encoding to
// the canonical PointKey for every registered scenario's points under
// every budget, for spec-compiled grids, and for adversarial labels
// that stress JSON string escaping. A divergence would silently
// invalidate every stored result.
func TestKeyerMatchesPointKey(t *testing.T) {
	check := func(scenario string, pts []sweep.Point, b sweep.Budget, seed uint64) {
		t.Helper()
		k := sweep.NewKeyer(scenario, b, seed)
		for _, pt := range pts {
			want := sweep.PointKey(scenario, pt, b, seed)
			if got := k.Key(pt); got != want {
				t.Fatalf("keyer diverged for %s/%s/seed=%d point %d (%s):\n got %s\nwant %s",
					scenario, b.Name, seed, pt.Index, pt.Label, got, want)
			}
		}
	}
	budgets := []sweep.Budget{sweep.AnalyticBudget(), sweep.SmokeBudget(), sweep.StandardBudget()}
	seeds := []uint64{0, 1, 1<<64 - 1}
	for _, name := range sweep.Names() {
		sc, err := sweep.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		pts := sc.Points()
		for _, b := range budgets {
			for _, seed := range seeds {
				check(sc.Name, pts, b, seed)
			}
		}
	}

	for _, doc := range keyerSpecDocs {
		s, err := spec.Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			check(c.Scenario.Name, c.Points, c.Budget, seed)
		}
	}

	// Labels and scenario names that need escaping must round-trip
	// identically through both paths (encoding/json escapes quotes,
	// backslashes and HTML characters).
	hostile := sweep.Point{Index: 3, Label: `q"uo\te <&> ünicode` + "\n\t \xff", Spec: core.DefaultSpec()}
	for _, scenario := range []string{"plain", `esc"aped\<&>`} {
		check(scenario, []sweep.Point{hostile}, sweep.SmokeBudget(), 7)
	}

	// Floats around the integral fast path's edges: negative zero keeps
	// its sign, and integers at and beyond 1e15 take the general path.
	edges := core.DefaultSpec()
	edges.BoardSpacingM = math.Copysign(0, -1)
	edges.BoardEdgeM = 999999999999999
	edges.LinkRateGbps = 1e15
	edges.StackInjectionRate = -(1 << 53) - 2
	edges.SNRMarginDB = -0.5
	edges.Power = &core.PowerSpec{MaxTxPowerDBm: 1 << 60}
	check("edges", []sweep.Point{{Index: -1, Spec: edges}}, sweep.AnalyticBudget(), 9)
}

// TestPointKeyGolden pins literal keys. Stores are addressed by these
// hashes, so a key that moves turns every existing store cold; only an
// EngineVersion bump may change them.
func TestPointKeyGolden(t *testing.T) {
	sc, err := sweep.Get("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	withSections := core.DefaultSpec()
	withSections.LinkRateGbps = 1e21
	withSections.StackInjectionRate = 1e-7
	withSections.Traffic = &core.TrafficSpec{Pattern: "hotspot", HotspotModule: 3, HotspotFraction: 0.25}
	withSections.Interference = &core.InterferenceSpec{Neighbors: 2, CopperBoards: true, RejectionDB: 6}
	withSections.Power = &core.PowerSpec{MaxTxPowerDBm: -0.5}
	integral := core.DefaultSpec()
	integral.BoardSpacingM = 2
	integral.SNRMarginDB = 1e14
	integral.Power = &core.PowerSpec{MaxTxPowerDBm: 20}
	cases := []struct {
		scenario string
		pt       sweep.Point
		budget   sweep.Budget
		seed     uint64
		want     string
	}{
		{"paper-baseline", sc.Points()[0], sweep.AnalyticBudget(), 1,
			"11f72c970ef0b39b991380e5ed7209021c4c92bd39fecdfb29d80cc12e4f84d9"},
		{"paper-baseline", sc.Points()[len(sc.Points())-1], sweep.SmokeBudget(), 1<<64 - 1,
			"7e304b6d3c4074fa05d1c4cc02ac051d1747d39f7952b24447e473ef732ee267"},
		{"spec/sections", sweep.Point{Index: 7, Label: "traffic-hotspot-fraction=0.25", Spec: withSections},
			sweep.AnalyticBudget(), 21,
			"268663e64c3bfd742378ff0670dc8fa809e864bd4324b5a0b897c65689835c75"},
		{"spec/integral", sweep.Point{Index: 0, Label: "snr-margin-db=1e+14", Spec: integral},
			sweep.StandardBudget(), 0,
			"54cbfafe0ff7fd0b3a0973c8c5b2a8e3f12b23faef4ee2edb941394e6729685d"},
	}
	for _, c := range cases {
		got := sweep.PointKey(c.scenario, c.pt, c.budget, c.seed)
		if got != c.want {
			t.Errorf("PointKey(%s, point %d) = %s, want %s", c.scenario, c.pt.Index, got, c.want)
		}
		if k := sweep.NewKeyer(c.scenario, c.budget, c.seed).Key(c.pt); k != c.want {
			t.Errorf("Keyer(%s).Key(point %d) = %s, want %s", c.scenario, c.pt.Index, k, c.want)
		}
	}
}

// TestKeyerConcurrentUse exercises one Keyer from many goroutines under
// the race detector.
func TestKeyerConcurrentUse(t *testing.T) {
	sc, err := sweep.Get("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	pts := sc.Points()
	k := sweep.NewKeyer(sc.Name, sweep.AnalyticBudget(), 1)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for _, pt := range pts {
				if k.Key(pt) != sweep.PointKey(sc.Name, pt, sweep.AnalyticBudget(), 1) {
					panic("keyer diverged under concurrency")
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
