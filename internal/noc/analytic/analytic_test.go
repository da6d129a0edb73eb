package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/noc"
)

func model(m *noc.Mesh) Model {
	return Model{Topo: m, Traffic: noc.Uniform{}}
}

func TestZeroLoadLatenciesMatchFig8a(t *testing.T) {
	// Paper, 64 modules: 2D mesh ~13 cycles, star-mesh ~7, 3D mesh ~10.
	cases := []struct {
		m    *noc.Mesh
		want float64
		tol  float64
	}{
		{noc.NewMesh2D(8, 8), 13, 0.7},
		{noc.NewStarMesh(4, 4, 4), 7, 0.5},
		{noc.NewMesh3D(4, 4, 4), 10, 0.7},
	}
	for _, c := range cases {
		got := model(c.m).ZeroLoadLatency()
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: zero-load latency = %.1f, want %.0f +- %.1f",
				c.m.Name(), got, c.want, c.tol)
		}
	}
}

func TestSaturationMatchesFig8a(t *testing.T) {
	// Paper, 64 modules: 2D mesh 0.41, star-mesh 0.19, 3D mesh 0.75
	// flits/cycle/module.
	cases := []struct {
		m    *noc.Mesh
		want float64
		tol  float64
	}{
		{noc.NewMesh2D(8, 8), 0.41, 0.04},
		{noc.NewStarMesh(4, 4, 4), 0.19, 0.02},
		{noc.NewMesh3D(4, 4, 4), 0.75, 0.06},
	}
	for _, c := range cases {
		got := model(c.m).SaturationRate()
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: saturation = %.3f, want %.2f +- %.2f",
				c.m.Name(), got, c.want, c.tol)
		}
	}
}

func TestFig8aOrdering(t *testing.T) {
	// The qualitative story of Fig. 8a: star-mesh has the best latency
	// floor but the worst throughput; the 3D mesh combines good latency
	// with the highest throughput; the 2D mesh is worst in latency.
	mesh2d := model(noc.NewMesh2D(8, 8))
	star := model(noc.NewStarMesh(4, 4, 4))
	mesh3d := model(noc.NewMesh3D(4, 4, 4))

	if !(star.ZeroLoadLatency() < mesh3d.ZeroLoadLatency() &&
		mesh3d.ZeroLoadLatency() < mesh2d.ZeroLoadLatency()) {
		t.Error("latency-floor ordering star < 3D < 2D violated")
	}
	if !(star.SaturationRate() < mesh2d.SaturationRate() &&
		mesh2d.SaturationRate() < mesh3d.SaturationRate()) {
		t.Error("throughput ordering star < 2D < 3D violated")
	}
}

func TestFig8bGapWidensAt512(t *testing.T) {
	// Fig. 8b: at 512 modules the 2D/3D latency gap grows significantly.
	gap64 := model(noc.NewMesh2D(8, 8)).ZeroLoadLatency() -
		model(noc.NewMesh3D(4, 4, 4)).ZeroLoadLatency()
	gap512 := model(noc.NewMesh2D(32, 16)).ZeroLoadLatency() -
		model(noc.NewMesh3D(8, 8, 8)).ZeroLoadLatency()
	if gap512 <= 2*gap64 {
		t.Errorf("512-module latency gap %.1f not much larger than 64-module gap %.1f",
			gap512, gap64)
	}
	// And the 3D mesh keeps a large throughput advantage.
	sat2d := model(noc.NewMesh2D(32, 16)).SaturationRate()
	sat3d := model(noc.NewMesh3D(8, 8, 8)).SaturationRate()
	if sat3d < 3*sat2d {
		t.Errorf("3D saturation %.3f not >= 3x 2D %.3f at 512 modules", sat3d, sat2d)
	}
}

func TestLatencyMonotoneInInjection(t *testing.T) {
	m := model(noc.NewMesh3D(4, 4, 4))
	prev := 0.0
	for _, r := range []float64{0.01, 0.1, 0.2, 0.4, 0.6, 0.7} {
		lat, ok := m.AvgLatency(r)
		if !ok {
			t.Fatalf("saturated below the saturation point at %g", r)
		}
		if lat <= prev {
			t.Fatalf("latency not increasing at %g: %g <= %g", r, lat, prev)
		}
		prev = lat
	}
}

func TestLatencyDivergesAtSaturation(t *testing.T) {
	m := model(noc.NewMesh2D(8, 8))
	sat := m.SaturationRate()
	if _, ok := m.AvgLatency(sat * 1.01); ok {
		t.Error("model reports finite latency above saturation")
	}
	lat, ok := m.AvgLatency(sat * 0.98)
	if !ok {
		t.Error("model saturated below the saturation point")
	}
	if lat < 3*m.ZeroLoadLatency() {
		t.Errorf("latency near saturation (%.1f) not clearly diverging", lat)
	}
}

func TestLatencyCurve(t *testing.T) {
	m := model(noc.NewStarMesh(4, 4, 4))
	rates := []float64{0.01, 0.1, 0.18, 0.25}
	curve := m.Compile().LatencyCurve(rates)
	if len(curve) != 4 {
		t.Fatalf("curve length %d", len(curve))
	}
	if curve[3].Saturated != true || curve[0].Saturated {
		t.Error("saturation flags wrong on curve")
	}
	if curve[0].InjectionRate != 0.01 {
		t.Error("rates not preserved")
	}
}

func TestMD1WaitsLessThanMM1(t *testing.T) {
	mm1 := model(noc.NewMesh2D(8, 8))
	md1 := mm1
	md1.Service = MD1
	rate := 0.3
	lmm, _ := mm1.AvgLatency(rate)
	lmd, _ := md1.AvgLatency(rate)
	if lmd >= lmm {
		t.Errorf("M/D/1 latency %.2f not below M/M/1 %.2f", lmd, lmm)
	}
	// Both share the zero-load floor.
	if math.Abs(mm1.ZeroLoadLatency()-md1.ZeroLoadLatency()) > 1e-9 {
		t.Error("service model changed the zero-load latency")
	}
}

func TestServiceModelStrings(t *testing.T) {
	if MM1.String() != "M/M/1" || MD1.String() != "M/D/1" {
		t.Error("service model names wrong")
	}
	if ServiceModel(9).String() != "unknown" {
		t.Error("unknown service model name wrong")
	}
}

func TestChannelLoadsSymmetricOnUniform(t *testing.T) {
	m := model(noc.NewMesh2D(4, 4))
	loads := m.ChannelLoadsPerUnit()
	// Uniform traffic on a symmetric mesh: the load on a->b equals b->a.
	topo := m.Topo
	for _, c := range topo.Channels() {
		fwd := topo.ChannelID(int(c.From), int(c.To))
		rev := topo.ChannelID(int(c.To), int(c.From))
		if math.Abs(loads[fwd]-loads[rev]) > 1e-12 {
			t.Fatalf("asymmetric loads on symmetric mesh: %g vs %g", loads[fwd], loads[rev])
		}
	}
}

func TestHigherEfficiencyRaisesSaturation(t *testing.T) {
	lo := Model{Topo: noc.NewMesh2D(8, 8), Traffic: noc.Uniform{}, ChannelEfficiency: 0.6}
	hi := Model{Topo: noc.NewMesh2D(8, 8), Traffic: noc.Uniform{}, ChannelEfficiency: 1.0}
	if hi.SaturationRate() <= lo.SaturationRate() {
		t.Error("efficiency does not raise saturation")
	}
}

func TestPillarMeshTradesSaturationForTSVs(t *testing.T) {
	// Future-work scenario: TSV pillars every 2 routers concentrate the
	// vertical traffic, lowering saturation versus the full 3D mesh.
	full := model(noc.NewMesh3D(4, 4, 4)).SaturationRate()
	sparse := model(noc.NewPillarMesh3D(4, 4, 4, 2)).SaturationRate()
	if sparse >= full {
		t.Errorf("pillar mesh saturation %.3f not below full 3D %.3f", sparse, full)
	}
}

func TestHotspotLowersSaturation(t *testing.T) {
	base := model(noc.NewMesh2D(8, 8))
	hot := Model{Topo: noc.NewMesh2D(8, 8), Traffic: noc.Hotspot{Module: 0, Fraction: 0.3}}
	if hot.SaturationRate() >= base.SaturationRate() {
		t.Error("hotspot traffic does not lower saturation")
	}
}

func TestAvgLatencyPanicsOnNegativeRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate did not panic")
		}
	}()
	model(noc.NewMesh2D(2, 2)).AvgLatency(-1)
}

// Property: below saturation the latency is finite and above the
// zero-load floor.
func TestPropertyLatencyAboveFloor(t *testing.T) {
	m := model(noc.NewMesh3D(3, 3, 3))
	floor := m.ZeroLoadLatency()
	sat := m.SaturationRate()
	f := func(raw float64) bool {
		r := math.Mod(math.Abs(raw), sat*0.95)
		lat, ok := m.AvgLatency(r)
		return ok && lat >= floor-1e-9 && !math.IsInf(lat, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
