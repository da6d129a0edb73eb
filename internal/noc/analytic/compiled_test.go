package analytic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/noc"
)

// The compiled evaluator must agree with the reference model: the same
// saturation point and the same latency curve (up to float summation
// order) on every topology family, traffic pattern, queueing formula and
// vertical capacity. The larger meshes grow route trees whose chains
// merge several hops below the source, pillar detours included.
func TestCompiledMatchesModel(t *testing.T) {
	topos := []*noc.Mesh{
		noc.NewMesh2D(4, 4),
		noc.NewStarMesh(2, 2, 4),
		noc.NewMesh3D(3, 3, 2),
		noc.NewCiliated3D(2, 2, 2, 2),
		noc.NewPillarMesh3D(4, 4, 3, 2),
		noc.NewMesh2D(9, 7),
		noc.NewPillarMesh3D(6, 6, 3, 3),
		noc.NewCiliated3D(3, 3, 3, 2),
	}
	patterns := []noc.TrafficPattern{noc.Uniform{}, noc.BitComplement{}, noc.Hotspot{Module: 5, Fraction: 0.3}}
	for _, topo := range topos {
		for _, traffic := range patterns {
			for _, service := range []ServiceModel{MM1, MD1} {
				for _, vc := range []float64{1, 2} {
					m := Model{Topo: topo, Traffic: traffic, Service: service, VerticalCapacity: vc}
					name := fmt.Sprintf("%s/%s/%s/vc=%g", topo.Name(), traffic, service, vc)
					c := m.Compile()
					sat := m.SaturationRate()
					if got := c.SaturationRate(); math.Abs(got-sat) > 1e-12*sat {
						t.Errorf("%s: saturation %g, model %g", name, got, sat)
					}
					// Every addition is nonnegative, and the bound is
					// relative, so a channel no traffic crosses (many,
					// under bit-complement) must compile to exactly 0.
					for ch, want := range m.ChannelLoadsPerUnit() {
						got := c.ChannelLoadsPerUnit()[ch]
						if got < 0 || math.Abs(got-want) > 1e-12*want {
							t.Fatalf("%s: channel %d load %g, model %g", name, ch, got, want)
						}
					}
					if got, want := c.ZeroLoadLatency(), m.ZeroLoadLatency(); math.Abs(got-want) > 1e-12*want {
						t.Errorf("%s: zero-load latency %g, model %g", name, got, want)
					}
					for _, rate := range []float64{0, 0.3 * sat, 0.8 * sat, 0.99 * sat, 1.5 * sat} {
						got, gok := c.AvgLatency(rate)
						want, wok := m.AvgLatency(rate)
						if gok != wok {
							t.Fatalf("%s at %g: feasibility %v vs %v", name, rate, gok, wok)
						}
						if gok && math.Abs(got-want) > 1e-12*want {
							t.Errorf("%s at %g: latency %g, model %g (rel %.2g)", name, rate, got, want, math.Abs(got-want)/want)
						}
					}
				}
			}
		}
	}
}

// Degenerate meshes: a single module offers no traffic, and a single
// concentrated router carries all of it without touching a channel.
func TestCompiledDegenerateMeshes(t *testing.T) {
	lone := Model{Topo: noc.NewMesh2D(1, 1), Traffic: noc.Uniform{}}.Compile()
	if lat, ok := lone.AvgLatency(0.5); lat != 0 || !ok {
		t.Errorf("single module: latency %g (ok %v), want 0", lat, ok)
	}
	star := Model{Topo: noc.NewStarMesh(1, 1, 4), Traffic: noc.Uniform{}, RouterDelayCycles: 3}
	c := star.Compile()
	if c.Model().Topo != star.Topo {
		t.Error("Model() does not return the compiled configuration")
	}
	if !math.IsInf(c.SaturationRate(), 1) {
		t.Errorf("channel-free mesh saturates at %g, want +Inf", c.SaturationRate())
	}
	if lat, ok := c.AvgLatency(0.9); lat != 3 || !ok {
		t.Errorf("co-located traffic: latency %g (ok %v), want one router delay 3", lat, ok)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative injection rate did not panic")
		}
	}()
	c.AvgLatency(-1)
}

func TestCompiledWithService(t *testing.T) {
	m := Model{Topo: noc.NewMesh3D(3, 3, 2), Traffic: noc.Uniform{}}
	c := m.Compile()
	rate := 0.5 * c.SaturationRate()
	md1Direct, _ := Model{Topo: m.Topo, Traffic: m.Traffic, Service: MD1}.Compile().AvgLatency(rate)
	md1Shared, _ := c.WithService(MD1).AvgLatency(rate)
	if md1Shared != md1Direct {
		t.Errorf("WithService(MD1) latency %g, direct compile %g", md1Shared, md1Direct)
	}
	// The original evaluator must be untouched.
	mm1, _ := c.AvgLatency(rate)
	if mm1 <= md1Shared {
		t.Errorf("M/M/1 latency %g not above M/D/1 %g", mm1, md1Shared)
	}
}

func TestCompiledVerticalCapacity(t *testing.T) {
	m := Model{Topo: noc.NewMesh3D(3, 3, 3), Traffic: noc.Uniform{}, VerticalCapacity: 2}
	c := m.Compile()
	if got, want := c.SaturationRate(), m.SaturationRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("vertical capacity: compiled saturation %g, model %g", got, want)
	}
}

func TestCompiledCurveDeterministic(t *testing.T) {
	// Two compilations of the same model must produce bit-identical
	// curves: sweep records depend on it.
	m := Model{Topo: noc.NewMesh3D(4, 4, 4), Traffic: noc.Uniform{}}
	rates := []float64{0.01, 0.1, 0.3, 0.5}
	a := m.Compile().LatencyCurve(rates)
	b := m.Compile().LatencyCurve(rates)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("curve point %d differs between compilations: %+v vs %+v", i, a[i], b[i])
		}
	}
}
