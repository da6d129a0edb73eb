package analytic

import (
	"math"
	"testing"

	"repro/internal/noc"
)

// FuzzCompiledMatchesModel checks the compiled evaluator against the
// reference model on arbitrary meshes: extents 1–6 per dimension,
// concentration 1–4, TSV pillars every 1–3 routers (pillar meshes carry
// one module per router) and any of the three patterns, the hotspot
// anywhere in [-1, modules] with any fraction in [0, 1]. Loads and the
// saturation rate must agree to 1e-12 relative, and loads must be
// exactly 0 wherever the reference load is. The reference latency sums
// one term per module pair, up to 750k of them in a different order
// from the compiled sum, so latencies agree to 1e-10.
func FuzzCompiledMatchesModel(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(1), uint8(0), uint8(0), uint8(0), uint16(0), uint16(0))
	f.Add(uint8(4), uint8(3), uint8(2), uint8(1), uint8(0), uint8(1), uint16(0), uint16(0))
	f.Add(uint8(5), uint8(4), uint8(2), uint8(0), uint8(2), uint8(2), uint16(7), uint16(13107))
	f.Fuzz(func(t *testing.T, x, y, z, conc, every, pattern uint8, hot, frac uint16) {
		dims := [3]int{1 + int(x)%6, 1 + int(y)%6, 1 + int(z)%6}
		var topo *noc.Mesh
		if k := 1 + int(every)%3; k > 1 {
			topo = noc.NewPillarMesh3D(dims[0], dims[1], dims[2], k)
		} else {
			topo = noc.NewCiliated3D(dims[0], dims[1], dims[2], 1+int(conc)%4)
		}
		n := topo.NumModules()
		var traffic noc.TrafficPattern
		switch pattern % 3 {
		case 0:
			traffic = noc.Uniform{}
		case 1:
			traffic = noc.BitComplement{}
		default:
			traffic = noc.Hotspot{Module: int(hot)%(n+2) - 1, Fraction: float64(frac) / math.MaxUint16}
		}
		m := Model{Topo: topo, Traffic: traffic}
		c := m.Compile()
		for ch, want := range m.ChannelLoadsPerUnit() {
			got := c.ChannelLoadsPerUnit()[ch]
			if want == 0 && got != 0 || math.Abs(got-want) > 1e-12*want {
				t.Fatalf("%s/%s: channel %d load %g, model %g", topo.Name(), traffic, ch, got, want)
			}
		}
		sat := m.SaturationRate()
		if got := c.SaturationRate(); got != sat && math.Abs(got-sat) > 1e-12*sat {
			t.Fatalf("%s/%s: saturation %g, model %g", topo.Name(), traffic, got, sat)
		}
		rates := []float64{0}
		if !math.IsInf(sat, 1) {
			rates = append(rates, 0.5*sat)
		}
		for _, rate := range rates {
			got, gok := c.AvgLatency(rate)
			want, wok := m.AvgLatency(rate)
			if gok != wok || math.Abs(got-want) > 1e-10*want {
				t.Fatalf("%s/%s at %g: latency %g (ok %v), model %g (ok %v)", topo.Name(), traffic, rate, got, gok, want, wok)
			}
		}
	})
}
