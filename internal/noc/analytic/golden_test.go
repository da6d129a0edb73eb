package analytic_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/noc/analytic"
)

var update = flag.Bool("update", false, "rewrite testdata/compiled_golden.json from the current Compile")

// compiledGoldenPath holds compiled evaluators recorded with the
// route-walk Compile that the table-driven LastHop and row-wise traffic
// shares replaced; any change to a compiled float bit fails the test.
const compiledGoldenPath = "testdata/compiled_golden.json"

// compiledGolden is one compiled model: its floats as hex IEEE-754 bit
// patterns, the per-channel loads folded into a SHA-256 of their bits
// (little-endian, in channel order) to keep the file small.
type compiledGolden struct {
	Topo       string `json:"topo"`
	Traffic    string `json:"traffic"`
	Channels   int    `json:"channels"`
	LoadsSHA   string `json:"loads_sha256"`
	HopShare   string `json:"hop_share"`
	TotalShare string `json:"total_share"`
	Saturation string `json:"saturation"`
	Latency    string `json:"latency"` // at half the saturation rate
}

// goldenModels lists the recorded models: the stack choice's candidate
// meshes at module counts spread over [2, 330), plus pillar meshes at
// spacing 2 and 3 over the near-cubic grid (at least two layers, so
// every layer change off a pillar detours), each under four patterns.
// The last pattern runs at vertical capacity 2, so the per-channel
// capacity enters the recorded saturation and latency bits.
func goldenModels() []analytic.Model {
	var out []analytic.Model
	for n := 2; n < 330; n += 11 {
		topos := core.CandidateTopologies(n)
		c := int(math.Ceil(math.Cbrt(float64(n))))
		cz := max((n+c*c-1)/(c*c), 2)
		topos = append(topos, noc.NewPillarMesh3D(c, c, cz, 2), noc.NewPillarMesh3D(c, c, cz, 3))
		for _, topo := range topos {
			m := topo.NumModules()
			out = append(out,
				analytic.Model{Topo: topo, Traffic: noc.Uniform{}},
				analytic.Model{Topo: topo, Traffic: noc.BitComplement{}},
				analytic.Model{Topo: topo, Traffic: noc.Hotspot{Module: 0, Fraction: 0.02}},
				analytic.Model{Topo: topo, Traffic: noc.Hotspot{Module: m / 3, Fraction: 0.2}, VerticalCapacity: 2})
		}
	}
	return out
}

func goldenOf(m analytic.Model) compiledGolden {
	c := m.Compile()
	loads := c.ChannelLoadsPerUnit()
	buf := make([]byte, 8*len(loads))
	for i, l := range loads {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(l))
	}
	sum := sha256.Sum256(buf)
	hop, total := c.Shares()
	sat := c.SaturationRate()
	lat, _ := c.AvgLatency(0.5 * sat)
	return compiledGolden{
		Topo:       m.Topo.Name(),
		Traffic:    m.Traffic.String(),
		Channels:   len(loads),
		LoadsSHA:   hex.EncodeToString(sum[:]),
		HopShare:   fmt.Sprintf("%016x", math.Float64bits(hop)),
		TotalShare: fmt.Sprintf("%016x", math.Float64bits(total)),
		Saturation: fmt.Sprintf("%016x", math.Float64bits(sat)),
		Latency:    fmt.Sprintf("%016x", math.Float64bits(lat)),
	}
}

// TestCompiledGolden pins every bit Compile produces (per-channel loads,
// hop-weighted and total share) and the saturation rate and latency
// evaluated from them on the recorded models, so a faster
// compile cannot drift a sweep record. Regenerate with -update only
// for a deliberate change of numerics, which also bumps the sweep
// engine version.
func TestCompiledGolden(t *testing.T) {
	models := goldenModels()
	got := make([]compiledGolden, len(models))
	for i, m := range models {
		got[i] = goldenOf(m)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(compiledGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(compiledGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []compiledGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d models, the case list %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("model %d: compiled %+v, golden %+v", i, got[i], want[i])
		}
	}
}
