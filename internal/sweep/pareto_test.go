package sweep

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := (Pareto{Objectives: objs}).Names(); !slices.Equal(got, []string{"tx-power", "decode-latency", "noc-saturation"}) {
		t.Fatalf("default objectives = %v", got)
	}
	if _, err := ParseObjectives([]string{"tx-power", "warp-drive"}); err == nil {
		t.Error("unknown objective accepted")
	}
	if _, err := ParseObjectives([]string{"tx-power", ""}); err == nil {
		t.Error("empty objective name accepted")
	}
	if _, err := ParseObjectives([]string{"ber", "ber"}); err == nil {
		t.Error("duplicate objective accepted")
	}
	if _, err := ParseObjectives([]string{"ber"}); err == nil {
		t.Error("single objective accepted")
	}
	objs, err = ParseObjectives([]string{" NOC-Latency ", "spectral-efficiency"})
	if err != nil {
		t.Fatal(err)
	}
	if objs[0].Objective != "noc-latency" || !objs[1].Maximize {
		t.Fatalf("normalised parse = %+v", objs)
	}
}

// TestMetricCatalog pins the names the catalog serves: constraint names
// are the records' JSON keys, and every objective is also a metric.
func TestMetricCatalog(t *testing.T) {
	wantMetrics := []string{"ber", "code_lifting", "code_window", "decode_latency_bits",
		"noc_latency_cycles", "noc_saturation", "sim_latency_cycles",
		"spectral_efficiency_bps_hz", "tx_power_dbm"}
	if got := MetricNames(); !slices.Equal(got, wantMetrics) {
		t.Errorf("metrics = %v, want %v", got, wantMetrics)
	}
	wantObjectives := []string{"ber", "decode-latency", "noc-latency", "noc-saturation",
		"spectral-efficiency", "tx-power"}
	if got := ObjectiveNames(); !slices.Equal(got, wantObjectives) {
		t.Errorf("objectives = %v, want %v", got, wantObjectives)
	}
	rec := Record{TxPowerDBm: 1, SpectralEfficiency: 2, CodeLifting: 3, CodeWindow: 4,
		DecodeLatencyBits: 5, NoCLatencyCycles: 6, NoCSaturation: 7, BER: 8, SimLatencyCycles: 9}
	for _, want := range []struct {
		name string
		v    float64
	}{{"tx_power_dbm", 1}, {"spectral_efficiency_bps_hz", 2}, {"code_lifting", 3}, {"code_window", 4},
		{"decode_latency_bits", 5}, {"noc_latency_cycles", 6}, {"noc_saturation", 7}, {"ber", 8},
		{"sim_latency_cycles", 9}} {
		m, ok := LookupMetric(want.name)
		if !ok || m.Value(rec) != want.v {
			t.Errorf("metric %s reads %v (found %v), want %v", want.name, m.Value(rec), ok, want.v)
		}
	}
	if _, ok := LookupMetric("tx-power"); ok {
		t.Error("an objective name resolved as a constraint metric")
	}
}

// TestMarkOwnObjectives: a front over two chosen objectives keeps the
// records the default trio would drop, and the constraint predicate
// removes records without letting them dominate.
func TestMarkOwnObjectives(t *testing.T) {
	recs := []Record{
		{TxPowerDBm: 10, DecodeLatencyBits: 100, NoCSaturation: 0.5, NoCLatencyCycles: 9}, // 0
		{TxPowerDBm: 12, DecodeLatencyBits: 200, NoCSaturation: 0.4, NoCLatencyCycles: 3}, // 1: trio-dominated by 0
		{TxPowerDBm: 5, DecodeLatencyBits: 300, NoCSaturation: 0.1, NoCLatencyCycles: 1},  // 2: infeasible
	}
	objs, err := ParseObjectives([]string{"tx-power", "noc-latency"})
	if err != nil {
		t.Fatal(err)
	}
	if got := (Pareto{}).Mark(recs); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("trio front = %v, want [0 2]", got)
	}
	p := Pareto{Objectives: objs, Feasible: func(r Record) bool { return r.TxPowerDBm > 6 }}
	if got := p.Mark(recs); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("front over (tx-power, noc-latency) = %v, want [0 1]", got)
	}
	if recs[2].Pareto {
		t.Error("infeasible record kept its flag")
	}
}

// bruteFront is the reference front: a feasible record is on it unless
// some other feasible record is no worse on every objective and better
// on one, each metric compared in minimisation form with NaN worst.
func bruteFront(recs []Record, objs []Metric, feasible func(Record) bool) []int {
	cost := func(o Metric, r Record) float64 {
		v := o.Value(r)
		switch {
		case math.IsNaN(v):
			return math.Inf(1)
		case o.Maximize:
			return -v
		}
		return v
	}
	ok := func(r Record) bool { return r.Err == "" && feasible(r) }
	var front []int
	for i, ri := range recs {
		if !ok(ri) {
			continue
		}
		dominated := false
		for j, rj := range recs {
			if j == i || !ok(rj) {
				continue
			}
			noWorse, better := true, false
			for _, o := range objs {
				a, b := cost(o, rj), cost(o, ri)
				noWorse = noWorse && a <= b
				better = better || a < b
			}
			if noWorse && better {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// fuzzPalette holds the metric values fuzzed records draw from: few
// enough that ties are common, with both infinities, NaN and signed
// zeros.
var fuzzPalette = []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, 1e300, math.Inf(1), math.NaN()}

// FuzzMarkFront compares Pareto.Mark against bruteFront. The first byte
// picks how many objectives (2 to 6) and the second where in the catalog
// they start; then every 7 bytes make one record: six metric values out
// of fuzzPalette and a flag byte (bit 0 sets Err, bit 1 fails the
// constraint predicate, bit 2 presets a stale Pareto flag).
func FuzzMarkFront(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 0, 2, 2, 2, 2, 2, 2, 0, 10, 9, 8, 7, 6, 5, 4})
	f.Add([]byte{4, 3, 0, 0, 0, 0, 0, 0, 2, 10, 10, 10, 10, 10, 10, 0, 4, 4, 4, 4, 4, 4, 5, 4, 4, 4, 4, 4, 4, 1})
	f.Add([]byte{1, 2, 3, 3, 3, 3, 3, 3, 0, 3, 3, 3, 3, 3, 3, 0, 5, 5, 5, 5, 5, 5, 0}) // an exact tie
	// Two objectives (noc-latency, noc-saturation): ±Inf costs, an exact
	// tie, a tie on the first cost only, a NaN, a signed-zero pair, and
	// a tie on the second cost only.
	f.Add([]byte{0, 2, 4, 4, 4, 9, 9, 4, 0, 4, 4, 4, 0, 0, 4, 0, 4, 4, 4, 6, 6, 4, 0, 4, 4, 4, 6, 6, 4, 0,
		4, 4, 4, 6, 5, 4, 0, 4, 4, 4, 3, 10, 4, 0, 4, 4, 4, 4, 3, 4, 0, 4, 4, 4, 3, 4, 4, 4,
		4, 4, 4, 7, 2, 4, 0, 4, 4, 4, 8, 2, 4, 0})
	f.Add([]byte{0, 2, 4, 4, 4, 6, 2, 4, 0, 4, 4, 4, 7, 2, 4, 0}) // (1, 1) dominates (2, 1)
	objectives := ObjectiveNames()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 2 + int(data[0])%(len(objectives)-1)
		names := make([]string, k)
		for i := range names {
			names[i] = objectives[(int(data[1])+i)%len(objectives)]
		}
		objs, err := ParseObjectives(names)
		if err != nil {
			t.Fatal(err)
		}
		var recs []Record
		var infeasible []bool
		for b := data[2:]; len(b) >= 7; b = b[7:] {
			v := func(i int) float64 { return fuzzPalette[int(b[i])%len(fuzzPalette)] }
			r := Record{Index: len(recs), TxPowerDBm: v(0), SpectralEfficiency: v(1), DecodeLatencyBits: v(2),
				NoCLatencyCycles: v(3), NoCSaturation: v(4), BER: v(5), Pareto: b[6]&4 != 0}
			if b[6]&1 != 0 {
				r.Err = "rejected"
			}
			recs = append(recs, r)
			infeasible = append(infeasible, b[6]&2 != 0)
		}
		feasible := func(r Record) bool { return !infeasible[r.Index] }
		want := bruteFront(recs, objs, feasible)
		got := Pareto{Objectives: objs, Feasible: feasible}.Mark(recs)
		if !slices.Equal(got, want) {
			t.Fatalf("front = %v, want %v", got, want)
		}
		for i, r := range recs {
			if r.Pareto != slices.Contains(want, i) {
				t.Fatalf("record %d Pareto = %v, front %v", i, r.Pareto, want)
			}
		}
	})
}

// BenchmarkParetoMark marks the default-trio front of a 1024-point
// grid, the largest a warm resubmission marks per job.
func BenchmarkParetoMark(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, 1024)
	for i := range recs {
		recs[i] = Record{TxPowerDBm: rng.Float64() * 30, DecodeLatencyBits: float64(100 * (1 + rng.Intn(8))),
			NoCSaturation: rng.Float64()}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pareto{}.Mark(recs)
	}
}

// BenchmarkParetoMarkTwoObjectives marks a 4096-record front over two
// fully trading-off objectives: every record is on it, the worst case
// of a pairwise pass.
func BenchmarkParetoMarkTwoObjectives(b *testing.B) {
	objs, err := ParseObjectives([]string{"tx-power", "noc-latency"})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]Record, 4096)
	for i := range recs {
		recs[i] = Record{TxPowerDBm: float64(i), NoCLatencyCycles: float64(len(recs) - i)}
	}
	p := Pareto{Objectives: objs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if front := p.Mark(recs); len(front) != len(recs) {
			b.Fatalf("front has %d records, want %d", len(front), len(recs))
		}
	}
}
