package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
)

// columnarCorpus returns records that exercise every encoder edge:
// omitempty fields present and absent, floats that switch encoding/json
// into exponent form, negative zero, subnormals, and strings that need
// escaping (HTML characters, quotes, control bytes, invalid UTF-8,
// U+2028).
func columnarCorpus() []Record {
	return []Record{
		{},
		{
			Scenario: "paper-grid", Index: 7, Label: "boards=4 rate=100",
			Spec: core.SystemSpec{
				Boards: 4, BoardSpacingM: 0.1, BoardEdgeM: 0.1, NodesPerBoard: 16,
				LinkRateGbps: 100, LatencyBudgetBits: 1024, StackModules: 8,
				StackInjectionRate: 0.05, Butler: true, SNRMarginDB: 3,
			},
			TxPowerDBm: -3.75, SpectralEfficiency: 6.25,
			CodeLifting: 12, CodeWindow: 5, DecodeLatencyBits: 300,
			Topology: "folded-torus", NoCLatencyCycles: 14.5, NoCSaturation: 0.35,
			BEREbN0DB: 3, BER: 1.25e-5, BERCodewords: 4096,
			SimLatencyCycles: 200.25, SimLatencyCI95: 1.5, SimReplications: 30,
			Pareto: true,
		},
		{Err: "no topology sustains injection rate", Index: -3},
		{Label: `quotes " and \ backslash`, Topology: "<mesh> & torus"},
		{Scenario: "ctrl\x01\n\r\t\x7f", Label: "bad utf8 \xff\xfe", Err: "line sep s"},
		{TxPowerDBm: 1e-7, SpectralEfficiency: 1e21, NoCLatencyCycles: 9.999999e20,
			NoCSaturation: 1.0000001e-6, DecodeLatencyBits: 5e-324, SimLatencyCycles: math.MaxFloat64},
		{TxPowerDBm: math.Copysign(0, -1), BER: 0.1, BEREbN0DB: -2.5},
		{TxPowerDBm: 999999999999999, SpectralEfficiency: 1e15, DecodeLatencyBits: -7,
			NoCLatencyCycles: -(1 << 53) - 2, NoCSaturation: 1 << 60, BER: 1e20, SimLatencyCycles: 4096},
		{BER: 3.141592653589793, SimLatencyCI95: 2.718281828459045e-15},
		{
			Scenario: "spec-sections", Index: 11,
			Spec: core.SystemSpec{
				Boards: 4, StackModules: 64,
				Traffic:      &core.TrafficSpec{Pattern: "hotspot", HotspotModule: 3, HotspotFraction: 0.25},
				Interference: &core.InterferenceSpec{Neighbors: 2, CopperBoards: true, RejectionDB: 6.5},
				Power:        &core.PowerSpec{MaxTxPowerDBm: 10},
			},
		},
		{Spec: core.SystemSpec{Traffic: &core.TrafficSpec{Pattern: `esc"<&>`, HotspotFraction: 1e-7}}},
		{Spec: core.SystemSpec{Power: &core.PowerSpec{MaxTxPowerDBm: math.Copysign(0, -1)}}},
	}
}

// TestAppendRecordJSONMatchesMarshal pins the columnar encoder to
// encoding/json byte for byte — the property that makes it safe to
// swap into the store segment and wire paths.
func TestAppendRecordJSONMatchesMarshal(t *testing.T) {
	for i, r := range columnarCorpus() {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("record %d: marshal: %v", i, err)
		}
		got, err := AppendRecordJSON(nil, r)
		if err != nil {
			t.Fatalf("record %d: AppendRecordJSON: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %d: encoding mismatch\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestAppendRecordsJSONMatchesMarshal checks the array form used by
// chunk-completion bodies.
func TestAppendRecordsJSONMatchesMarshal(t *testing.T) {
	recs := columnarCorpus()
	want, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendRecordsJSON(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("array encoding mismatch\n got %s\nwant %s", got, want)
	}
	// An empty chunk posts [], never null.
	for _, empty := range [][]Record{nil, {}} {
		if got, err := AppendRecordsJSON([]byte("x"), empty); err != nil || string(got) != "x[]" {
			t.Errorf("empty records: got %q, %v; want \"x[]\"", got, err)
		}
	}
}

// TestAppendRecordJSONRejectsNonFinite mirrors json.Marshal's refusal
// of NaN and infinities, leaving dst untouched.
func TestAppendRecordJSONRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []Record{
			{BER: bad},
			{Spec: core.SystemSpec{Traffic: &core.TrafficSpec{HotspotFraction: bad}}},
			{Spec: core.SystemSpec{Interference: &core.InterferenceSpec{RejectionDB: bad}}},
			{Spec: core.SystemSpec{Power: &core.PowerSpec{MaxTxPowerDBm: bad}}},
		} {
			if _, err := json.Marshal(r); err == nil {
				t.Fatalf("json.Marshal accepted %v", bad)
			}
			dst := []byte("prefix")
			out, err := AppendRecordJSON(dst, r)
			if err == nil {
				t.Fatalf("AppendRecordJSON accepted %v", bad)
			}
			if string(out) != "prefix" {
				t.Fatalf("dst modified on error: %q", out)
			}
		}
	}
}

// FuzzRecordColumnarRoundTrip drives records with fuzzer-chosen field
// values — float bit patterns included, so NaN payloads, infinities,
// negative zero and huge integers appear — through the JSON identity
// against encoding/json, and the record's point through the Keyer
// against the encoding/json PointKey.
func FuzzRecordColumnarRoundTrip(f *testing.F) {
	f.Add("paper-grid", "label", "", "mesh", 3, 0.1, -3.75, uint64(0x3ff0000000000000), uint64(0), 4096, true, false)
	f.Add("", "", "infeasible", "", -1, 1e-7, 1e21, uint64(0x7ff8000000000001), uint64(0xfff0000000000000), 0, false, true)
	f.Add("esc<&> ", "q\"\\\x01", "bad\xff", "t", 42, 5e-324, math.MaxFloat64, uint64(0x8000000000000000), uint64(0x7ff0000000000000), -7, true, true)
	f.Fuzz(func(t *testing.T, scenario, label, errStr, topology string,
		idx int, f1, f2 float64, bits1, bits2 uint64, cw int, butler, pareto bool) {
		r := Record{
			Scenario: scenario, Index: idx, Label: label,
			Spec: core.SystemSpec{
				Boards: idx ^ 5, BoardSpacingM: f1, BoardEdgeM: f2,
				NodesPerBoard: cw, LinkRateGbps: math.Float64frombits(bits1),
				LatencyBudgetBits: idx, StackModules: cw ^ 3,
				StackInjectionRate: math.Float64frombits(bits2),
				Butler:             butler, SNRMarginDB: f1 + f2,
			},
			Err:        errStr,
			TxPowerDBm: math.Float64frombits(bits2 ^ bits1), SpectralEfficiency: f2,
			CodeLifting: cw, CodeWindow: cw / 2, DecodeLatencyBits: f1,
			Topology: topology, NoCLatencyCycles: f2 * 3, NoCSaturation: f1 * f2,
			BEREbN0DB: f1 - f2, BER: math.Float64frombits(bits1 >> 1),
			BERCodewords: idx * 2, SimLatencyCycles: f2 - f1,
			SimLatencyCI95: math.Float64frombits(bits2 >> 3), SimReplications: idx / 3,
			Pareto: pareto,
		}
		// Optional sections are derived from the existing arguments (the
		// committed seed corpus keeps its signature) and still cover NaN
		// and infinity bit patterns through the float columns.
		if pareto {
			r.Spec.Traffic = &core.TrafficSpec{
				Pattern: label, HotspotModule: cw,
				HotspotFraction: math.Float64frombits(bits1 ^ 0x55),
			}
		}
		if butler {
			r.Spec.Interference = &core.InterferenceSpec{
				Neighbors: idx, CopperBoards: pareto, RejectionDB: f2,
			}
			r.Spec.Power = &core.PowerSpec{MaxTxPowerDBm: math.Float64frombits(bits2 ^ 0xff)}
		}
		want, werr := json.Marshal(r)
		got, gerr := AppendRecordJSON(nil, r)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error disagreement: json.Marshal err=%v, AppendRecordJSON err=%v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("encoding mismatch\n got %s\nwant %s", got, want)
		}
		if werr == nil {
			var back Record
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
		}

		// The Keyer encodes the spec through the same encoder. Both key
		// paths must agree on every encodable spec and both must refuse
		// (panic on) a non-finite one.
		pt := Point{Index: r.Index, Label: r.Label, Spec: r.Spec}
		seed := bits1 ^ bits2
		wantKey, wantPanic := keyOrPanic(func() string { return PointKey(scenario, pt, SmokeBudget(), seed) })
		gotKey, gotPanic := keyOrPanic(func() string { return NewKeyer(scenario, SmokeBudget(), seed).Key(pt) })
		if wantPanic != gotPanic || gotKey != wantKey {
			t.Fatalf("keyer diverged from PointKey: got %q (panic %v), want %q (panic %v)",
				gotKey, gotPanic, wantKey, wantPanic)
		}
	})
}

// keyOrPanic runs a key computation, reporting a panic instead of
// propagating it.
func keyOrPanic(key func() string) (k string, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return key(), false
}
