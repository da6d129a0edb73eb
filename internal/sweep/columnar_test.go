package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
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

// plainRecord is Record without its JSON methods: json.Marshal of it
// is encoding/json's own rendering of the struct, the reference the
// columnar encoder is pinned to.
type plainRecord Record

// TestAppendRecordJSONMatchesMarshal pins the columnar encoder to
// encoding/json byte for byte — the property that makes it safe to
// swap into the store segment and wire paths — and checks that
// Record's MarshalJSON and UnmarshalJSON are the codec and its inverse.
func TestAppendRecordJSONMatchesMarshal(t *testing.T) {
	for i, r := range columnarCorpus() {
		want, err := json.Marshal(plainRecord(r))
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
		if viaMethod, err := json.Marshal(r); err != nil || !bytes.Equal(viaMethod, want) {
			t.Errorf("record %d: json.Marshal(Record) = %s, %v; want %s", i, viaMethod, err, want)
		}
		var back Record
		var ref plainRecord
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("record %d: UnmarshalJSON: %v", i, err)
		}
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatalf("record %d: reference decode: %v", i, err)
		}
		if !reflect.DeepEqual(back, Record(ref)) {
			t.Errorf("record %d: UnmarshalJSON = %+v, encoding/json = %+v", i, back, ref)
		}
	}
}

// TestAppendRecordsJSONMatchesMarshal checks the array form used by
// chunk-completion bodies.
func TestAppendRecordsJSONMatchesMarshal(t *testing.T) {
	recs := columnarCorpus()
	plain := make([]plainRecord, len(recs))
	for i, r := range recs {
		plain[i] = plainRecord(r)
	}
	want, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendRecordsJSON(nil, recs); !bytes.Equal(got, want) {
		t.Errorf("array encoding mismatch\n got %s\nwant %s", got, want)
	}
	// An empty chunk posts [], never null.
	for _, empty := range [][]Record{nil, {}} {
		if got := AppendRecordsJSON([]byte("x"), empty); string(got) != "x[]" {
			t.Errorf("empty records: got %q; want \"x[]\"", got)
		}
	}
}

// TestAppendRecordJSONSpellsNonFinite: NaN and infinities, in metric
// and spec positions alike, encode as the strings "NaN", "+Inf" and
// "-Inf" and decode back to the same class of value; no other string
// decodes as a float.
func TestAppendRecordJSONSpellsNonFinite(t *testing.T) {
	for _, c := range []struct {
		v     float64
		spell string
	}{{math.NaN(), `"NaN"`}, {math.Inf(1), `"+Inf"`}, {math.Inf(-1), `"-Inf"`}} {
		for _, r := range []Record{
			{BER: c.v},
			{NoCSaturation: c.v},
			{Spec: core.SystemSpec{LinkRateGbps: c.v}},
			{Spec: core.SystemSpec{Traffic: &core.TrafficSpec{HotspotFraction: c.v}}},
			{Spec: core.SystemSpec{Interference: &core.InterferenceSpec{RejectionDB: c.v}}},
			{Spec: core.SystemSpec{Power: &core.PowerSpec{MaxTxPowerDBm: c.v}}},
		} {
			got, err := AppendRecordJSON([]byte("prefix"), r)
			if err != nil || !bytes.HasPrefix(got, []byte("prefix{")) {
				t.Fatalf("AppendRecordJSON(%v) = %q, %v", c.v, got, err)
			}
			got = got[len("prefix"):]
			if !bytes.Contains(got, []byte(":"+c.spell)) {
				t.Fatalf("%s lacks the spelling %s", got, c.spell)
			}
			var back Record
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("decode %s: %v", got, err)
			}
			if again, _ := AppendRecordJSON(nil, back); !bytes.Equal(again, got) {
				t.Fatalf("round trip changed the bytes\n got %s\nwant %s", again, got)
			}
		}
	}
	// The layout AppendRecordJSON writes is read indented too, as in a
	// WriteJSON document; another layout decodes as encoding/json does,
	// so there a float must be a number.
	spelled := Record{Label: "x", NoCSaturation: math.Inf(1), Spec: core.SystemSpec{Power: &core.PowerSpec{MaxTxPowerDBm: math.NaN()}}}
	indented, err := json.MarshalIndent(spelled, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(indented, &back); err != nil || !math.IsInf(back.NoCSaturation, 1) || !math.IsNaN(back.Spec.Power.MaxTxPowerDBm) {
		t.Errorf("indented record: %+v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`{"label":"y","ber":0.5,"unknown":[1]}`), &back); err != nil || back.Label != "y" || back.BER != 0.5 {
		t.Errorf("other layout: %+v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`{"label":"y","ber":"NaN"}`), &back); err == nil {
		t.Errorf("other layout took a spelled float: %+v", back)
	}
	for _, bad := range []string{`"Inf"`, `"inf"`, `"+NaN"`, `"Infinity"`, `"1"`, `""`, `true`, `{}`, `1e999`} {
		if err := json.Unmarshal([]byte(`{"ber":`+bad+`}`), new(Record)); err == nil {
			t.Errorf("ber %s decoded", bad)
		}
		if err := json.Unmarshal([]byte(`{"spec":{"power":{"max_tx_power_dbm":`+bad+`}}}`), new(Record)); err == nil {
			t.Errorf("max_tx_power_dbm %s decoded", bad)
		}
	}
}

// FuzzRecordColumnarRoundTrip drives records with fuzzer-chosen field
// values — float bit patterns included, so NaN payloads, infinities,
// negative zero and huge integers appear — through the codec: every
// record's bytes decode and re-encode unchanged, and a finite record's
// bytes equal encoding/json's. The record's point goes through the
// Keyer against the encoding/json PointKey.
func FuzzRecordColumnarRoundTrip(f *testing.F) {
	f.Add("paper-grid", "label", "", "mesh", 3, 0.1, -3.75, uint64(0x3ff0000000000000), uint64(0), 4096, true, false)
	f.Add("", "", "infeasible", "", -1, 1e-7, 1e21, uint64(0x7ff8000000000001), uint64(0xfff0000000000000), 0, false, true)
	f.Add("esc<&> ", "q\"\\\x01", "bad\xff", "t", 42, 5e-324, math.MaxFloat64, uint64(0x8000000000000000), uint64(0x7ff0000000000000), -7, true, true)
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
		got, err := AppendRecordJSON(nil, r)
		if err != nil {
			t.Fatalf("AppendRecordJSON: %v", err)
		}
		want, werr := json.Marshal(plainRecord(r))
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("encoding mismatch\n got %s\nwant %s", got, want)
		}
		// Invalid UTF-8 encodes as \ufffd but decodes to a raw U+FFFD,
		// as with encoding/json, so the round trip runs on valid strings.
		valid := func(s string) string { return strings.ToValidUTF8(s, "\uFFFD") }
		r.Scenario, r.Label, r.Err, r.Topology = valid(scenario), valid(label), valid(errStr), valid(topology)
		if r.Spec.Traffic != nil {
			r.Spec.Traffic.Pattern = valid(label)
		}
		got, _ = AppendRecordJSON(got[:0], r)
		var back Record
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("decode %s: %v", got, err)
		}
		if again, _ := AppendRecordJSON(nil, back); !bytes.Equal(again, got) {
			t.Fatalf("round trip changed the bytes\n got %s\nwant %s", again, got)
		}
		// A finite record decodes as encoding/json decodes the struct.
		var ref plainRecord
		if werr == nil && (json.Unmarshal(got, &ref) != nil || !reflect.DeepEqual(back, Record(ref))) {
			t.Fatalf("decode of %s\n got %+v\nwant %+v", got, back, ref)
		}

		// The Keyer encodes the spec through the same encoder. Both key
		// paths must agree on every finite spec and both must refuse
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

// FuzzRecordDecode feeds arbitrary bytes to the record decoder, which
// reads remote workers' completion bodies: it must never panic, and a
// record it accepts must re-encode to bytes that decode and re-encode
// unchanged.
func FuzzRecordDecode(f *testing.F) {
	for _, r := range columnarCorpus() {
		b, _ := AppendRecordJSON(nil, r)
		f.Add(b)
	}
	f.Add([]byte(`{"noc_saturation":"+Inf","ber":"NaN","spec":{"BoardEdgeM":"-Inf","power":{"max_tx_power_dbm":"+Inf"}}}`))
	f.Add([]byte(` {"INDEX": 3, "label": "\u00e9\ud800", "spec": null, "ber": 1E-400, "extra": [1, {"a": null}]} `))
	f.Add([]byte(`{"ber":"Inf"}`))
	f.Add([]byte(`{"ber":"NaN","tx_power_dbm":null,"spec":{"traffic":null,"power":{"max_tx_power_dbm":null}}}`))
	f.Add([]byte(`{"label":"NaN\"Inf\"","ber":2}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Record
		if json.Unmarshal(data, &r) != nil {
			return
		}
		enc, _ := AppendRecordJSON(nil, r)
		var back Record
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("accepted %q, but its encoding %s does not decode: %v", data, enc, err)
		}
		if again, _ := AppendRecordJSON(nil, back); !bytes.Equal(again, enc) {
			t.Fatalf("accepted %q: re-encoding changed\n got %s\nwant %s", data, again, enc)
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

// BenchmarkRecordsDecode decodes a chunk-completion body of 8
// paper-baseline records the way sweepd reads one: encoding/json into
// a []Record, each element through Record.UnmarshalJSON.
func BenchmarkRecordsDecode(b *testing.B) {
	sc, err := Get("paper-baseline")
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(context.Background(), sc, Config{Seed: 1, Budget: AnalyticBudget()})
	if err != nil {
		b.Fatal(err)
	}
	body := append([]byte(`{"records":`), AppendRecordsJSON(nil, res.Records[:8])...)
	body = append(body, '}')
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req struct {
			Records []Record `json:"records"`
		}
		if err := json.Unmarshal(body, &req); err != nil || len(req.Records) != 8 {
			b.Fatalf("decoded %d records: %v", len(req.Records), err)
		}
	}
}
