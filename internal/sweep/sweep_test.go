package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedAndComplete(t *testing.T) {
	got, err := Map(context.Background(), 100, 7, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 0, 4, func(i int) int {
		t.Error("fn called for an empty grid")
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty Map returned %d slots", len(got))
	}
}

func TestMapMoreWorkersThanPoints(t *testing.T) {
	got, err := Map(context.Background(), 3, 64, func(i int) int { return i + 1 })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("slot %d holds %d, want %d", i, v, i+1)
		}
	}
}

func TestMapPanicPropagatesWithoutDeadlock(t *testing.T) {
	// A panicking fn must not strand the other workers or hang the
	// caller; the original panic value must resurface on this goroutine.
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Map(context.Background(), 100, 4, func(i int) int {
			if i == 13 {
				panic("boom at point 13")
			}
			return i
		})
		done <- nil
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("panicking Map returned normally")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("repanic value is %T, want *PanicError", r)
		}
		if pe.Value != "boom at point 13" {
			t.Fatalf("repanic lost the original value: %v", pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "worker stack") {
			t.Fatalf("repanic lost the worker stack: %.80s", pe.Error())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Map deadlocked after a worker panic")
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(ctx, 1000, 2, func(i int) int {
		if ran.Add(1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i
	})
	if err == nil {
		t.Fatal("cancelled Map returned nil error")
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the sweep (%d points ran)", n)
	}
}

func TestRegistryHasCatalog(t *testing.T) {
	for _, name := range []string{
		"paper-baseline", "dense-rack", "embedded-box", "manycore", "butler-vs-steered",
	} {
		sc, err := Get(name)
		if err != nil {
			t.Fatalf("catalog scenario %q missing: %v", name, err)
		}
		pts := sc.Points()
		if len(pts) == 0 {
			t.Fatalf("%q generates no points", name)
		}
		for i, p := range pts {
			if p.Index != i {
				t.Errorf("%q point %d numbered %d", name, i, p.Index)
			}
			if p.Label == "" {
				t.Errorf("%q point %d has no label", name, i)
			}
		}
	}
	if _, err := Get("no-such-scenario"); err == nil {
		t.Error("unknown scenario did not error")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// A grid with full Monte-Carlo coverage and shared sub-models: both
	// the BER stage and the adaptive NoC replication controller must
	// land on the same records for any worker count.
	render := func(workers int) string {
		res, err := Run(context.Background(), shareScenario(), Config{Workers: workers, Seed: 42, Budget: shareBudget()})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(1)
	for _, workers := range []int{2, 8} {
		if render(workers) != want {
			t.Errorf("workers=%d: sweep output differs from workers=1", workers)
		}
	}
}

func TestRunSeedChangesMonteCarloOnly(t *testing.T) {
	sc, err := Get("butler-vs-steered")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) *Result {
		res, err := Run(context.Background(), sc, Config{Seed: seed, Budget: AnalyticBudget()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	for i := range a.Records {
		if a.Records[i].TxPowerDBm != b.Records[i].TxPowerDBm {
			t.Errorf("analytic TX power depends on the seed at point %d", i)
		}
	}
}

func TestEvaluateParetoObjectivesPopulated(t *testing.T) {
	sc, err := Get("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sc, Config{Seed: 7, Budget: AnalyticBudget()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ParetoIndices) == 0 {
		t.Fatal("empty Pareto front")
	}
	for _, i := range res.ParetoIndices {
		r := res.Records[i]
		if !r.Pareto {
			t.Errorf("front index %d not flagged", i)
		}
		if r.TxPowerDBm == 0 || r.DecodeLatencyBits == 0 || r.NoCSaturation == 0 {
			t.Errorf("record %d objectives not populated: %+v", i, r)
		}
	}
	// The Butler points need more TX power than their steered twins, so
	// at equal latency the steered twin must dominate the Butler one out
	// of the front unless some other objective differs — here none does,
	// so no Butler point may be on the front.
	for _, i := range res.ParetoIndices {
		if res.Records[i].Spec.Butler {
			t.Errorf("dominated butler point %d on the front", i)
		}
	}
}

func TestMarkParetoDominance(t *testing.T) {
	recs := []Record{
		{TxPowerDBm: 10, DecodeLatencyBits: 200, NoCSaturation: 0.5},
		{TxPowerDBm: 11, DecodeLatencyBits: 200, NoCSaturation: 0.5}, // dominated
		{TxPowerDBm: 10, DecodeLatencyBits: 100, NoCSaturation: 0.4}, // trade
		{Err: "infeasible", TxPowerDBm: 0, DecodeLatencyBits: 0},     // excluded
	}
	front := Pareto{}.Mark(recs)
	want := []int{0, 2}
	if len(front) != len(want) || front[0] != want[0] || front[1] != want[1] {
		t.Fatalf("front = %v, want %v", front, want)
	}
	if recs[1].Pareto || recs[3].Pareto {
		t.Error("dominated or infeasible record flagged")
	}
}

// TestMarkParetoEdgeCases pins the front membership of the awkward
// records a sweep (or the adaptive optimizer) can produce: infeasible
// points with zeroed metrics, NaN metrics out of a degenerate model,
// and exact ties. Whatever one thinks each case *should* do, the
// answer must be deterministic — optimizer clients and the result
// store compare fronts byte for byte.
func TestMarkParetoEdgeCases(t *testing.T) {
	nan := math.NaN()
	recs := []Record{
		{TxPowerDBm: 1, DecodeLatencyBits: 100, NoCSaturation: 0.5},   // 0: anchor
		{TxPowerDBm: 2, DecodeLatencyBits: 200, NoCSaturation: 0.4},   // 1: dominated by 0
		{TxPowerDBm: nan, DecodeLatencyBits: 100, NoCSaturation: 0.5}, // 2: NaN power
		{TxPowerDBm: 1, DecodeLatencyBits: 100, NoCSaturation: 0.5},   // 3: exact tie with 0
		{Err: "rejected", TxPowerDBm: 0, DecodeLatencyBits: 0},        // 4: infeasible, zero metrics
		{TxPowerDBm: nan, DecodeLatencyBits: nan, NoCSaturation: nan}, // 5: all NaN
		{Err: "rejected", TxPowerDBm: nan, DecodeLatencyBits: nan},    // 6: infeasible and NaN
	}

	// The cost rule makes a NaN metric +Inf, the worst value on its
	// axis: record 0 matches record 2 on latency and saturation and
	// beats its NaN power, and beats the all-NaN record 5 everywhere,
	// so neither joins the front. Exact ties (0 and 3) never dominate
	// each other, so both stay. Infeasible records stay out no matter
	// how seductive their zeroed or NaN metrics look.
	want := []int{0, 3}
	for trial := 0; trial < 3; trial++ {
		front := Pareto{}.Mark(recs)
		if len(front) != len(want) {
			t.Fatalf("trial %d: front = %v, want %v", trial, front, want)
		}
		for i := range want {
			if front[i] != want[i] {
				t.Fatalf("trial %d: front = %v, want %v", trial, front, want)
			}
		}
		for i, rec := range recs {
			onFront := false
			for _, f := range front {
				if f == i {
					onFront = true
				}
			}
			if rec.Pareto != onFront {
				t.Fatalf("record %d Pareto=%v, front membership=%v", i, rec.Pareto, onFront)
			}
		}
	}
	if recs[4].Pareto || recs[6].Pareto {
		t.Error("infeasible record flagged Pareto")
	}
}

func TestAdaptiveMeanStopsEarlyOnTightCI(t *testing.T) {
	// Constant samples: CI collapses immediately after minN.
	est := AdaptiveMean(3, 1000, 0.01, func(i int) float64 { return 5 })
	if est.N() != 3 {
		t.Errorf("constant stream ran %d samples, want 3", est.N())
	}
	if est.Mean() != 5 {
		t.Errorf("mean = %g", est.Mean())
	}
	// Alternating samples: wide CI forces the full budget.
	est = AdaptiveMean(2, 50, 0.001, func(i int) float64 { return float64(i % 2) })
	if est.N() != 50 {
		t.Errorf("noisy stream stopped at %d samples, want 50", est.N())
	}
	if hw := est.HalfWidth95(); math.IsInf(hw, 0) || hw <= 0 {
		t.Errorf("half-width = %g", hw)
	}
}

func TestWriteCSVShape(t *testing.T) {
	recs := []Record{{Scenario: "s", Index: 0, Label: "l", TxPowerDBm: 1.5, Topology: "2D mesh 2x2"}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want 2", len(lines))
	}
	if n, m := len(strings.Split(lines[0], ",")), len(strings.Split(lines[1], ",")); n != m {
		t.Errorf("header has %d columns, row has %d", n, m)
	}
}

// TestWriteCSVRejectsHeaderDrift proves the guard that keeps header
// and rows in lock-step: extend the header without teaching row
// emission about the new column (exactly what adding an optimizer
// field forgetfully would do) and the write must fail instead of
// silently skewing every column after the drift.
func TestWriteCSVRejectsHeaderDrift(t *testing.T) {
	old := csvHeader
	csvHeader = append(append([]string{}, csvHeader...), "drifted_column")
	defer func() { csvHeader = old }()
	err := WriteCSV(io.Discard, []Record{{Scenario: "s"}})
	if err == nil {
		t.Fatal("WriteCSV emitted rows narrower than the header")
	}
	if !strings.Contains(err.Error(), "header") {
		t.Fatalf("drift error does not explain itself: %v", err)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	// Smoke budget exercises every Record field, including the
	// Monte-Carlo ones with awkward floats.
	sc, err := Get("butler-vs-steered")
	if err != nil {
		t.Fatal(err)
	}
	budget := SmokeBudget()
	budget.BERMaxCodewords = 64
	budget.NoCMeasureCycles = 400
	res, err := Run(context.Background(), sc, Config{Seed: 9, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON output did not re-parse: %v", err)
	}
	if len(back.Records) != len(res.Records) {
		t.Fatalf("round trip kept %d of %d records", len(back.Records), len(res.Records))
	}
	for i := range res.Records {
		if back.Records[i] != res.Records[i] {
			t.Fatalf("record %d changed across the round trip:\n got %+v\nwant %+v",
				i, back.Records[i], res.Records[i])
		}
	}
	// Serializing the re-parsed result must reproduce the bytes: the
	// emitter's float formatting round-trips exactly.
	var again bytes.Buffer
	if err := WriteJSON(&again, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("re-serialized result is not byte-identical")
	}
}

func TestWriteCSVQuotesCommaLabels(t *testing.T) {
	recs := []Record{
		{Scenario: "s", Index: 0, Label: `lat=100, butler="true"`, Topology: "mesh, folded"},
		{Scenario: "s", Index: 1, Label: "plain"},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("CSV with comma labels did not re-parse: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("CSV has %d rows, want header + 2", len(rows))
	}
	for i, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			t.Fatalf("row %d has %d fields, header has %d", i, len(row), len(rows[0]))
		}
	}
	if got := rows[1][2]; got != `lat=100, butler="true"` {
		t.Errorf("comma label round-tripped as %q", got)
	}
	if got := rows[1][17]; got != "mesh, folded" {
		t.Errorf("comma topology round-tripped as %q", got)
	}
}

func TestBudgetParsing(t *testing.T) {
	for s, want := range map[string]string{
		"analytic": "analytic", "": "analytic", "smoke": "smoke", "standard": "standard",
	} {
		b, err := ParseBudget(s)
		if err != nil || b.Name != want {
			t.Errorf("ParseBudget(%q) = %q, %v", s, b.Name, err)
		}
	}
	if _, err := ParseBudget("bogus"); err == nil {
		t.Error("bogus budget accepted")
	}
}
