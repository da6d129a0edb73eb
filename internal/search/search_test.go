package search

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

func TestParamDecode(t *testing.T) {
	cont := Param{Name: "c", Kind: Continuous, Min: 1, Max: 3}
	integer := Param{Name: "i", Kind: Integer, Min: 2, Max: 9}
	boolean := Param{Name: "b", Kind: Bool, Min: 0, Max: 1}
	cases := []struct {
		p    Param
		in   float64
		want float64
	}{
		{cont, 2.5, 2.5},
		{cont, -10, 1}, // clamp low
		{cont, 100, 3}, // clamp high
		{cont, math.NaN(), 1},
		{integer, 4.4, 4},
		{integer, 4.6, 5},
		{integer, 100, 9},
		{boolean, 0.49, 0},
		{boolean, 0.5, 1},
		{boolean, 2, 1},
	}
	for _, c := range cases {
		if got := c.p.Decode(c.in); got != c.want {
			t.Errorf("%s.Decode(%v) = %v, want %v", c.p.Name, c.in, got, c.want)
		}
	}
}

func TestRegistryMirrorsScenariosPlusFullDesign(t *testing.T) {
	// Every registered grid scenario has a same-named search space, and
	// the wide full-design space exists on top.
	names := map[string]bool{}
	for _, n := range Names() {
		names[n] = true
	}
	for _, sc := range sweep.Names() {
		if !names[sc] {
			t.Errorf("scenario %q has no mirroring search space", sc)
		}
	}
	if !names["full-design"] {
		t.Error("full-design space missing")
	}
}

func TestSpaceCornersDecodeToValidSpecs(t *testing.T) {
	// Both corners of every space's box must pass SystemSpec validation:
	// the optimizer may propose any point in between, and a spec-level
	// rejection there would be a bounds bug, not a design trade-off.
	for _, name := range Names() {
		sp, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		lo := make([]float64, len(sp.Params))
		hi := make([]float64, len(sp.Params))
		for i, p := range sp.Params {
			lo[i], hi[i] = p.Min, p.Max
		}
		for _, genome := range [][]float64{lo, hi} {
			spec := sp.Decode(genome)
			if err := spec.Validate(); err != nil {
				t.Errorf("space %q corner %v decodes to invalid spec: %v", name, genome, err)
			}
		}
	}
}

func TestGetUnknownSpace(t *testing.T) {
	if _, err := Get("no-such-space"); err == nil {
		t.Fatal("Get(no-such-space) did not fail")
	}
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 || objs[0].Name != "tx-power" {
		t.Fatalf("default objectives = %v", objectiveNames(objs))
	}
	if _, err := ParseObjectives([]string{"tx-power", "warp-drive"}); err == nil {
		t.Error("unknown objective accepted")
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
	if objs[0].Name != "noc-latency" || !objs[1].Maximize {
		t.Fatalf("normalised parse = %+v", objs)
	}
}

// mkIndiv builds a feasible individual with the given cost vector.
func mkIndiv(idx int, cost ...float64) *indiv {
	return &indiv{cost: cost, feasible: true, idx: idx}
}

func TestDominatesConstrained(t *testing.T) {
	feasible := mkIndiv(0, 1, 1)
	worse := mkIndiv(1, 2, 2)
	tied := mkIndiv(2, 1, 1)
	infeasible := &indiv{cost: []float64{math.Inf(1), math.Inf(1)}, idx: 3}

	if !dominates(feasible, worse) {
		t.Error("strictly better point does not dominate")
	}
	if dominates(worse, feasible) {
		t.Error("strictly worse point dominates")
	}
	if dominates(feasible, tied) || dominates(tied, feasible) {
		t.Error("exact ties dominate each other")
	}
	if !dominates(feasible, infeasible) {
		t.Error("feasible does not dominate infeasible")
	}
	if dominates(infeasible, feasible) {
		t.Error("infeasible dominates feasible")
	}
	other := &indiv{cost: []float64{math.Inf(1), math.Inf(1)}, idx: 4}
	if dominates(infeasible, other) || dominates(other, infeasible) {
		t.Error("two infeasible points dominate each other")
	}
}

func TestSortFrontsAndCrowding(t *testing.T) {
	// Two clear fronts: {0,1} trade off against each other, {2} is
	// dominated by both.
	a := mkIndiv(0, 1, 3)
	b := mkIndiv(1, 3, 1)
	c := mkIndiv(2, 4, 4)
	fronts := sortFronts([]*indiv{a, b, c})
	if len(fronts) != 2 || len(fronts[0]) != 2 || len(fronts[1]) != 1 {
		t.Fatalf("front sizes = %v", fronts)
	}
	if a.rank != 0 || b.rank != 0 || c.rank != 1 {
		t.Fatalf("ranks = %d %d %d", a.rank, b.rank, c.rank)
	}
	// Boundary individuals of a 3+ front get infinite crowding.
	d := mkIndiv(3, 2, 2)
	front := []*indiv{a, b, d}
	for _, ind := range front {
		ind.rank = 0
	}
	setCrowding(front)
	if !math.IsInf(a.crowd, 1) || !math.IsInf(b.crowd, 1) {
		t.Errorf("boundary crowding = %v, %v", a.crowd, b.crowd)
	}
	if math.IsInf(d.crowd, 1) || d.crowd <= 0 {
		t.Errorf("interior crowding = %v", d.crowd)
	}
}

func TestEnvironmentalSelectElitist(t *testing.T) {
	// Selection must keep every first-front member before any
	// second-front one.
	a := mkIndiv(0, 1, 3)
	b := mkIndiv(1, 3, 1)
	c := mkIndiv(2, 4, 4)
	d := mkIndiv(3, 5, 5)
	next := environmentalSelect([]*indiv{d, c, b, a}, 2)
	if len(next) != 2 {
		t.Fatalf("selected %d individuals", len(next))
	}
	got := map[int]bool{next[0].idx: true, next[1].idx: true}
	if !got[0] || !got[1] {
		t.Fatalf("selection kept %v, want the first front {0, 1}", got)
	}
}

func optsFor(t *testing.T, workers int) Options {
	t.Helper()
	sp, err := Get("butler-vs-steered")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Space:       sp,
		Seed:        7,
		Generations: 4,
		Population:  8,
		Workers:     workers,
	}
}

func TestOptimizeShape(t *testing.T) {
	res, err := Optimize(context.Background(), optsFor(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4*8 {
		t.Fatalf("evaluated %d records, want 32", len(res.Records))
	}
	if len(res.History) != 4 {
		t.Fatalf("history has %d generations, want 4", len(res.History))
	}
	if len(res.FrontIndices) == 0 {
		t.Fatal("empty final front")
	}
	for i, rec := range res.Records {
		if rec.Index != i {
			t.Fatalf("record %d carries global index %d", i, rec.Index)
		}
		if rec.Scenario != "optimize/butler-vs-steered" {
			t.Fatalf("record scenario = %q", rec.Scenario)
		}
	}
	onFront := map[int]bool{}
	for _, i := range res.FrontIndices {
		onFront[i] = true
	}
	for i, rec := range res.Records {
		if rec.Pareto != onFront[i] {
			t.Fatalf("record %d Pareto=%v but front membership=%v", i, rec.Pareto, onFront[i])
		}
	}
	if res.CachedPoints != 0 || res.ComputedPoints != 32 {
		t.Fatalf("cached/computed = %d/%d, want 0/32", res.CachedPoints, res.ComputedPoints)
	}
}

func TestOptimizeDeterministicAcrossWorkerCounts(t *testing.T) {
	// The acceptance bar: the same (space, objectives, seed,
	// generations, population) yields byte-identical results no matter
	// how the evaluation is parallelised.
	one, err := Optimize(context.Background(), optsFor(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Optimize(context.Background(), optsFor(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(many)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("1-worker and 16-worker runs differ byte-for-byte")
	}
}

func TestOptimizeSeedMatters(t *testing.T) {
	a, err := Optimize(context.Background(), optsFor(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	opts := optsFor(t, 0)
	opts.Seed = 8
	b, err := Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Records)
	jb, _ := json.Marshal(b.Records)
	if string(ja) == string(jb) {
		t.Fatal("different seeds evaluated identical individuals")
	}
}

func TestOptimizeWarmStoreRerunComputesNothing(t *testing.T) {
	// The second acceptance bar: a re-run against a warm store
	// re-evaluates zero points and still produces a byte-identical
	// front.
	dir := t.TempDir()
	run := func() *Result {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts := optsFor(t, 0)
		opts.Cache = st
		res, err := Optimize(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	if cold.ComputedPoints != len(cold.Records) || cold.CachedPoints != 0 {
		t.Fatalf("cold run cached/computed = %d/%d", cold.CachedPoints, cold.ComputedPoints)
	}
	warm := run()
	if warm.ComputedPoints != 0 || warm.CachedPoints != len(warm.Records) {
		t.Fatalf("warm run cached/computed = %d/%d, want %d/0",
			warm.CachedPoints, warm.ComputedPoints, len(warm.Records))
	}
	jc, _ := json.Marshal(cold.Front())
	jw, _ := json.Marshal(warm.Front())
	if string(jc) != string(jw) {
		t.Fatal("warm front differs from cold front byte-for-byte")
	}
}

func TestOptimizeOnGenerationStreamsInOrder(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	opts := optsFor(t, 0)
	opts.OnGeneration = func(g Generation) {
		mu.Lock()
		seen = append(seen, g.Gen)
		mu.Unlock()
	}
	res, err := Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.History) {
		t.Fatalf("OnGeneration fired %d times for %d generations", len(seen), len(res.History))
	}
	for i, g := range seen {
		if g != i {
			t.Fatalf("generation callbacks out of order: %v", seen)
		}
	}
	for i, g := range res.History {
		if g.Gen != i {
			t.Fatalf("history out of order at %d: %+v", i, g)
		}
		if g.Evaluated != 8 {
			t.Fatalf("generation %d evaluated %d points, want 8", i, g.Evaluated)
		}
		if g.FrontSize != len(g.Front) {
			t.Fatalf("generation %d front_size %d != len(front) %d", i, g.FrontSize, len(g.Front))
		}
	}
}

func TestOptimizeFrontNeverRegresses(t *testing.T) {
	// Elitism: the final front must be at least as good as generation
	// zero's on every objective's best value.
	res, err := Optimize(context.Background(), optsFor(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 || len(res.History[0].Best) == 0 {
		t.Fatal("no generation-zero best values")
	}
	last := res.History[len(res.History)-1]
	for k, first := range res.History[0].Best {
		lastBest := last.Best[k]
		if lastBest.Objective != first.Objective {
			t.Fatalf("objective order changed: %q vs %q", lastBest.Objective, first.Objective)
		}
		// All catalog objectives here are min (tx-power, decode-latency)
		// or max (noc-saturation); compare accordingly.
		maximize := first.Objective == "noc-saturation"
		if maximize && lastBest.Value < first.Value {
			t.Errorf("%s regressed: %g -> %g", first.Objective, first.Value, lastBest.Value)
		}
		if !maximize && lastBest.Value > first.Value {
			t.Errorf("%s regressed: %g -> %g", first.Objective, first.Value, lastBest.Value)
		}
	}
}

func TestOptimizeValidatesShape(t *testing.T) {
	base := optsFor(t, 0)
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"odd population", func(o *Options) { o.Population = 7 }},
		{"tiny population", func(o *Options) { o.Population = 2 }},
		{"negative generations", func(o *Options) { o.Generations = -1 }},
		{"empty space", func(o *Options) { o.Space = Space{} }},
	} {
		opts := base
		tc.mutate(&opts)
		if _, err := Optimize(context.Background(), opts); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestNormalizeCapsEvaluations pins the ceiling on one run's size
// without allocating it: Normalize (which the service calls at
// submission and Optimize before generation 0) rejects more than
// MaxEvaluations points, overflowing products included, and accepts
// exactly MaxEvaluations.
func TestNormalizeCapsEvaluations(t *testing.T) {
	for _, tc := range []struct{ gens, pop int }{
		{1, 1 << 30},
		{1 << 40, 4},
		{1, MaxEvaluations + 2},
		{2, MaxEvaluations/2 + 2},
		{1 << 62, 1 << 62},
	} {
		opts := optsFor(t, 0)
		opts.Generations, opts.Population = tc.gens, tc.pop
		err := opts.Normalize()
		if err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("%d generations x %d: error %v, want the evaluation cap", tc.gens, tc.pop, err)
		}
	}
	for _, tc := range []struct{ gens, pop int }{
		{1, MaxEvaluations},
		{MaxEvaluations / 4, 4},
		{256, 256},
	} {
		opts := optsFor(t, 0)
		opts.Generations, opts.Population = tc.gens, tc.pop
		if err := opts.Normalize(); err != nil {
			t.Errorf("%d generations x %d rejected: %v", tc.gens, tc.pop, err)
		}
	}
}

func TestOptimizeEvaluatorLengthMismatch(t *testing.T) {
	opts := optsFor(t, 0)
	opts.Evaluate = func(ctx context.Context, gen int, pts []sweep.Point) ([]sweep.Record, int, error) {
		return nil, 0, nil
	}
	if _, err := Optimize(context.Background(), opts); err == nil {
		t.Fatal("short evaluator result accepted")
	}
}

func TestOptimizeEvaluatorSeesGlobalIndices(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	opts := optsFor(t, 0)
	scenario := opts.Space.ScenarioName()
	cfg := sweep.Config{Seed: opts.Seed, Budget: sweep.AnalyticBudget()}
	opts.Evaluate = func(ctx context.Context, gen int, pts []sweep.Point) ([]sweep.Record, int, error) {
		mu.Lock()
		for i, pt := range pts {
			if pt.Index != gen*8+i {
				t.Errorf("generation %d point %d carries index %d", gen, i, pt.Index)
			}
			if seen[pt.Index] {
				t.Errorf("index %d evaluated twice", pt.Index)
			}
			seen[pt.Index] = true
		}
		mu.Unlock()
		return sweep.EvaluatePoints(ctx, scenario, pts, cfg)
	}
	if _, err := Optimize(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Optimize(ctx, optsFor(t, 0)); err == nil {
		t.Fatal("cancelled context did not abort the run")
	}
}

func ExampleOptimize() {
	sp, _ := Get("paper-baseline")
	res, _ := Optimize(context.Background(), Options{
		Space:       sp,
		Seed:        1,
		Generations: 3,
		Population:  8,
	})
	fmt.Printf("%s: %d evaluations, front of %d\n",
		res.Space, len(res.Records), len(res.FrontIndices))
	// Output: paper-baseline: 24 evaluations, front of 1
}
