package search_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/search"
	_ "repro/internal/spec" // registers the built-in spaces
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

func TestRegistryMirrorsScenariosPlusFullDesign(t *testing.T) {
	// Every registered grid scenario has a same-named search space, and
	// the wide full-design space exists on top.
	names := map[string]bool{}
	for _, n := range search.Names() {
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
	for _, name := range search.Names() {
		sp, err := search.Get(name)
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

func optsFor(t *testing.T, workers int) search.Options {
	t.Helper()
	sp, err := search.Get("butler-vs-steered")
	if err != nil {
		t.Fatal(err)
	}
	return search.Options{
		Space:       sp,
		Seed:        7,
		Generations: 4,
		Population:  8,
		Workers:     workers,
	}
}

func TestOptimizeShape(t *testing.T) {
	res, err := search.Optimize(context.Background(), optsFor(t, 0))
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
	one, err := search.Optimize(context.Background(), optsFor(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	many, err := search.Optimize(context.Background(), optsFor(t, 16))
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
	a, err := search.Optimize(context.Background(), optsFor(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	opts := optsFor(t, 0)
	opts.Seed = 8
	b, err := search.Optimize(context.Background(), opts)
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
	run := func() *search.Result {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts := optsFor(t, 0)
		opts.Cache = st
		res, err := search.Optimize(context.Background(), opts)
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
	opts.OnGeneration = func(g search.Generation) {
		mu.Lock()
		seen = append(seen, g.Gen)
		mu.Unlock()
	}
	res, err := search.Optimize(context.Background(), opts)
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
	res, err := search.Optimize(context.Background(), optsFor(t, 0))
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
		mutate func(*search.Options)
	}{
		{"odd population", func(o *search.Options) { o.Population = 7 }},
		{"tiny population", func(o *search.Options) { o.Population = 2 }},
		{"negative generations", func(o *search.Options) { o.Generations = -1 }},
		{"empty space", func(o *search.Options) { o.Space = search.Space{} }},
	} {
		opts := base
		tc.mutate(&opts)
		if _, err := search.Optimize(context.Background(), opts); err == nil {
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
		{1, search.MaxEvaluations + 2},
		{2, search.MaxEvaluations/2 + 2},
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
		{1, search.MaxEvaluations},
		{search.MaxEvaluations / 4, 4},
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
	if _, err := search.Optimize(context.Background(), opts); err == nil {
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
	if _, err := search.Optimize(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := search.Optimize(ctx, optsFor(t, 0)); err == nil {
		t.Fatal("cancelled context did not abort the run")
	}
}

func ExampleOptimize() {
	sp, _ := search.Get("paper-baseline")
	res, _ := search.Optimize(context.Background(), search.Options{
		Space:       sp,
		Seed:        1,
		Generations: 3,
		Population:  8,
	})
	fmt.Printf("%s: %d evaluations, front of %d\n",
		res.Space, len(res.Records), len(res.FrontIndices))
	// Output: paper-baseline: 24 evaluations, front of 1
}
