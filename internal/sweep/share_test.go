package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/rng"
)

// shareScenario is eight points over two codes and two stack loads,
// each code and each load used by four points. Latency budgets 100 and
// 150 bits choose (25, 4) and (25, 6): codes that differ only in their
// window.
func shareScenario() Scenario {
	return Scenario{
		Name: "test-share",
		Points: func() []Point {
			var g grid
			for _, lat := range []int{100, 150} {
				for _, butler := range []bool{true, false} {
					for _, inj := range []float64{0.05, 0.1} {
						spec := core.DefaultSpec()
						spec.LatencyBudgetBits = lat
						spec.Butler = butler
						spec.StackModules = 16
						spec.StackInjectionRate = inj
						g.add(fmt.Sprintf("lat=%d butler=%t inj=%g", lat, butler, inj), spec)
					}
				}
			}
			return g.pts
		},
	}
}

// shareBudget is the smoke budget's shape with fewer codewords,
// iterations and cycles, so the race detector's runs stay short.
func shareBudget() Budget {
	b := SmokeBudget()
	b.BERMaxCodewords = 64
	b.BERMaxIter = 10
	b.TermLength = 10
	b.NoCMeasureCycles = 400
	return b
}

// TestEvaluateMatchesEvaluatePoints: the unshared single-point
// Evaluate, handed the job's root stream, gives each point the record
// EvaluatePoints gives it while sharing sub-models across the grid.
func TestEvaluateMatchesEvaluatePoints(t *testing.T) {
	sc, b := shareScenario(), shareBudget()
	const seed = 42
	pts := sc.Points()
	shared, _, err := EvaluatePoints(context.Background(), sc.Name, pts, Config{Workers: 2, Seed: seed, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		got, _ := json.Marshal(Evaluate(sc.Name, pt, rng.New(seed), b))
		want, _ := json.Marshal(shared[i])
		if string(got) != string(want) {
			t.Errorf("Evaluate(point %d) = %s, EvaluatePoints gave %s", i, got, want)
		}
	}
}

// mapCache is a concurrency-safe in-memory Cache.
type mapCache struct {
	mu   sync.Mutex
	recs map[string]Record
}

func (c *mapCache) Get(key string) (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.recs[key]
	return rec, ok
}

func (c *mapCache) Put(key string, rec Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs[key] = rec
}

// TestSubModelPointsFinished: a point whose records wait for shared
// sub-models is still stored and reported exactly once, with its
// sub-model fields filled, so a second call is all cache hits.
func TestSubModelPointsFinished(t *testing.T) {
	sc, b := shareScenario(), shareBudget()
	pts := sc.Points()
	cache := &mapCache{recs: map[string]Record{}}
	var mu sync.Mutex
	reported := map[int]int{}
	cfg := Config{Workers: 2, Seed: 9, Budget: b, Cache: cache, OnPoint: func(i int, cached bool) {
		mu.Lock()
		defer mu.Unlock()
		if !cached {
			reported[i]++
		}
	}}
	recs, cached, err := EvaluatePoints(context.Background(), sc.Name, pts, cfg)
	if err != nil || cached != 0 {
		t.Fatalf("cold call: %d cached, err %v", cached, err)
	}
	keyer := NewKeyer(sc.Name, b, cfg.Seed)
	for i, pt := range pts {
		if reported[pt.Index] != 1 {
			t.Errorf("point %d reported %d times, want once", pt.Index, reported[pt.Index])
		}
		stored, ok := cache.Get(keyer.Key(pt))
		if !ok || stored.BER == 0 || stored.SimLatencyCycles == 0 || stored.BER != recs[i].BER {
			t.Errorf("point %d stored %+v (present %t), returned BER %g", pt.Index, stored, ok, recs[i].BER)
		}
	}
	again, cached, err := EvaluatePoints(context.Background(), sc.Name, pts, cfg)
	if err != nil || cached != len(pts) {
		t.Fatalf("warm call: %d of %d cached, err %v", cached, len(pts), err)
	}
	for i := range again {
		if again[i].BER != recs[i].BER || again[i].SimLatencyCycles != recs[i].SimLatencyCycles {
			t.Errorf("point %d: warm record differs from the cold one", i)
		}
	}
}

// TestSubModelsShared: points that share a code share its BER, points
// that share a stack load share its simulated latency, and distinct
// sub-models — including codes that differ only in window — measure
// apart.
func TestSubModelsShared(t *testing.T) {
	res, err := Run(context.Background(), shareScenario(), Config{Workers: 2, Seed: 5, Budget: shareBudget()})
	if err != nil {
		t.Fatal(err)
	}
	type ber struct {
		ber       float64
		codewords int
	}
	type simLat struct {
		mean, ci float64
		reps     int
	}
	bers := map[[2]int]ber{}
	sims := map[float64]simLat{}
	for _, r := range res.Records {
		if r.Err != "" {
			t.Fatalf("point %d: %s", r.Index, r.Err)
		}
		if r.BER == 0 || r.SimLatencyCycles == 0 {
			t.Fatalf("point %d: BER %g, simulated latency %g; the test needs both nonzero", r.Index, r.BER, r.SimLatencyCycles)
		}
		code := [2]int{r.CodeLifting, r.CodeWindow}
		got := ber{r.BER, r.BERCodewords}
		if have, ok := bers[code]; ok && have != got {
			t.Errorf("code %v: point %d reads %+v, an earlier point %+v", code, r.Index, got, have)
		}
		bers[code] = got
		lat := simLat{r.SimLatencyCycles, r.SimLatencyCI95, r.SimReplications}
		inj := r.Spec.StackInjectionRate
		if have, ok := sims[inj]; ok && have != lat {
			t.Errorf("load %g: point %d reads %+v, an earlier point %+v", inj, r.Index, lat, have)
		}
		sims[inj] = lat
	}
	if len(bers) != 2 || bers[[2]int{25, 4}].ber == bers[[2]int{25, 6}].ber {
		t.Errorf("BER by code = %v, want (25, 4) and (25, 6) measured apart", bers)
	}
	if len(sims) != 2 || sims[0.05].mean == sims[0.1].mean {
		t.Errorf("simulated latency by load = %v, want two loads measured apart", sims)
	}
}

// TestSubModelSeedFromJobSeed: the job seed still roots every
// sub-model, so a new seed draws a new BER sample.
func TestSubModelSeedFromJobSeed(t *testing.T) {
	run := func(seed uint64) *Result {
		res, err := Run(context.Background(), shareScenario(), Config{Workers: 2, Seed: seed, Budget: shareBudget()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	for i := range a.Records {
		if a.Records[i].BER == b.Records[i].BER {
			t.Errorf("point %d: seeds 1 and 2 read the same BER %g", i, a.Records[i].BER)
		}
	}
}

// TestSubModelKeysCoverInputs: changing any input a sub-model's result
// depends on changes its key, so no two different simulations are ever
// shared, and equal inputs give equal keys.
func TestSubModelKeysCoverInputs(t *testing.T) {
	code := core.CodePlan{Lifting: 25, Window: 4, Rate: 0.5}
	b := SmokeBudget()
	berKey := func(c core.CodePlan, b Budget) string { return newBERModel(c, b).key() }
	base := berKey(code, b)
	if berKey(code, b) != base {
		t.Fatal("BER key is not a function of its inputs")
	}
	codeMut := map[string]func(*core.CodePlan){
		"lifting": func(c *core.CodePlan) { c.Lifting = 40 },
		"window":  func(c *core.CodePlan) { c.Window = 6 },
		"rate":    func(c *core.CodePlan) { c.Rate = 0.75 },
	}
	for name, mut := range codeMut {
		c := code
		mut(&c)
		if berKey(c, b) == base {
			t.Errorf("BER key ignores the code's %s", name)
		}
	}
	budgetMut := map[string]func(*Budget){
		"eb/n0":         func(b *Budget) { b.BEREbN0DB = 2.5 },
		"max iter":      func(b *Budget) { b.BERMaxIter = 21 },
		"term length":   func(b *Budget) { b.TermLength = 17 },
		"rel CI":        func(b *Budget) { b.BERRelCI = 0.2 },
		"max codewords": func(b *Budget) { b.BERMaxCodewords = 257 },
	}
	for name, mut := range budgetMut {
		bb := b
		mut(&bb)
		if berKey(code, bb) == base {
			t.Errorf("BER key ignores the budget's %s", name)
		}
	}

	spec := core.DefaultSpec()
	spec.StackModules = 16
	spec.Traffic = &core.TrafficSpec{Pattern: core.TrafficHotspot, HotspotModule: 1, HotspotFraction: 0.25}
	topo := noc.NewMesh2D(4, 4)
	nocKey := func(topo *noc.Mesh, s core.SystemSpec, b Budget) string { return newNoCModel(topo, s, b).key() }
	nbase := nocKey(topo, spec, b)
	if nocKey(noc.NewMesh2D(4, 4), spec, b) != nbase {
		t.Fatal("NoC key is not a function of its inputs")
	}
	if nocKey(noc.NewMesh3D(2, 2, 4), spec, b) == nbase {
		t.Error("NoC key ignores the topology")
	}
	specMut := map[string]func(*core.SystemSpec){
		"modules": func(s *core.SystemSpec) { s.StackModules = 15 },
		"pattern": func(s *core.SystemSpec) { s.Traffic = &core.TrafficSpec{Pattern: core.TrafficBitComplement} },
		"hotspot module": func(s *core.SystemSpec) {
			s.Traffic = &core.TrafficSpec{Pattern: core.TrafficHotspot, HotspotModule: 2, HotspotFraction: 0.25}
		},
		"hotspot fraction": func(s *core.SystemSpec) {
			s.Traffic = &core.TrafficSpec{Pattern: core.TrafficHotspot, HotspotModule: 1, HotspotFraction: 0.251}
		},
		"injection rate": func(s *core.SystemSpec) { s.StackInjectionRate *= 1.5 },
	}
	for name, mut := range specMut {
		s := spec
		mut(&s)
		if nocKey(topo, s, b) == nbase {
			t.Errorf("NoC key ignores the spec's %s", name)
		}
	}
	nocBudgetMut := map[string]func(*Budget){
		"min reps":       func(b *Budget) { b.NoCMinReps = 3 },
		"max reps":       func(b *Budget) { b.NoCMaxReps = 5 },
		"rel CI":         func(b *Budget) { b.NoCRelCI = 0.04 },
		"measure cycles": func(b *Budget) { b.NoCMeasureCycles = 2001 },
	}
	for name, mut := range nocBudgetMut {
		bb := b
		mut(&bb)
		if nocKey(topo, spec, bb) == nbase {
			t.Errorf("NoC key ignores the budget's %s", name)
		}
	}
	// A spec without a traffic section plans uniform traffic, and keys
	// like one that names it.
	uni := spec
	uni.Traffic = nil
	named := spec
	named.Traffic = &core.TrafficSpec{Pattern: core.TrafficUniform}
	if nocKey(topo, uni, b) != nocKey(topo, named, b) {
		t.Error("an absent traffic section and an explicit uniform one key apart")
	}
}
