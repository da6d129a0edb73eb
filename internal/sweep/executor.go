package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Map evaluates fn(i) for every i in [0, n) on a bounded pool of worker
// goroutines and returns the results in index order. The output is
// independent of the worker count and of goroutine scheduling: result i
// always lands in slot i, and fn receives nothing but the index, so any
// randomness must come from per-index streams (rng.Stream.Split).
//
// Map stops handing out new indices once ctx is cancelled and returns
// ctx.Err() alongside the partial results (slots never reached hold the
// zero value of T). workers <= 0 selects runtime.NumCPU().
//
// A panic inside fn does not deadlock the pool: the remaining workers
// drain, and the first panic is re-raised on the caller's goroutine as
// a *PanicError carrying the original value and the worker's stack.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) T) ([]T, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicMu  sync.Mutex
		panicVal any
		panicStk []byte
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
						panicStk = debug.Stack()
					}
					panicMu.Unlock()
					panicked.Store(true)
				}
			}()
			for {
				if ctx.Err() != nil || panicked.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(&PanicError{Value: panicVal, Stack: panicStk})
	}
	return out, ctx.Err()
}

// PanicError is what Map re-panics with after a worker panic: the
// original value survives for callers that recover and inspect it, and
// the worker's stack survives for the crash report.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep.Map: fn panicked: %v\n\nworker stack:\n%s", e.Value, e.Stack)
}

// Cache is the executor's per-point read-through hook. Get returns the
// record previously stored under a PointKey; Put stores a freshly
// evaluated one. Both must be safe for concurrent use — the executor
// calls them from every worker. Records pass through a Cache before
// Pareto marking, so implementations see Pareto: false on every record.
type Cache interface {
	Get(key string) (Record, bool)
	Put(key string, rec Record)
}

// Config parameterises a scenario sweep.
type Config struct {
	// Workers bounds the pool (0 = runtime.NumCPU()). The records are
	// identical for every value.
	Workers int
	// Seed is the root of the deterministic sub-model streams.
	Seed uint64
	// Budget controls the Monte-Carlo effort spent per point.
	Budget Budget
	// Cache, when non-nil, is consulted before evaluating each point
	// and filled after: rerunning a scenario reuses every point whose
	// key (scenario, point, budget, seed, engine version) is present.
	Cache Cache
	// OnPoint, when non-nil, is called once per finished point with the
	// point's own Index (the grid index for scenario sweeps, the global
	// evaluation index for optimizer generations) and whether it was
	// served from the Cache. It runs on worker goroutines and must be
	// safe for concurrent use.
	OnPoint func(index int, cached bool)
	// Feasible, when non-nil, is the user-spec constraint predicate:
	// records failing it are excluded from Pareto marking (they neither
	// join nor dominate the front). It never changes record bytes or
	// cache keys.
	Feasible func(Record) bool
}

// Result is the structured outcome of one scenario sweep.
type Result struct {
	Scenario    string   `json:"scenario"`
	Description string   `json:"description"`
	Seed        uint64   `json:"seed"`
	Budget      string   `json:"budget"`
	Records     []Record `json:"records"`
	// ParetoIndices lists the records on the Pareto front over
	// (TxPowerDBm min, DecodeLatencyBits min, NoCSaturation max), in
	// record order. The same records carry Pareto: true.
	ParetoIndices []int `json:"pareto_indices"`
	// CachedPoints and ComputedPoints split the grid by how each record
	// was obtained (cache hit versus fresh evaluation); they sum to
	// len(Records). Without a Cache every point counts as computed.
	CachedPoints   int `json:"cached_points"`
	ComputedPoints int `json:"computed_points"`
}

// Run evaluates the scenario's grid through EvaluatePoints and
// extracts the Pareto front.
func Run(ctx context.Context, sc Scenario, cfg Config) (*Result, error) {
	pts := sc.Points()
	if len(pts) == 0 {
		return nil, fmt.Errorf("sweep: scenario %q generates no points", sc.Name)
	}
	recs, cached, err := EvaluatePoints(ctx, sc.Name, pts, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Scenario:       sc.Name,
		Description:    sc.Description,
		Seed:           cfg.Seed,
		Budget:         cfg.Budget.Name,
		Records:        recs,
		CachedPoints:   cached,
		ComputedPoints: len(recs) - cached,
	}
	res.ParetoIndices = MarkParetoFeasible(res.Records, cfg.Feasible)
	return res, nil
}

// EvaluatePoints evaluates an arbitrary list of design points — a
// scenario's grid for Run, or any slice of points — through the
// parallel executor, reading through cfg.Cache and reporting to
// cfg.OnPoint. It returns the records in slice order plus how many
// were served from cfg.Cache.
//
// The call runs in phases: a cache pre-pass and core.DesignSystem on
// every uncached point; then, under a Monte-Carlo budget, each distinct
// sub-model of the designed points (a code's BER, a stack's simulated
// latency) once, in parallel through Map, every point that shares it
// getting the same result; its points are stored and reported once all
// sub-models are done. A sub-model draws only from
// rng.New(cfg.Seed).Split(hash of its content key), never from a
// point's index, so a record is a pure function of (seed, point,
// budget): callers that partition a list any way (the fleet's chunks,
// the optimizer's generations) get worker-count-independent,
// byte-identical records, exactly like a single Run. scenario names
// the point family in records and cache keys; optimizer evaluations use
// "optimize/<space>" so they never collide with grid scenarios.
func EvaluatePoints(ctx context.Context, scenario string, pts []Point, cfg Config) ([]Record, int, error) {
	var keyer *Keyer
	if cfg.Cache != nil {
		// One keyer per evaluation context: the envelope's constant
		// segments render once instead of once per point.
		keyer = NewKeyer(scenario, cfg.Budget, cfg.Seed)
	}
	finish := func(key string, rec Record) {
		if cfg.Cache != nil {
			cfg.Cache.Put(key, rec)
		}
		if cfg.OnPoint != nil {
			cfg.OnPoint(rec.Index, false)
		}
	}
	// Only a Monte-Carlo budget defers points to the sub-model phase;
	// the analytic path allocates nothing for it.
	var pending [][]subModel
	var keys []string
	if cfg.Budget.BERSim || cfg.Budget.NoCSim {
		pending = make([][]subModel, len(pts))
		keys = make([]string, len(pts))
	}
	var cached atomic.Int64
	recs, err := Map(ctx, len(pts), cfg.Workers, func(i int) Record {
		var key string
		if cfg.Cache != nil {
			key = keyer.Key(pts[i])
			if rec, ok := cfg.Cache.Get(key); ok {
				cached.Add(1)
				// The front is a property of the sweep, not the point;
				// whoever merges the records recomputes it whatever the
				// stored flag says.
				rec.Pareto = false
				if cfg.OnPoint != nil {
					cfg.OnPoint(pts[i].Index, true)
				}
				return rec
			}
		}
		rec, des := designRecord(scenario, pts[i])
		if pending != nil && des != nil {
			pending[i], keys[i] = pointModels(des, pts[i].Spec, cfg.Budget), key
			return rec
		}
		finish(key, rec)
		return rec
	})
	if err != nil || pending == nil {
		return recs, int(cached.Load()), err
	}
	if err := runModels(ctx, pending, recs, cfg); err != nil {
		return recs, int(cached.Load()), err
	}
	for i, ms := range pending {
		if ms != nil {
			finish(keys[i], recs[i])
		}
	}
	return recs, int(cached.Load()), nil
}

// runModels runs each distinct sub-model of the pending points once
// and applies its result to every record that uses it. Sub-models are
// listed in first-use order, so the work handed to Map is
// deterministic; the results do not depend on that order anyway.
func runModels(ctx context.Context, pending [][]subModel, recs []Record, cfg Config) error {
	var (
		models []subModel
		users  [][]int
		index  = map[string]int{}
	)
	for i, ms := range pending {
		for _, m := range ms {
			k, ok := index[m.key()]
			if !ok {
				k = len(models)
				index[m.key()] = k
				models = append(models, m)
				users = append(users, nil)
			}
			users[k] = append(users[k], i)
		}
	}
	root := rng.New(cfg.Seed)
	_, err := Map(ctx, len(models), cfg.Workers, func(k int) struct{} {
		m := models[k]
		m.run(modelStream(root, m.key()), cfg.Budget)
		// A point's sub-models write disjoint record fields.
		for _, i := range users[k] {
			m.apply(&recs[i], cfg.Budget)
		}
		return struct{}{}
	})
	return err
}
