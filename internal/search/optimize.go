package search

import (
	"context"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sweep"
)

// gaSplitTag separates the genetic operators' random branch from the
// evaluator's: the GA root is rng.New(seed).Split(gaSplitTag), while
// the evaluator's sub-model streams are rng.New(seed).Split(h) with h a
// 64-bit content hash.
const gaSplitTag = 0x6f7074_5f67_6100

// MaxEvaluations caps Generations*Population: the most design points
// one optimization may ask of the fleet, the same ceiling a spec grid
// has (spec.MaxGridPoints). It also bounds the genome and record
// buffers a run allocates before evaluating anything.
const MaxEvaluations = 65536

// Evaluator evaluates one generation's design points and returns their
// records in slice order plus how many came from a cache. gen is the
// generation number; every point arrives with a globally unique Index
// (generation*population + position), which the evaluator must feed to
// the engine unchanged — it keys the point's content address and the
// optimizer's tie-breaks. The in-process default wraps
// sweep.EvaluatePoints; the service's distributed mode chunks the
// points over the worker fleet instead.
type Evaluator func(ctx context.Context, gen int, pts []sweep.Point) (recs []sweep.Record, cached int, err error)

// Options parameterises one optimization run.
type Options struct {
	// Space is the parameter region to search.
	Space Space
	// Objectives are the axes of the Pareto front (nil or empty selects
	// DefaultObjectives).
	Objectives []Objective
	// Seed roots every random decision of the run.
	Seed uint64
	// Generations is how many generations are evaluated, the random
	// initial population included (default 10).
	Generations int
	// Population is the number of individuals per generation; it must be
	// even so crossover pairs tile it exactly (default 24).
	Population int
	// Budget is the per-point Monte-Carlo effort (zero value = analytic).
	Budget sweep.Budget
	// Workers bounds the in-process evaluation pool (0 = NumCPU). The
	// result is byte-identical for every value.
	Workers int
	// Cache, when non-nil, is consulted before evaluating each point and
	// filled after, exactly as in grid sweeps. Ignored when Evaluate is
	// set — a custom evaluator owns its caching.
	Cache sweep.Cache
	// Evaluate replaces the in-process evaluator (nil = evaluate through
	// sweep.EvaluatePoints with the options above).
	Evaluate Evaluator
	// OnGeneration, when non-nil, observes each generation's summary as
	// soon as its selection finishes, in generation order.
	OnGeneration func(Generation)
	// Feasible, when non-nil, adds user-spec constraints to the ranking:
	// individuals whose records fail it are treated like evaluation
	// failures (dominated by every feasible one, excluded from the final
	// front). It never changes record bytes or cache keys.
	Feasible func(sweep.Record) bool
}

// Normalize fills defaults (objectives, generations, population,
// budget) and validates the shape. Optimize calls it internally; the
// service calls it at submission time, so a bad request fails fast
// instead of after queueing.
func (o *Options) Normalize() error {
	if err := o.Space.validate(); err != nil {
		return err
	}
	if len(o.Objectives) == 0 {
		o.Objectives = DefaultObjectives()
	}
	if o.Generations == 0 {
		o.Generations = 10
	}
	if o.Population == 0 {
		o.Population = 24
	}
	switch {
	case o.Generations < 1:
		return fmt.Errorf("search: need at least 1 generation, got %d", o.Generations)
	case o.Population < 4:
		return fmt.Errorf("search: need a population of at least 4, got %d", o.Population)
	case o.Population%2 != 0:
		return fmt.Errorf("search: population must be even for pairwise crossover, got %d", o.Population)
	case o.Population > MaxEvaluations/o.Generations:
		return fmt.Errorf("search: %d generations of %d exceed the %d-evaluation cap",
			o.Generations, o.Population, MaxEvaluations)
	}
	if o.Budget.Name == "" {
		o.Budget = sweep.AnalyticBudget()
	}
	return nil
}

// ObjectiveBest is one objective's best value in a population.
type ObjectiveBest struct {
	Objective string  `json:"objective"`
	Value     float64 `json:"value"`
}

// Generation summarises one generation after environmental selection:
// the current population's first front (the records optimizer clients
// stream as the search progresses) and the best raw value per
// objective across the population.
type Generation struct {
	Gen int `json:"gen"`
	// Evaluated and Cached count this generation's points by how they
	// were obtained; Evaluated includes the cached ones.
	Evaluated int `json:"evaluated"`
	Cached    int `json:"cached"`
	// Feasible counts the current population's feasible individuals.
	Feasible int `json:"feasible"`
	// FrontSize is len(Front).
	FrontSize int             `json:"front_size"`
	Best      []ObjectiveBest `json:"best,omitempty"`
	Front     []sweep.Record  `json:"front"`
}

// Result is the structured outcome of one optimization run.
type Result struct {
	Space      string   `json:"space"`
	Objectives []string `json:"objectives"`
	Seed       uint64   `json:"seed"`
	Budget     string   `json:"budget"`

	Generations int `json:"generations"`
	Population  int `json:"population"`

	// Records holds every evaluated individual in evaluation order
	// (generation-major); Index is the global evaluation index. Records
	// on the final front carry Pareto: true.
	Records []sweep.Record `json:"records"`
	// FrontIndices locates the final Pareto front — the non-dominated
	// set over every evaluated record under the run's objectives — in
	// Records order.
	FrontIndices []int `json:"front_indices"`

	// CachedPoints and ComputedPoints split the evaluations by how each
	// record was obtained; they sum to len(Records).
	CachedPoints   int `json:"cached_points"`
	ComputedPoints int `json:"computed_points"`

	// History is every generation's summary in order.
	History []Generation `json:"history"`
}

// Front returns the final Pareto-front records in Records order.
func (r *Result) Front() []sweep.Record {
	out := make([]sweep.Record, 0, len(r.FrontIndices))
	for _, i := range r.FrontIndices {
		out = append(out, r.Records[i])
	}
	return out
}

// Optimize runs the NSGA-II search over opts.Space. The run is a pure
// function of (space, objectives, seed, generations, population,
// budget): genomes are bred on the calling goroutine from split
// sub-streams keyed by (seed, generation, individual), and evaluation —
// however it is parallelised or distributed — keys each point's cache
// address by its global index and its Monte-Carlo streams by content.
func Optimize(ctx context.Context, opts Options) (*Result, error) {
	if err := opts.Normalize(); err != nil {
		return nil, err
	}
	evaluate := opts.Evaluate
	if evaluate == nil {
		evaluate = inProcessEvaluator(opts)
	}

	res := &Result{
		Space:       opts.Space.Name,
		Objectives:  objectiveNames(opts.Objectives),
		Seed:        opts.Seed,
		Budget:      opts.Budget.Name,
		Generations: opts.Generations,
		Population:  opts.Population,
	}
	gaRoot := rng.New(opts.Seed).Split(gaSplitTag)
	var pop []*indiv // current population, post-selection
	var all []*indiv // every evaluated individual, evaluation order

	for gen := 0; gen < opts.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		genStream := gaRoot.Split(uint64(gen) + 1)
		var genomes [][]float64
		if gen == 0 {
			genomes = make([][]float64, opts.Population)
			for i := range genomes {
				genomes[i] = initialGenome(genStream.Split(uint64(i)+1), opts.Space)
			}
		} else {
			genomes = offspringGenomes(genStream, opts.Space, pop, opts.Population)
		}

		pts := make([]sweep.Point, len(genomes))
		for i, genome := range genomes {
			idx := gen*opts.Population + i
			pts[i] = sweep.Point{
				Index: idx,
				Label: fmt.Sprintf("g%03d i%03d", gen, i),
				Spec:  opts.Space.Decode(genome),
			}
		}
		recs, cachedN, err := evaluate(ctx, gen, pts)
		if err != nil {
			return nil, err
		}
		if len(recs) != len(pts) {
			return nil, fmt.Errorf("search: evaluator returned %d records for %d points", len(recs), len(pts))
		}
		offspring := make([]*indiv, len(recs))
		for i, rec := range recs {
			offspring[i] = newIndiv(genomes[i], rec, opts.Objectives, pts[i].Index, opts.Feasible)
		}
		all = append(all, offspring...)
		res.CachedPoints += cachedN
		res.ComputedPoints += len(recs) - cachedN

		pop = environmentalSelect(append(pop, offspring...), opts.Population)
		summary := summarize(gen, len(recs), cachedN, pop, opts.Objectives)
		res.History = append(res.History, summary)
		if opts.OnGeneration != nil {
			opts.OnGeneration(summary)
		}
	}

	// Final front: non-dominated over everything ever evaluated, not
	// just the survivors — elitist selection keeps the front in the
	// population, but the archive view is what the acceptance tests and
	// clients compare byte-for-byte.
	res.Records = make([]sweep.Record, len(all))
	for i, ind := range all {
		res.Records[i] = ind.rec
	}
	res.FrontIndices = markFront(all, res.Records)
	return res, nil
}

// markFront computes the non-dominated set over all evaluated
// individuals, sets Pareto on the corresponding records, and returns
// their indices in evaluation order.
func markFront(all []*indiv, recs []sweep.Record) []int {
	var front []int
	for i, ind := range all {
		if !ind.feasible {
			continue
		}
		dominated := false
		for _, other := range all {
			if other != ind && dominates(other, ind) {
				dominated = true
				break
			}
		}
		if !dominated {
			recs[i].Pareto = true
			front = append(front, i)
		}
	}
	return front
}

// summarize builds one generation's summary from the post-selection
// population.
func summarize(gen, evaluated, cached int, pop []*indiv, objs []Objective) Generation {
	g := Generation{Gen: gen, Evaluated: evaluated, Cached: cached}
	// Fold best values in minimisation form: cost() maps NaN to +Inf,
	// so a degenerate metric on one individual can never shadow a
	// finite value on another (raw NaN would poison every comparison).
	bestCost := make([]float64, len(objs))
	for k := range bestCost {
		bestCost[k] = math.Inf(1)
	}
	for _, ind := range pop {
		if !ind.feasible {
			continue
		}
		g.Feasible++
		if ind.rank == 0 {
			rec := ind.rec
			rec.Pareto = true
			g.Front = append(g.Front, rec)
		}
		for k, o := range objs {
			if c := o.cost(ind.rec); c < bestCost[k] {
				bestCost[k] = c
			}
		}
	}
	g.FrontSize = len(g.Front)
	for k, o := range objs {
		v := bestCost[k]
		if math.IsInf(v, 1) {
			// No feasible individual has a finite value for this
			// objective; an entry would carry ±Inf or NaN, which JSON
			// cannot encode, so it is omitted.
			continue
		}
		if o.Maximize {
			v = -v
		}
		g.Best = append(g.Best, ObjectiveBest{Objective: o.Name, Value: v})
	}
	return g
}

// inProcessEvaluator is Optimize's default Evaluator: each generation
// fans out through sweep.EvaluatePoints with the options' seed, budget,
// worker pool and cache, under the space's "optimize/<name>" scenario
// string.
func inProcessEvaluator(opts Options) Evaluator {
	scenario := opts.Space.ScenarioName()
	cfg := sweep.Config{Workers: opts.Workers, Seed: opts.Seed, Budget: opts.Budget, Cache: opts.Cache}
	return func(ctx context.Context, _ int, pts []sweep.Point) ([]sweep.Record, int, error) {
		return sweep.EvaluatePoints(ctx, scenario, pts, cfg)
	}
}
