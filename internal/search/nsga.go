package search

import (
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/sweep"
)

// indiv is one evaluated individual: its genome, the record the sweep
// evaluator produced for it, and the NSGA-II bookkeeping. idx is the
// global evaluation index (generation*population + position), which
// doubles as the deterministic tie-break everywhere an ordering would
// otherwise depend on sort instability or map iteration.
type indiv struct {
	genome   []float64
	rec      sweep.Record
	cost     []float64
	feasible bool
	idx      int

	rank  int
	crowd float64
}

// newIndiv builds one individual under the rule p, whose Objectives
// are set. Individuals p does not admit rank like evaluation failures —
// their costs park at +Inf and any feasible individual dominates them —
// so the search is steered away from, but can still traverse,
// constraint-violating regions.
func newIndiv(genome []float64, rec sweep.Record, p sweep.Pareto, idx int) *indiv {
	ind := &indiv{genome: genome, rec: rec, idx: idx, feasible: p.Admits(rec)}
	ind.cost = make([]float64, len(p.Objectives))
	for k, o := range p.Objectives {
		if ind.feasible {
			ind.cost[k] = o.Cost(rec)
		} else {
			// Infeasible designs carry zeroed metrics; park them at +Inf
			// so they can never shadow a feasible point.
			ind.cost[k] = math.Inf(1)
		}
	}
	return ind
}

// dominates implements constrained Pareto domination: a feasible
// individual dominates any infeasible one, two infeasible individuals
// never dominate each other, and two feasible ones compare by
// sweep.Dominates over their cost vectors.
func dominates(a, b *indiv) bool {
	if a.feasible != b.feasible {
		return a.feasible
	}
	return a.feasible && sweep.Dominates(a.cost, b.cost)
}

// sortFronts performs the fast non-dominated sort: it partitions pop
// into Pareto fronts, sets each individual's rank, and returns the
// fronts in rank order. Within a front the original (idx) order is
// preserved, so the result is deterministic.
func sortFronts(pop []*indiv) [][]*indiv {
	n := len(pop)
	domCount := make([]int, n)    // how many individuals dominate i
	dominated := make([][]int, n) // whom i dominates
	var first []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if dominates(pop[i], pop[j]) {
				dominated[i] = append(dominated[i], j)
			} else if dominates(pop[j], pop[i]) {
				domCount[i]++
			}
		}
		if domCount[i] == 0 {
			first = append(first, i)
		}
	}
	var fronts [][]*indiv
	for rank := 0; len(first) > 0; rank++ {
		front := make([]*indiv, 0, len(first))
		var next []int
		for _, i := range first {
			pop[i].rank = rank
			front = append(front, pop[i])
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		// next accumulates in domination order; restore idx order so the
		// front layout never depends on who dominated whom first.
		sort.Ints(next)
		fronts = append(fronts, front)
		first = next
	}
	return fronts
}

// setCrowding computes the crowding distance of every individual in one
// front: the normalised side length of the cuboid its neighbours span
// on each objective, boundary points at +Inf. Ties in an objective are
// broken by idx, so equal-cost individuals still get a deterministic
// (and equal-opportunity) ordering.
func setCrowding(front []*indiv) {
	for _, ind := range front {
		ind.crowd = 0
	}
	if len(front) <= 2 {
		for _, ind := range front {
			ind.crowd = math.Inf(1)
		}
		return
	}
	order := make([]*indiv, len(front))
	copy(order, front)
	for k := range front[0].cost {
		sort.SliceStable(order, func(i, j int) bool {
			if order[i].cost[k] != order[j].cost[k] {
				return order[i].cost[k] < order[j].cost[k]
			}
			return order[i].idx < order[j].idx
		})
		lo, hi := order[0].cost[k], order[len(order)-1].cost[k]
		order[0].crowd = math.Inf(1)
		order[len(order)-1].crowd = math.Inf(1)
		span := hi - lo
		if span == 0 || math.IsInf(span, 1) || math.IsNaN(span) {
			continue
		}
		for i := 1; i < len(order)-1; i++ {
			order[i].crowd += (order[i+1].cost[k] - order[i-1].cost[k]) / span
		}
	}
}

// crowdedLess is NSGA-II's total order: lower rank first, then larger
// crowding distance, then lower evaluation index. The idx tie-break
// makes selection a pure function of the population.
func crowdedLess(a, b *indiv) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.crowd != b.crowd {
		return a.crowd > b.crowd
	}
	return a.idx < b.idx
}

// environmentalSelect ranks the merged parent+offspring population and
// keeps the best n: whole fronts while they fit, the last partial front
// by crowding distance.
func environmentalSelect(pop []*indiv, n int) []*indiv {
	fronts := sortFronts(pop)
	next := make([]*indiv, 0, n)
	for _, front := range fronts {
		setCrowding(front)
		if len(next)+len(front) <= n {
			next = append(next, front...)
			continue
		}
		rest := make([]*indiv, len(front))
		copy(rest, front)
		sort.SliceStable(rest, func(i, j int) bool { return crowdedLess(rest[i], rest[j]) })
		next = append(next, rest[:n-len(next)]...)
		break
	}
	return next
}

// tournament picks one parent by binary crowded tournament: two
// uniform draws, the crowded-comparison winner.
func tournament(stream *rng.Stream, pop []*indiv) *indiv {
	a := pop[stream.Intn(len(pop))]
	b := pop[stream.Intn(len(pop))]
	if crowdedLess(b, a) {
		return b
	}
	return a
}

// blendAlpha is the BLX-alpha crossover expansion: children are drawn
// uniformly from the parents' per-gene interval extended by alpha times
// its width on both sides, so offspring can explore slightly beyond the
// parents before the bound clamp.
const blendAlpha = 0.5

// crossover produces two children by blend (BLX-alpha) crossover,
// clamped to the parameter bounds.
func crossover(stream *rng.Stream, space Space, p1, p2 *indiv) ([]float64, []float64) {
	n := len(space.Params)
	c1 := make([]float64, n)
	c2 := make([]float64, n)
	for g, p := range space.Params {
		lo, hi := p1.genome[g], p2.genome[g]
		if lo > hi {
			lo, hi = hi, lo
		}
		span := hi - lo
		a := lo - blendAlpha*span
		b := hi + blendAlpha*span
		c1[g] = clampGene(a+stream.Float64()*(b-a), p)
		c2[g] = clampGene(a+stream.Float64()*(b-a), p)
	}
	return c1, c2
}

// mutate perturbs each gene with probability 1/len(genes) by a bounded
// Gaussian step of 10% of the parameter range.
func mutate(stream *rng.Stream, space Space, genome []float64) {
	pm := 1.0 / float64(len(genome))
	for g, p := range space.Params {
		if stream.Float64() >= pm {
			continue
		}
		genome[g] = clampGene(genome[g]+stream.Norm()*0.1*(p.Max-p.Min), p)
	}
}

func clampGene(v float64, p Param) float64 {
	return math.Min(math.Max(v, p.Min), p.Max)
}

// initialGenome samples one uniform genome from the space's box.
func initialGenome(stream *rng.Stream, space Space) []float64 {
	genome := make([]float64, len(space.Params))
	for g, p := range space.Params {
		genome[g] = p.Min + stream.Float64()*(p.Max-p.Min)
	}
	return genome
}

// offspringGenomes breeds one generation: population/2 crossover pairs,
// each child mutated. Pair k draws every random decision from
// genStream.Split(k+1) — a pure function of (seed, generation, pair) —
// so breeding is independent of evaluation order and worker count.
func offspringGenomes(genStream *rng.Stream, space Space, pop []*indiv, population int) [][]float64 {
	out := make([][]float64, 0, population)
	for k := 0; len(out) < population; k++ {
		s := genStream.Split(uint64(k) + 1)
		p1 := tournament(s, pop)
		p2 := tournament(s, pop)
		c1, c2 := crossover(s, space, p1, p2)
		mutate(s, space, c1)
		mutate(s, space, c2)
		out = append(out, c1)
		if len(out) < population {
			out = append(out, c2)
		}
	}
	return out
}
