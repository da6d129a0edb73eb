package service

import (
	"fmt"

	"repro/internal/search"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Plan is a Request resolved into the work it names: the grid or the
// normalized search, the budget and the Pareto rule. Submit queues one;
// cmd/sweep executes one locally with sweep.Run or search.Optimize, so
// a local run and a daemon job of the same request are resolved by the
// same code.
type Plan struct {
	// Kind is KindSweep or KindOptimize (an empty request kind is a
	// sweep).
	Kind string
	// Budget is the request's budget, else the spec's, else analytic.
	Budget sweep.Budget
	// Pareto is the rule the job's front is marked by: the request's
	// objectives, else the spec's, else the default trio, and the
	// spec's constraints. It shapes Pareto marking and optimizer
	// ranking only, never record bytes or cache keys.
	Pareto sweep.Pareto
	// SpecName is the inline spec's own name, "" for registry jobs.
	// Display only: the grid identity is the spec's content hash.
	SpecName string
	// Scenario is a sweep's grid: the registered scenario or the
	// compiled spec.
	Scenario sweep.Scenario
	// Search holds an optimization's normalized options; the caller
	// adds Cache, Evaluate and OnGeneration.
	Search search.Options
}

// ScenarioName is the scenario string records, leases and cache keys
// carry: the grid's name for a sweep, "optimize/<space>" for an
// optimization.
func (p Plan) ScenarioName() string {
	if p.Kind == KindOptimize {
		return p.Search.Space.ScenarioName()
	}
	return p.Scenario.Name
}

// Resolve turns a request into a Plan by the one rule every entry
// point shares. A study is a registered name or an inline spec, never
// both. Budget and objectives come from the request, else the spec,
// else the defaults, for sweeps and optimizations alike. Errors wrap
// ErrBadSpec when the spec is at fault and ErrBadRequest otherwise.
// Resolve parses the spec once and compiles it (or looks the name up)
// once; it never enumerates a registered grid.
func Resolve(req Request) (Plan, error) {
	p := Plan{Kind: req.Kind}
	if p.Kind == "" {
		p.Kind = KindSweep
	}
	// An inline spec is parsed strictly (unknown fields are errors) and
	// validated here, so a bad document fails with the spec package's
	// actionable message before anything is queued.
	var userSpec *spec.Spec
	if len(req.Spec) > 0 {
		if req.Scenario != "" || req.Space != "" {
			return Plan{}, fmt.Errorf("%w: an inline spec must not also name a registered scenario or space", ErrBadRequest)
		}
		sp, err := spec.Parse(req.Spec)
		if err != nil {
			return Plan{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		if p.Pareto, err = sp.Pareto(); err != nil {
			return Plan{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		userSpec = sp
		p.SpecName = sp.Name
	}
	budgetName := req.Budget
	if budgetName == "" && userSpec != nil {
		budgetName = userSpec.Budget
	}
	budget, err := sweep.ParseBudget(budgetName)
	if err != nil {
		return Plan{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	p.Budget = budget
	if len(req.Objectives) > 0 || p.Pareto.Objectives == nil {
		if p.Pareto.Objectives, err = sweep.ParseObjectives(req.Objectives); err != nil {
			return Plan{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	switch p.Kind {
	case KindSweep:
		if userSpec == nil {
			if p.Scenario, err = sweep.Get(req.Scenario); err != nil {
				return Plan{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			return p, nil
		}
		compiled, err := userSpec.Compile()
		if err != nil {
			return Plan{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		p.Scenario = compiled.Scenario
		return p, nil
	case KindOptimize:
		var sp search.Space
		if userSpec == nil {
			if sp, err = search.Get(req.Space); err != nil {
				return Plan{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
		} else if sp, err = userSpec.Space(); err != nil {
			return Plan{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		p.Search = search.Options{
			Space:       sp,
			Pareto:      p.Pareto,
			Seed:        req.Seed,
			Generations: req.Generations,
			Population:  req.Population,
			Budget:      budget,
			Workers:     req.Workers,
		}
		if err := p.Search.Normalize(); err != nil {
			return Plan{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return p, nil
	default:
		return Plan{}, fmt.Errorf("%w: unknown job kind %q (sweep|optimize)", ErrBadRequest, req.Kind)
	}
}
