package spec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/sweep"
)

// Compiled is a spec materialised for execution: the dynamic scenario
// (grid) and the parsed budget. It carries
// everything a daemon or worker needs to run the study without the
// spec's scenario ever entering the compiled-in registry.
type Compiled struct {
	// Spec is the validated source document.
	Spec *Spec
	// Scenario is the dynamic grid under the spec's content-addressed
	// name; its Points func returns the precomputed grid.
	Scenario sweep.Scenario
	// Points is the enumerated grid (the same slice Scenario.Points
	// returns).
	Points []sweep.Point
	// Budget is the parsed evaluation budget.
	Budget sweep.Budget
}

// Compile validates the spec and materialises its grid. Every grid
// point's SystemSpec is checked, so a spec that compiles never produces
// a point the evaluator rejects for structural reasons (points can
// still be infeasible on physics, e.g. interference-limited links —
// those evaluate to records with Err set).
func (s *Spec) Compile() (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pts, err := s.points()
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Spec:   s,
		Points: pts,
		Budget: s.SweepBudget(),
	}
	c.Scenario = sweep.Scenario{
		Name:        s.ScenarioName(),
		Description: s.describe(),
		Points:      func() []sweep.Point { return pts },
	}
	return c, nil
}

// describe renders the registry-style description line.
func (s *Spec) describe() string {
	if s.Description != "" {
		return fmt.Sprintf("user spec %q: %s", s.Name, s.Description)
	}
	return fmt.Sprintf("user spec %q", s.Name)
}

// cloneSpec deep-copies the optional sections so applying knobs to one
// point (or one optimizer individual) never mutates another's spec.
func cloneSpec(sp core.SystemSpec) core.SystemSpec {
	if sp.Traffic != nil {
		t := *sp.Traffic
		sp.Traffic = &t
	}
	if sp.Interference != nil {
		i := *sp.Interference
		sp.Interference = &i
	}
	if sp.Power != nil {
		p := *sp.Power
		sp.Power = &p
	}
	return sp
}

// baseSpec builds the paper default with the spec's base overrides
// applied in sorted knob order (deterministic regardless of map
// iteration).
func (s *Spec) baseSpec() core.SystemSpec {
	base := core.DefaultSpec()
	names := make([]string, 0, len(s.Base))
	for n := range s.Base {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		knobs[n].set(&base, s.Base[n])
	}
	return base
}

// points enumerates the grid in axis-major order: the first axis is the
// slowest-varying dimension. Point indices — and with them every
// label and cache key — follow from this order, which is why
// axis order is part of the spec's canonical identity.
func (s *Spec) points() ([]sweep.Point, error) {
	base := s.baseSpec()
	// Each axis's knob and each axis value's "name=value" label part are
	// resolved once here, not once per point.
	axisKnobs := make([]*knob, len(s.Axes))
	values := make([][]any, len(s.Axes))
	parts := make([][]string, len(s.Axes))
	total, width := 1, len(s.Axes)
	for i := range s.Axes {
		axisKnobs[i] = knobs[s.Axes[i].Name]
		values[i] = s.Axes[i].values()
		parts[i] = make([]string, len(values[i]))
		longest := 0
		for j, v := range values[i] {
			parts[i][j] = s.Axes[i].Name + "=" + formatValue(v)
			longest = max(longest, len(parts[i][j]))
		}
		width += longest
		total *= len(values[i])
	}
	pts := make([]sweep.Point, 0, total)
	idx := make([]int, len(s.Axes))
	var label strings.Builder
	for n := 0; n < total; n++ {
		sp := cloneSpec(base)
		label.Reset()
		label.Grow(width)
		for a, k := range axisKnobs {
			k.set(&sp, values[a][idx[a]])
			if a > 0 {
				label.WriteByte(' ')
			}
			label.WriteString(parts[a][idx[a]])
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("spec: point %q is invalid: %w (tighten the axis bounds or base)", label.String(), err)
		}
		pts = append(pts, sweep.Point{Index: n, Label: label.String(), Spec: sp})
		for a := len(s.Axes) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(values[a]) {
				break
			}
			idx[a] = 0
		}
	}
	return pts, nil
}

// Space compiles the spec to a search.Space for optimize jobs: each
// axis becomes one searchable parameter over the same bounds (enum axes
// search over the value index), and the grid's base spec is the
// space's base. The space's name is the spec's content address, so
// optimizer cache keys ("optimize/spec/<hash>") are shared between
// equivalent specs exactly like grid keys.
func (s *Spec) Space() (search.Space, error) {
	if err := s.Validate(); err != nil {
		return search.Space{}, err
	}
	base := s.baseSpec()
	params := make([]search.Param, 0, len(s.Axes))
	for i := range s.Axes {
		ax := s.Axes[i]
		var p search.Param
		switch ax.Kind {
		case "enum":
			k, vals := knobs[ax.Name], ax.Values
			if len(vals) < 2 {
				return search.Space{}, fmt.Errorf(
					"spec: axis %q: a single-value enum cannot be searched; set it in \"base\" instead", ax.Name)
			}
			p = search.NewParam(ax.Name, search.Integer, 0, float64(len(vals)-1),
				func(sp *core.SystemSpec, v float64) { k.set(sp, vals[int(v)]) })
		case "bool":
			p = knobParam(ax.Name, ax.Kind, 0, 1)
		default:
			p = knobParam(ax.Name, ax.Kind, *ax.Min, *ax.Max)
		}
		if !(p.Min < p.Max) {
			return search.Space{}, fmt.Errorf(
				"spec: axis %q: zero-extent bounds [%g, %g] cannot be searched; set the knob in \"base\" instead",
				ax.Name, p.Min, p.Max)
		}
		params = append(params, p)
	}
	sp := search.Space{
		Name:        s.ScenarioName(),
		Description: s.describe(),
		Base:        func() core.SystemSpec { return cloneSpec(base) },
		Params:      params,
	}
	if err := sp.Validate(); err != nil {
		return search.Space{}, fmt.Errorf("spec: %w", err)
	}
	return sp, nil
}
