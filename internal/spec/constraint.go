package spec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sweep"
)

// constraint is one parsed feasibility expression over a catalog
// metric: "metric op value" with op one of <=, <, >=, >. Constraints
// shape the Pareto front and the optimizer's ranking; they never change
// evaluated record bytes, so the point cache is shared across specs
// that differ only here.
type constraint struct {
	metric sweep.Metric
	op     string
	value  float64
}

// parseConstraint parses one "metric op value" expression.
func parseConstraint(expr string) (constraint, error) {
	fields := strings.Fields(expr)
	if len(fields) != 3 {
		return constraint{}, fmt.Errorf("spec: constraint %q: want \"metric op value\" (e.g. \"tx_power_dbm <= 20\")", expr)
	}
	m, ok := sweep.LookupMetric(fields[0])
	if !ok {
		return constraint{}, fmt.Errorf("spec: constraint %q: unknown metric %q (have %v)", expr, fields[0], sweep.MetricNames())
	}
	c := constraint{metric: m, op: fields[1]}
	switch c.op {
	case "<=", "<", ">=", ">":
	default:
		return constraint{}, fmt.Errorf("spec: constraint %q: unknown operator %q (<=, <, >= or >)", expr, c.op)
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return constraint{}, fmt.Errorf("spec: constraint %q: bound %q is not a finite number", expr, fields[2])
	}
	c.value = v
	return c, nil
}

// holds reports whether the record satisfies the constraint.
func (c constraint) holds(r sweep.Record) bool {
	v := c.metric.Value(r)
	switch c.op {
	case "<=":
		return v <= c.value
	case "<":
		return v < c.value
	case ">=":
		return v >= c.value
	}
	return v > c.value
}

// Pareto is the rule the spec's front is marked by: its objectives
// (nil when it names none) and the conjunction of its constraints (nil
// when it has none). Pareto.Admits already rejects records with Err
// set, so the predicate only checks the bounds.
func (s *Spec) Pareto() (sweep.Pareto, error) {
	var p sweep.Pareto
	if len(s.Objectives) > 0 {
		objs, err := sweep.ParseObjectives(s.Objectives)
		if err != nil {
			return p, fmt.Errorf("spec: %w", err)
		}
		p.Objectives = objs
	}
	if len(s.Constraints) == 0 {
		return p, nil
	}
	cs := make([]constraint, len(s.Constraints))
	for i, expr := range s.Constraints {
		c, err := parseConstraint(expr)
		if err != nil {
			return p, err
		}
		cs[i] = c
	}
	p.Feasible = func(r sweep.Record) bool {
		for _, c := range cs {
			if !c.holds(r) {
				return false
			}
		}
		return true
	}
	return p, nil
}
