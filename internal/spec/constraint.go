package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sweep"
)

// Constraint is one parsed feasibility expression over a record metric:
// "metric op value" with op one of <=, <, >=, >. Constraints are
// applied when marking the Pareto front and when the optimizer ranks
// individuals; they never change evaluated record bytes, so the point
// cache is shared across specs that differ only here.
type Constraint struct {
	// Metric names a record metric from Metrics().
	Metric string
	// Op is "<=", "<", ">=" or ">".
	Op string
	// Value is the comparison bound.
	Value float64
}

// metricGetters maps constraint metric names to record accessors.
var metricGetters = map[string]func(sweep.Record) float64{
	"tx_power_dbm":               func(r sweep.Record) float64 { return r.TxPowerDBm },
	"spectral_efficiency_bps_hz": func(r sweep.Record) float64 { return r.SpectralEfficiency },
	"code_lifting":               func(r sweep.Record) float64 { return float64(r.CodeLifting) },
	"code_window":                func(r sweep.Record) float64 { return float64(r.CodeWindow) },
	"decode_latency_bits":        func(r sweep.Record) float64 { return r.DecodeLatencyBits },
	"noc_latency_cycles":         func(r sweep.Record) float64 { return r.NoCLatencyCycles },
	"noc_saturation":             func(r sweep.Record) float64 { return r.NoCSaturation },
	"ber":                        func(r sweep.Record) float64 { return r.BER },
	"sim_latency_cycles":         func(r sweep.Record) float64 { return r.SimLatencyCycles },
}

// Metrics lists the constraint metric names in sorted order.
func Metrics() []string {
	out := make([]string, 0, len(metricGetters))
	for n := range metricGetters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParseConstraint parses one "metric op value" expression.
func ParseConstraint(expr string) (Constraint, error) {
	fields := strings.Fields(expr)
	if len(fields) != 3 {
		return Constraint{}, fmt.Errorf("spec: constraint %q: want \"metric op value\" (e.g. \"tx_power_dbm <= 20\")", expr)
	}
	c := Constraint{Metric: fields[0], Op: fields[1]}
	if _, ok := metricGetters[c.Metric]; !ok {
		return Constraint{}, fmt.Errorf("spec: constraint %q: unknown metric %q (have %v)", expr, c.Metric, Metrics())
	}
	switch c.Op {
	case "<=", "<", ">=", ">":
	default:
		return Constraint{}, fmt.Errorf("spec: constraint %q: unknown operator %q (<=, <, >= or >)", expr, c.Op)
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return Constraint{}, fmt.Errorf("spec: constraint %q: bound %q is not a finite number", expr, fields[2])
	}
	c.Value = v
	return c, nil
}

// Holds reports whether the record satisfies the constraint. A record
// that failed evaluation (Err set) never satisfies any constraint.
func (c Constraint) Holds(r sweep.Record) bool {
	if r.Err != "" {
		return false
	}
	v := metricGetters[c.Metric](r)
	switch c.Op {
	case "<=":
		return v <= c.Value
	case "<":
		return v < c.Value
	case ">=":
		return v >= c.Value
	}
	return v > c.Value
}

// FeasibleFunc builds the conjunction of the spec's constraints as a
// predicate for Pareto marking and optimizer ranking, or nil when the
// spec has none (callers treat nil as "Err-free is feasible").
func (s *Spec) FeasibleFunc() (func(sweep.Record) bool, error) {
	if len(s.Constraints) == 0 {
		return nil, nil
	}
	cs := make([]Constraint, len(s.Constraints))
	for i, expr := range s.Constraints {
		c, err := ParseConstraint(expr)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return func(r sweep.Record) bool {
		for _, c := range cs {
			if !c.Holds(r) {
				return false
			}
		}
		return true
	}, nil
}
