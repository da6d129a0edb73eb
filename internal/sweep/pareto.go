package sweep

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Metric is one numeric record field that spec constraints can bound
// and, when it has an objective name, a Pareto front can rank.
type Metric struct {
	// Name is the constraint name, the field's JSON key
	// ("tx_power_dbm").
	Name string
	// Objective is the objective name ("tx-power"), "" for a metric
	// that is never an objective.
	Objective string
	// Maximize is true when a larger value is better.
	Maximize bool
	// Value reads the metric off a record.
	Value func(Record) float64
}

// metrics is the record-metric catalog. ber is zero unless the budget
// runs the Monte-Carlo BER stage, sim_latency_cycles unless it runs the
// NoC simulation; every other metric is analytic.
var metrics = []Metric{
	{"tx_power_dbm", "tx-power", false, func(r Record) float64 { return r.TxPowerDBm }},
	{"spectral_efficiency_bps_hz", "spectral-efficiency", true, func(r Record) float64 { return r.SpectralEfficiency }},
	{"code_lifting", "", false, func(r Record) float64 { return float64(r.CodeLifting) }},
	{"code_window", "", false, func(r Record) float64 { return float64(r.CodeWindow) }},
	{"decode_latency_bits", "decode-latency", false, func(r Record) float64 { return r.DecodeLatencyBits }},
	{"noc_latency_cycles", "noc-latency", false, func(r Record) float64 { return r.NoCLatencyCycles }},
	{"noc_saturation", "noc-saturation", true, func(r Record) float64 { return r.NoCSaturation }},
	{"ber", "ber", false, func(r Record) float64 { return r.BER }},
	{"sim_latency_cycles", "", false, func(r Record) float64 { return r.SimLatencyCycles }},
}

// defaultObjectives is the trio a job's front is drawn over unless it
// names its own: minimise transmit power, minimise structural decode
// latency, maximise NoC saturation headroom.
var defaultObjectives = []string{"tx-power", "decode-latency", "noc-saturation"}

// LookupMetric returns the catalog metric with the constraint name.
func LookupMetric(name string) (Metric, bool) {
	i := slices.IndexFunc(metrics, func(m Metric) bool { return m.Name == name })
	if i < 0 {
		return Metric{}, false
	}
	return metrics[i], true
}

// MetricNames lists the constraint names in sorted order.
func MetricNames() []string {
	out := make([]string, len(metrics))
	for i, m := range metrics {
		out[i] = m.Name
	}
	slices.Sort(out)
	return out
}

// ObjectiveNames lists the objective names in sorted order.
func ObjectiveNames() []string {
	var out []string
	for _, m := range metrics {
		if m.Objective != "" {
			out = append(out, m.Objective)
		}
	}
	slices.Sort(out)
	return out
}

// ParseObjectives resolves objective names, case- and space-
// insensitively; empty or nil selects the default trio. At least two
// distinct objectives are required: a single axis is a scalar
// minimisation the Pareto machinery would degenerate on.
func ParseObjectives(names []string) ([]Metric, error) {
	if len(names) == 0 {
		names = defaultObjectives
	}
	out := make([]Metric, 0, len(names))
	for _, n := range names {
		n = strings.ToLower(strings.TrimSpace(n))
		i := slices.IndexFunc(metrics, func(m Metric) bool { return m.Objective == n && n != "" })
		switch {
		case i < 0:
			return nil, fmt.Errorf("sweep: unknown objective %q (have %v)", n, ObjectiveNames())
		case slices.ContainsFunc(out, func(m Metric) bool { return m.Objective == n }):
			return nil, fmt.Errorf("sweep: objective %q selected twice", n)
		}
		out = append(out, metrics[i])
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("sweep: need at least 2 objectives, got %d", len(out))
	}
	return out, nil
}

// Cost is the metric in minimisation form, the one cost rule every
// front and ranking uses: maximised metrics are negated, and NaN (a
// metric the budget never measured, or a degenerate model output) is
// +Inf, so such a record sits behind every finite one instead of
// making domination answer false both ways.
func (m Metric) Cost(r Record) float64 {
	v := m.Value(r)
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	if m.Maximize {
		return -v
	}
	return v
}

// Dominates reports whether cost vector a is no worse than b on every
// objective and strictly better on one.
func Dominates(a, b []float64) bool {
	better := false
	for k := range a {
		if a[k] > b[k] {
			return false
		}
		if a[k] < b[k] {
			better = true
		}
	}
	return better
}

// Pareto is the rule a job's front is drawn by. It shapes only the
// job-level marking and the optimizer's ranking, never record bytes or
// cache keys, so jobs that differ only here share every cached point.
type Pareto struct {
	// Objectives are the front's axes (nil = the default trio).
	Objectives []Metric
	// Feasible is the user-spec constraint predicate (nil = every
	// record without Err is feasible).
	Feasible func(Record) bool
}

// Axes returns the front's objectives, the default trio when none are
// set.
func (p Pareto) Axes() []Metric {
	if len(p.Objectives) > 0 {
		return p.Objectives
	}
	objs, _ := ParseObjectives(nil) // the defaults are in the catalog
	return objs
}

// Names lists the objective names in front order.
func (p Pareto) Names() []string {
	objs := p.Axes()
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.Objective
	}
	return out
}

// Admits reports whether the record is feasible: it evaluated without
// error and passes the constraint predicate.
func (p Pareto) Admits(r Record) bool {
	return r.Err == "" && (p.Feasible == nil || p.Feasible(r))
}

// Mark sets the Pareto flag on every feasible record that no other
// feasible record dominates, clears it on the rest, and returns the
// front's indices in record order. Infeasible records neither join nor
// dominate the front. The cost matrix is built once; two objectives
// take the O(n log n) sweep of frontOf2, three or more a pairwise pass
// over the plain float rows.
func (p Pareto) Mark(recs []Record) []int {
	objs := p.Axes()
	k := len(objs)
	feasible := make([]int, 0, len(recs))
	cost := make([]float64, 0, len(recs)*k)
	for i := range recs {
		recs[i].Pareto = false
		if p.Admits(recs[i]) {
			feasible = append(feasible, i)
			for _, o := range objs {
				cost = append(cost, o.Cost(recs[i]))
			}
		}
	}
	var onFront []bool
	if k == 2 {
		onFront = frontOf2(cost)
	} else {
		onFront = frontPairwise(cost, k)
	}
	var front []int
	for a, i := range feasible {
		if onFront[a] {
			recs[i].Pareto = true
			front = append(front, i)
		}
	}
	return front
}

// frontPairwise reports which rows of an n-by-k cost matrix no other
// row dominates, trying every pair.
func frontPairwise(cost []float64, k int) []bool {
	n := len(cost) / k
	onFront := make([]bool, n)
	for a := range onFront {
		row := cost[a*k : a*k+k]
		onFront[a] = true
		for b := 0; b < n && onFront[a]; b++ {
			onFront[a] = b == a || !Dominates(cost[b*k:b*k+k], row)
		}
	}
	return onFront
}

// frontOf2 reports which rows of a two-column cost matrix no other row
// dominates, by Dominates' rule, in O(n log n): rows sorted by first
// cost, a row is dominated exactly when an earlier group (strictly
// smaller first cost) holds a second cost no larger than its own, or
// its own group (equal first cost) holds a strictly smaller one. Equal
// rows therefore stay on the front together. Costs are never NaN (Cost
// maps NaN to +Inf), so < and == order them totally, ±0 as equals.
func frontOf2(cost []float64) []bool {
	n := len(cost) / 2
	order := make([]int, n)
	for a := range order {
		order[a] = a
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(cost[2*a], cost[2*b]) })
	onFront := make([]bool, n)
	best, seen := 0.0, false // least second cost over the earlier groups
	for g := 0; g < n; {
		// [g, h) is one group of equal first cost; least is its least
		// second cost.
		h, least := g+1, cost[2*order[g]+1]
		for ; h < n && cost[2*order[h]] == cost[2*order[g]]; h++ {
			least = min(least, cost[2*order[h]+1])
		}
		for _, a := range order[g:h] {
			c := cost[2*a+1]
			onFront[a] = !(seen && best <= c) && !(least < c)
		}
		if !seen || least < best {
			best = least
		}
		seen = true
		g = h
	}
	return onFront
}
