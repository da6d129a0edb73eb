package service

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"repro/internal/search"
)

// resolveSpec is a two-point spec that names its own budget, objectives
// and a constraint, so every precedence rule has something to override.
const resolveSpec = `{
	"name": "precedence",
	"axes": [{"name": "boards", "kind": "integer", "min": 2, "max": 3}],
	"objectives": ["tx-power", "noc-saturation"],
	"constraints": ["tx_power_dbm <= 20"],
	"budget": "smoke"
}`

// bareSpec names no budget and no objectives.
const bareSpec = `{"name": "bare", "axes": [{"name": "boards", "kind": "integer", "min": 2, "max": 3}]}`

// TestResolvePrecedence pins the one rule every entry point resolves a
// request by: the request's budget and objectives win, then the spec's,
// then the defaults; a spec never shares a request with a registered
// name, and a request the engine cannot run is rejected before queueing.
func TestResolvePrecedence(t *testing.T) {
	defaults := []string{"tx-power", "decode-latency", "noc-saturation"}
	cases := []struct {
		name     string
		req      Request
		err      error    // wanted sentinel (nil = resolves)
		budget   string   // wanted plan budget
		objs     []string // wanted objectives
		feasible bool     // wanted: a feasibility predicate is set
	}{
		{name: "request budget over spec budget",
			req:    Request{Spec: json.RawMessage(resolveSpec), Budget: "analytic"},
			budget: "analytic", objs: []string{"tx-power", "noc-saturation"}, feasible: true},
		{name: "spec budget when the request names none",
			req:    Request{Spec: json.RawMessage(resolveSpec)},
			budget: "smoke", objs: []string{"tx-power", "noc-saturation"}, feasible: true},
		{name: "analytic when neither names one",
			req:    Request{Spec: json.RawMessage(bareSpec)},
			budget: "analytic", objs: defaults},
		{name: "analytic for a registered scenario",
			req:    Request{Scenario: "paper-baseline"},
			budget: "analytic", objs: defaults},
		{name: "sweep request objectives over spec objectives",
			req:    Request{Spec: json.RawMessage(resolveSpec), Objectives: []string{"ber", "tx-power"}},
			budget: "smoke", objs: []string{"ber", "tx-power"}, feasible: true},
		{name: "sweep request objectives for a registered scenario",
			req:    Request{Scenario: "paper-baseline", Objectives: []string{"noc-latency", "tx-power"}},
			budget: "analytic", objs: []string{"noc-latency", "tx-power"}},
		{name: "unknown sweep objective",
			req: Request{Scenario: "paper-baseline", Objectives: []string{"tx-power", "vibes"}},
			err: ErrBadRequest},
		{name: "request objectives over spec objectives",
			req:    Request{Kind: KindOptimize, Spec: json.RawMessage(resolveSpec), Objectives: []string{"decode-latency", "noc-latency"}},
			budget: "smoke", objs: []string{"decode-latency", "noc-latency"}, feasible: true},
		{name: "spec objectives when the request names none",
			req:    Request{Kind: KindOptimize, Spec: json.RawMessage(resolveSpec)},
			budget: "smoke", objs: []string{"tx-power", "noc-saturation"}, feasible: true},
		{name: "default objectives when neither names any",
			req:    Request{Kind: KindOptimize, Spec: json.RawMessage(bareSpec)},
			budget: "analytic", objs: defaults},
		{name: "default objectives for a registered space",
			req:    Request{Kind: KindOptimize, Space: "paper-baseline", Budget: "smoke"},
			budget: "smoke", objs: defaults},
		{name: "spec plus scenario",
			req: Request{Spec: json.RawMessage(resolveSpec), Scenario: "paper-baseline"},
			err: ErrBadRequest},
		{name: "spec plus space",
			req: Request{Kind: KindOptimize, Spec: json.RawMessage(resolveSpec), Space: "paper-baseline"},
			err: ErrBadRequest},
		{name: "unknown kind",
			req: Request{Kind: "anneal", Scenario: "paper-baseline"},
			err: ErrBadRequest},
		{name: "unknown scenario",
			req: Request{Scenario: "nope"},
			err: ErrBadRequest},
		{name: "unknown budget",
			req: Request{Scenario: "paper-baseline", Budget: "lavish"},
			err: ErrBadRequest},
		{name: "invalid spec",
			req: Request{Spec: json.RawMessage(`{"name": "x", "axes": []}`)},
			err: ErrBadSpec},
		{name: "optimization over the evaluation cap",
			req: Request{Kind: KindOptimize, Space: "paper-baseline", Generations: 2, Population: search.MaxEvaluations/2 + 2},
			err: ErrBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Resolve(c.req)
			if c.err != nil {
				if !errors.Is(err, c.err) {
					t.Fatalf("Resolve = %v, want %v", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if p.Budget.Name != c.budget {
				t.Errorf("budget = %q, want %q", p.Budget.Name, c.budget)
			}
			if (p.Pareto.Feasible != nil) != c.feasible {
				t.Errorf("feasibility predicate set = %v, want %v", p.Pareto.Feasible != nil, c.feasible)
			}
			if got := p.Pareto.Names(); !slices.Equal(got, c.objs) {
				t.Errorf("objectives = %v, want %v", got, c.objs)
			}
			if p.Kind == KindOptimize {
				if p.Search.Budget != p.Budget || p.Search.Generations == 0 || p.Search.Population == 0 {
					t.Errorf("search options not normalized: %+v", p.Search)
				}
				if got := p.Search.Pareto.Names(); !slices.Equal(got, c.objs) || (p.Search.Pareto.Feasible != nil) != c.feasible {
					t.Errorf("search Pareto rule = %v (feasible set %v), want the plan's", got, p.Search.Pareto.Feasible != nil)
				}
			}
		})
	}
}
