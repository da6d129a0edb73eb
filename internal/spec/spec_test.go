package spec

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// validDoc is a spec exercising every axis kind and both optional
// sections' knobs.
const validDoc = `{
	"name": "bursty-noc",
	"description": "hotspot traffic against injection load",
	"base": {"stack-modules": 64, "traffic-pattern": "hotspot", "traffic-hotspot-module": 3},
	"axes": [
		{"name": "traffic-hotspot-fraction", "kind": "continuous", "min": 0, "max": 0.4, "step": 0.2},
		{"name": "stack-injection-rate", "kind": "enum", "values": [0.05, 0.1]},
		{"name": "butler", "kind": "bool"},
		{"name": "latency-budget-bits", "kind": "integer", "min": 100, "max": 300, "step": 100}
	],
	"objectives": ["tx-power", "noc-latency"],
	"constraints": ["tx_power_dbm <= 20", "noc_saturation >= 0.05"],
	"budget": "analytic",
	"max_points": 100
}`

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if want := 3 * 2 * 2 * 3; len(c.Points) != want {
		t.Fatalf("grid has %d points, want %d", len(c.Points), want)
	}
	// Axis-major order: the first axis varies slowest.
	if got := c.Points[0].Label; !strings.HasPrefix(got, "traffic-hotspot-fraction=0 ") {
		t.Errorf("point 0 label %q", got)
	}
	last := c.Points[len(c.Points)-1]
	if !strings.Contains(last.Label, "traffic-hotspot-fraction=0.4") ||
		!strings.Contains(last.Label, "latency-budget-bits=300") {
		t.Errorf("last point label %q", last.Label)
	}
	for i, pt := range c.Points {
		if pt.Index != i {
			t.Fatalf("point %d carries index %d", i, pt.Index)
		}
		if pt.Spec.Traffic == nil || pt.Spec.Traffic.Pattern != "hotspot" {
			t.Fatalf("point %d lost the base traffic section: %+v", i, pt.Spec.Traffic)
		}
	}
	// Base sections must not be shared between points.
	if &c.Points[0].Spec.Traffic == &c.Points[1].Spec.Traffic ||
		c.Points[0].Spec.Traffic == c.Points[1].Spec.Traffic {
		t.Error("points share one traffic section")
	}
	p, err := s.Pareto()
	if err != nil {
		t.Fatal(err)
	}
	if p.Feasible == nil {
		t.Fatal("constraints did not produce a predicate")
	}
	if got := p.Names(); len(got) != 2 || got[0] != "tx-power" || got[1] != "noc-latency" {
		t.Errorf("objectives = %v, want the spec's", got)
	}
	if p.Admits(sweep.Record{TxPowerDBm: 25, NoCSaturation: 0.2}) {
		t.Error("tx_power_dbm 25 passed a <= 20 constraint")
	}
	if !p.Admits(sweep.Record{TxPowerDBm: 10, NoCSaturation: 0.2}) {
		t.Error("feasible record rejected")
	}
	if p.Admits(sweep.Record{TxPowerDBm: 10, NoCSaturation: 0.2, Err: "boom"}) {
		t.Error("errored record counted feasible")
	}
}

// TestParseRejects is the table of malformed documents; every message
// must carry the offending detail so users can act on it.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown top-level field", `{"name":"x","axes":[{"name":"butler","kind":"bool"}],"surprise":1}`, "surprise"},
		{"unknown axis field", `{"name":"x","axes":[{"name":"butler","kind":"bool","stride":2}]}`, "stride"},
		{"trailing data", `{"name":"x","axes":[{"name":"butler","kind":"bool"}]} {}`, "trailing"},
		{"missing name", `{"axes":[{"name":"butler","kind":"bool"}]}`, `"name"`},
		{"no axes", `{"name":"x"}`, "at least one axis"},
		{"unknown knob", `{"name":"x","axes":[{"name":"warp-factor","kind":"integer","min":1,"max":9}]}`, "warp-factor"},
		{"duplicate axis", `{"name":"x","axes":[{"name":"butler","kind":"bool"},{"name":"butler","kind":"bool"}]}`, "twice"},
		{"missing kind", `{"name":"x","axes":[{"name":"boards"}]}`, "kind"},
		{"unknown kind", `{"name":"x","axes":[{"name":"boards","kind":"log"}]}`, "log"},
		{"inverted bounds", `{"name":"x","axes":[{"name":"boards","kind":"integer","min":8,"max":2}]}`, "inverted bounds"},
		{"zero step", `{"name":"x","axes":[{"name":"link-rate-gbps","kind":"continuous","min":10,"max":100,"step":0}]}`, "step 0 must be positive"},
		{"negative step", `{"name":"x","axes":[{"name":"link-rate-gbps","kind":"continuous","min":10,"max":100,"step":-5}]}`, "must be positive"},
		{"missing step", `{"name":"x","axes":[{"name":"link-rate-gbps","kind":"continuous","min":10,"max":100}]}`, `"step"`},
		{"fractional integer axis", `{"name":"x","axes":[{"name":"boards","kind":"integer","min":1.5,"max":4}]}`, "whole"},
		{"continuous on integer knob", `{"name":"x","axes":[{"name":"boards","kind":"continuous","min":1,"max":4,"step":0.5}]}`, "integer-valued"},
		{"bool knob numeric axis", `{"name":"x","axes":[{"name":"butler","kind":"integer","min":0,"max":1}]}`, "bool-valued"},
		{"bool axis with bounds", `{"name":"x","axes":[{"name":"butler","kind":"bool","min":0}]}`, "no bounds"},
		{"enum without values", `{"name":"x","axes":[{"name":"traffic-pattern","kind":"enum"}]}`, "at least one value"},
		{"enum duplicate value", `{"name":"x","axes":[{"name":"traffic-pattern","kind":"enum","values":["uniform","uniform"]}]}`, "duplicate"},
		{"enum bad member", `{"name":"x","axes":[{"name":"traffic-pattern","kind":"enum","values":["uniform","bursty"]}]}`, "bursty"},
		{"enum wrong type", `{"name":"x","axes":[{"name":"traffic-pattern","kind":"enum","values":[3]}]}`, "want one of"},
		{"grid over axis cap", `{"name":"x","axes":[{"name":"link-rate-gbps","kind":"continuous","min":0.001,"max":1000000,"step":0.001}]}`, "cap"},
		{"grid over combined cap", `{"name":"x","axes":[
			{"name":"boards","kind":"integer","min":1,"max":1000},
			{"name":"nodes-per-board","kind":"integer","min":1,"max":1000}]}`, "cap"},
		{"grid over max_points", `{"name":"x","max_points":3,"axes":[{"name":"boards","kind":"integer","min":1,"max":8}]}`, "max_points"},
		{"max_points over cap", `{"name":"x","max_points":1000000,"axes":[{"name":"butler","kind":"bool"}]}`, "hard"},
		{"unknown base knob", `{"name":"x","base":{"warp":1},"axes":[{"name":"butler","kind":"bool"}]}`, "warp"},
		{"base type mismatch", `{"name":"x","base":{"boards":true},"axes":[{"name":"butler","kind":"bool"}]}`, "number"},
		{"base domain", `{"name":"x","base":{"latency-budget-bits":10},"axes":[{"name":"butler","kind":"bool"}]}`, ">= 75"},
		{"base fractional int", `{"name":"x","base":{"boards":2.5},"axes":[{"name":"butler","kind":"bool"}]}`, "whole"},
		{"hotspot fraction range", `{"name":"x","base":{"traffic-hotspot-fraction":1.5},"axes":[{"name":"butler","kind":"bool"}]}`, "[0, 1]"},
		{"unknown objective", `{"name":"x","objectives":["tx-power","steam-pressure"],"axes":[{"name":"butler","kind":"bool"}]}`, "steam-pressure"},
		{"one objective", `{"name":"x","objectives":["tx-power"],"axes":[{"name":"butler","kind":"bool"}]}`, "at least 2"},
		{"bad constraint shape", `{"name":"x","constraints":["tx_power_dbm<=20"],"axes":[{"name":"butler","kind":"bool"}]}`, "metric op value"},
		{"unknown constraint metric", `{"name":"x","constraints":["zing <= 20"],"axes":[{"name":"butler","kind":"bool"}]}`, "zing"},
		{"bad constraint op", `{"name":"x","constraints":["ber != 0"],"axes":[{"name":"butler","kind":"bool"}]}`, "operator"},
		{"bad constraint bound", `{"name":"x","constraints":["ber <= lots"],"axes":[{"name":"butler","kind":"bool"}]}`, "finite number"},
		{"unknown budget", `{"name":"x","budget":"lavish","axes":[{"name":"butler","kind":"bool"}]}`, "lavish"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCanonicalKeyOrderInsensitive: the acceptance property — two
// semantically equal documents with different key order and number
// spellings canonicalise identically and mint identical PointKeys.
func TestCanonicalKeyOrderInsensitive(t *testing.T) {
	reordered := `{
		"budget": "analytic",
		"max_points": 100,
		"constraints": ["noc_saturation >= 5e-2", "tx_power_dbm <= 2e1"],
		"objectives": ["tx-power", "noc-latency"],
		"axes": [
			{"kind": "continuous", "step": 2e-1, "max": 4e-1, "min": 0, "name": "traffic-hotspot-fraction"},
			{"values": [5e-2, 1e-1], "kind": "enum", "name": "stack-injection-rate"},
			{"kind": "bool", "name": "butler"},
			{"step": 100, "max": 3e2, "min": 1e2, "kind": "integer", "name": "latency-budget-bits"}
		],
		"base": {"traffic-hotspot-module": 3, "traffic-pattern": "hotspot", "stack-modules": 64},
		"description": "hotspot traffic against injection load",
		"name": "bursty-noc"
	}`
	a, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(reordered))
	if err != nil {
		t.Fatal(err)
	}
	// Constraint order differs above on purpose: constraint ORDER is
	// semantic in the full document but absent from the grid identity.
	if a.Hash() != b.Hash() {
		t.Fatalf("grid hashes differ:\n%s\n%s", a.GridCanonical(), b.GridCanonical())
	}
	if a.ScenarioName() != b.ScenarioName() {
		t.Fatalf("scenario names differ: %s vs %s", a.ScenarioName(), b.ScenarioName())
	}
	ca, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Points) != len(cb.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(ca.Points), len(cb.Points))
	}
	for i := range ca.Points {
		ka := sweep.PointKey(ca.Scenario.Name, ca.Points[i], ca.Budget, 42)
		kb := sweep.PointKey(cb.Scenario.Name, cb.Points[i], cb.Budget, 42)
		if ka != kb {
			t.Fatalf("point %d: keys differ: %s vs %s", i, ka, kb)
		}
	}
}

// reparseGrid names the grid document GridCanonical renders and parses
// it back: the grid identity must survive as a spec of its own.
func reparseGrid(t testing.TB, s *Spec) (canon []byte, again *Spec) {
	t.Helper()
	canon = s.GridCanonical()
	doc := append([]byte(`{"name":"grid",`), canon[1:]...)
	again, err := Parse(doc)
	if err != nil {
		t.Fatalf("grid document does not reparse: %v\n%s", err, doc)
	}
	return canon, again
}

// TestCanonicalFixedPoint: GridCanonical(Parse(GridCanonical(s))) ==
// GridCanonical(s), and the hash survives the round trip.
func TestCanonicalFixedPoint(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	canon, s2 := reparseGrid(t, s)
	if again := s2.GridCanonical(); !bytes.Equal(canon, again) {
		t.Fatalf("canonicalisation is not a fixed point:\n%s\n%s", canon, again)
	}
	if s.Hash() != s2.Hash() {
		t.Fatal("hash changed across canonical round trip")
	}
}

// TestGridIdentityIgnoresPresentation: name, description, objectives,
// constraints, budget and max_points do not move the grid hash; base
// and axes do.
func TestGridIdentityIgnoresPresentation(t *testing.T) {
	base, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	variant := *base
	variant.Name = "other-name"
	variant.Description = ""
	variant.Objectives = nil
	variant.Constraints = nil
	variant.Budget = "smoke"
	variant.MaxPoints = 0
	if base.Hash() != variant.Hash() {
		t.Error("presentation fields moved the grid hash")
	}
	moved := *base
	moved.Base = map[string]any{"stack-modules": float64(128)}
	if base.Hash() == moved.Hash() {
		t.Error("base change did not move the grid hash")
	}
}

// TestSpaceCompile checks the optimize-side compilation.
func TestSpaceCompile(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	space, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	if space.ScenarioName() != "optimize/"+s.ScenarioName() {
		t.Fatalf("space scenario %q", space.ScenarioName())
	}
	if len(space.Params) != len(s.Axes) {
		t.Fatalf("space has %d params for %d axes", len(space.Params), len(s.Axes))
	}
	// Genome: fraction 0.4, enum index 1 (0.1), butler true, budget 300.
	spec := space.Decode([]float64{0.4, 1, 1, 300})
	if spec.Traffic == nil || spec.Traffic.HotspotFraction != 0.4 {
		t.Fatalf("traffic section %+v", spec.Traffic)
	}
	if spec.StackInjectionRate != 0.1 || !spec.Butler || spec.LatencyBudgetBits != 300 {
		t.Fatalf("decoded spec %+v", spec)
	}
	// Decoding must not leak sections between individuals.
	other := space.Decode([]float64{0.2, 0, 0, 100})
	if other.Traffic == spec.Traffic {
		t.Fatal("individuals share a traffic section")
	}
	if spec.Traffic.HotspotFraction != 0.4 {
		t.Fatal("second decode mutated the first individual")
	}

	single := &Spec{Name: "x", Axes: []Axis{{Name: "traffic-pattern", Kind: "enum", Values: []any{"uniform"}}}}
	if _, err := single.Space(); err == nil || !strings.Contains(err.Error(), "base") {
		t.Fatalf("single-value enum space error: %v", err)
	}
}

// FuzzSpecCanonicalRoundTrip drives arbitrary documents through Parse;
// whenever one is accepted, its canonical grid document (named, so it
// parses) must reparse to the same GridCanonical bytes and the same
// grid hash (fixed point) — the reparsed document drops every
// presentation field and reorders keys, so this also locks in that
// neither moves the grid identity.
func FuzzSpecCanonicalRoundTrip(f *testing.F) {
	f.Add([]byte(validDoc))
	f.Add([]byte(`{"name":"n","axes":[{"name":"butler","kind":"bool"}]}`))
	f.Add([]byte(`{"name":"n","budget":"smoke","base":{"boards":2},"axes":[
		{"name":"boards","kind":"integer","min":2,"max":5},
		{"name":"board-spacing-m","kind":"continuous","min":0.05,"max":0.2,"step":0.05}]}`))
	f.Add([]byte(`{"name":"n","constraints":["ber < 1e-3"],"axes":[
		{"name":"traffic-pattern","kind":"enum","values":["uniform","hotspot","bit-complement"]}]}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Parse(doc)
		if err != nil {
			return
		}
		canon, s2 := reparseGrid(t, s)
		if again := s2.GridCanonical(); !bytes.Equal(canon, again) {
			t.Fatalf("not a fixed point:\n%s\n%s", canon, again)
		}
		if s.Hash() != s2.Hash() {
			t.Fatalf("hash drifted across canonicalisation")
		}
	})
}

// TestPointLabelsPinned pins grid labels byte for byte for every axis
// kind: labels are hashed into every point's cache key, so a label
// that changes by one byte turns the store cold for that spec.
func TestPointLabelsPinned(t *testing.T) {
	s, err := Parse([]byte(`{"name": "labels",
		"axes": [
			{"name": "board-spacing-m", "kind": "continuous", "min": 0.05, "max": 0.15, "step": 0.1},
			{"name": "boards", "kind": "integer", "min": 2, "max": 3},
			{"name": "butler", "kind": "bool"},
			{"name": "traffic-pattern", "kind": "enum", "values": ["uniform", "hotspot"]},
			{"name": "link-rate-gbps", "kind": "enum", "values": [1e21, 2.5e-7]}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"board-spacing-m=0.05 boards=2 butler=false traffic-pattern=uniform link-rate-gbps=1e+21",
		"board-spacing-m=0.05 boards=2 butler=false traffic-pattern=uniform link-rate-gbps=2.5e-07",
		"board-spacing-m=0.05 boards=2 butler=false traffic-pattern=hotspot link-rate-gbps=1e+21",
		"board-spacing-m=0.05 boards=2 butler=false traffic-pattern=hotspot link-rate-gbps=2.5e-07",
		"board-spacing-m=0.05 boards=2 butler=true traffic-pattern=uniform link-rate-gbps=1e+21",
		"board-spacing-m=0.05 boards=2 butler=true traffic-pattern=uniform link-rate-gbps=2.5e-07",
		"board-spacing-m=0.05 boards=2 butler=true traffic-pattern=hotspot link-rate-gbps=1e+21",
		"board-spacing-m=0.05 boards=2 butler=true traffic-pattern=hotspot link-rate-gbps=2.5e-07",
		"board-spacing-m=0.05 boards=3 butler=false traffic-pattern=uniform link-rate-gbps=1e+21",
		"board-spacing-m=0.05 boards=3 butler=false traffic-pattern=uniform link-rate-gbps=2.5e-07",
		"board-spacing-m=0.05 boards=3 butler=false traffic-pattern=hotspot link-rate-gbps=1e+21",
		"board-spacing-m=0.05 boards=3 butler=false traffic-pattern=hotspot link-rate-gbps=2.5e-07",
		"board-spacing-m=0.05 boards=3 butler=true traffic-pattern=uniform link-rate-gbps=1e+21",
		"board-spacing-m=0.05 boards=3 butler=true traffic-pattern=uniform link-rate-gbps=2.5e-07",
		"board-spacing-m=0.05 boards=3 butler=true traffic-pattern=hotspot link-rate-gbps=1e+21",
		"board-spacing-m=0.05 boards=3 butler=true traffic-pattern=hotspot link-rate-gbps=2.5e-07",
		"board-spacing-m=0.15000000000000002 boards=2 butler=false traffic-pattern=uniform link-rate-gbps=1e+21",
	}
	if len(c.Points) != 32 {
		t.Fatalf("grid has %d points, want 32", len(c.Points))
	}
	for i, w := range want {
		if got := c.Points[i].Label; got != w {
			t.Errorf("point %d label\n got %q\nwant %q", i, got, w)
		}
	}
	if got, w := c.Points[31].Label,
		"board-spacing-m=0.15000000000000002 boards=3 butler=true traffic-pattern=hotspot link-rate-gbps=2.5e-07"; got != w {
		t.Errorf("last label\n got %q\nwant %q", got, w)
	}
}
