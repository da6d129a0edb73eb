// Package spec is the declarative, user-facing description of a design
// study: which SystemSpec knobs to vary (axes), over what grid, under
// which evaluation budget, optimised for which objectives and subject
// to which constraints. It is the boundary that turns the daemon from a
// replayer of compiled-in scenarios into a multi-tenant service — a
// JSON document submitted over the API compiles to the same
// sweep.Scenario and search.Space shapes the built-in registries
// provide, so everything downstream (executor, dispatcher, cache,
// fleet) runs user studies unchanged. The built-in search spaces
// themselves are declared here too (spaces.go), over the same knob
// catalog.
//
// Two properties carry the caching contract:
//
//   - Parsing is strict: unknown fields, unknown knobs, inverted
//     bounds, degenerate steps and oversized grids are rejected at
//     submission time with actionable messages, never at evaluation
//     time on a worker.
//
//   - The grid identity is canonical: GridCanonical renders the
//     grid-defining parts (base + axes) with sorted keys, normalized
//     numbers and defaults filled in, so semantically equal documents
//     — reordered keys, "100" vs "1e2", an omitted default — share one
//     byte representation. Its Hash is the scenario identity stamped
//     into every sweep.PointKey, which means two tenants submitting
//     equivalent studies share every cached point, and re-submitting a
//     spec is a zero-compute warm run.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/search"
	"repro/internal/sweep"
)

// MaxGridPoints is the hard ceiling on the number of grid points a
// single spec may declare; a per-spec max_points may only lower it.
// The cap bounds what one submission can demand from the fleet before
// any evaluation starts, and an optimization is held to the same one.
const MaxGridPoints = search.MaxEvaluations

// Axis declares one varied knob of the design space.
type Axis struct {
	// Name is a knob from the catalog (see Knobs).
	Name string `json:"name"`
	// Kind is "continuous", "integer", "bool" or "enum".
	Kind string `json:"kind"`
	// Min, Max bound continuous and integer axes (inclusive).
	Min *float64 `json:"min,omitempty"`
	// Max is the inclusive upper bound.
	Max *float64 `json:"max,omitempty"`
	// Step is the grid stride: required and positive for continuous
	// axes, optional (default 1) for integer axes.
	Step *float64 `json:"step,omitempty"`
	// Values lists the explicit grid values of an enum axis — all
	// strings (for string knobs) or all numbers (for numeric knobs).
	Values []any `json:"values,omitempty"`
}

// Spec is one parsed scenario specification.
type Spec struct {
	// Name titles the study for humans; it does not participate in the
	// cache identity.
	Name string `json:"name"`
	// Description is optional prose.
	Description string `json:"description,omitempty"`
	// Base overrides knobs of the paper's default SystemSpec before the
	// axes are applied, keyed by catalog knob name.
	Base map[string]any `json:"base,omitempty"`
	// Axes are the varied dimensions; their order fixes grid
	// enumeration order and so point indices.
	Axes []Axis `json:"axes"`
	// Objectives picks the Pareto objectives of sweeps and
	// optimizations from sweep's metric catalog (at least two when set;
	// default tx-power, decode-latency, noc-saturation).
	Objectives []string `json:"objectives,omitempty"`
	// Constraints are feasibility expressions "metric op value" (e.g.
	// "tx_power_dbm <= 20") applied when marking the Pareto front —
	// they never change evaluated record bytes, so specs differing only
	// in constraints share every cached point.
	Constraints []string `json:"constraints,omitempty"`
	// Budget names the evaluation budget: "analytic", "smoke" or
	// "standard" (default "analytic").
	Budget string `json:"budget,omitempty"`
	// MaxPoints lowers the MaxGridPoints ceiling for this spec.
	MaxPoints int `json:"max_points,omitempty"`
}

// Parse decodes and validates a spec document. Unknown fields anywhere
// in the document are rejected, as is trailing data.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || len(trailing) > 0 {
		return nil, fmt.Errorf("spec: trailing data after the spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec top to bottom, returning the first problem
// as an actionable error.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec: missing \"name\"")
	}
	for name, v := range s.Base {
		k, err := knobByName(name)
		if err != nil {
			return fmt.Errorf("spec: base: %w", err)
		}
		if err := k.checkValue(v); err != nil {
			return fmt.Errorf("spec: base knob %q: %w", name, err)
		}
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("spec: need at least one axis")
	}
	seen := map[string]bool{}
	gridSize := 1
	for i := range s.Axes {
		ax := &s.Axes[i]
		if seen[ax.Name] {
			return fmt.Errorf("spec: axis %q declared twice", ax.Name)
		}
		seen[ax.Name] = true
		n, err := ax.validate()
		if err != nil {
			return err
		}
		if gridSize > MaxGridPoints/n {
			return fmt.Errorf("spec: grid exceeds the %d-point cap at axis %q (use coarser steps or fewer axes)",
				MaxGridPoints, ax.Name)
		}
		gridSize *= n
	}
	if s.MaxPoints < 0 {
		return fmt.Errorf("spec: max_points %d must be positive", s.MaxPoints)
	}
	if s.MaxPoints > MaxGridPoints {
		return fmt.Errorf("spec: max_points %d exceeds the hard %d-point cap", s.MaxPoints, MaxGridPoints)
	}
	if s.MaxPoints > 0 && gridSize > s.MaxPoints {
		return fmt.Errorf("spec: grid has %d points, over the spec's max_points %d", gridSize, s.MaxPoints)
	}
	if _, err := s.Pareto(); err != nil {
		return err
	}
	if _, err := sweep.ParseBudget(s.Budget); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	return nil
}

// validate checks one axis against its knob and returns the number of
// grid values it contributes.
func (ax *Axis) validate() (int, error) {
	k, err := knobByName(ax.Name)
	if err != nil {
		return 0, fmt.Errorf("spec: axis: %w", err)
	}
	switch ax.Kind {
	case "continuous", "integer":
		if k.kind == knobBool || k.kind == knobString {
			return 0, fmt.Errorf("spec: axis %q: knob is %s-valued; use kind %q",
				ax.Name, k.kind, k.axisKind())
		}
		if ax.Kind == "continuous" && k.kind == knobInt {
			return 0, fmt.Errorf("spec: axis %q: knob is integer-valued; use kind \"integer\"", ax.Name)
		}
		if len(ax.Values) > 0 {
			return 0, fmt.Errorf("spec: axis %q: \"values\" only applies to kind \"enum\"", ax.Name)
		}
		if ax.Min == nil || ax.Max == nil {
			return 0, fmt.Errorf("spec: axis %q: %s axes need \"min\" and \"max\"", ax.Name, ax.Kind)
		}
		if *ax.Min > *ax.Max {
			return 0, fmt.Errorf("spec: axis %q: inverted bounds [%g, %g]", ax.Name, *ax.Min, *ax.Max)
		}
		if ax.Kind == "integer" {
			if ax.Step == nil {
				one := 1.0
				ax.Step = &one
			}
			for _, v := range []float64{*ax.Min, *ax.Max, *ax.Step} {
				if v != math.Trunc(v) {
					return 0, fmt.Errorf("spec: axis %q: integer axes need whole min/max/step, got %g", ax.Name, v)
				}
			}
		} else if ax.Step == nil {
			return 0, fmt.Errorf("spec: axis %q: continuous axes need a \"step\"", ax.Name)
		}
		if *ax.Step <= 0 {
			return 0, fmt.Errorf("spec: axis %q: step %g must be positive", ax.Name, *ax.Step)
		}
		// Count in float space first: a degenerate step on a huge range
		// must be rejected before any conversion to int.
		nf := math.Floor((*ax.Max-*ax.Min)/(*ax.Step)+1e-9) + 1
		if !(nf >= 1) || nf > MaxGridPoints {
			return 0, fmt.Errorf("spec: axis %q alone exceeds the %d-point cap", ax.Name, MaxGridPoints)
		}
		n := int(nf)
		for _, v := range ax.values() {
			if err := k.checkValue(v); err != nil {
				return 0, fmt.Errorf("spec: axis %q: %w", ax.Name, err)
			}
		}
		return n, nil
	case "bool":
		if k.kind != knobBool {
			return 0, fmt.Errorf("spec: axis %q: knob is %s-valued, not boolean", ax.Name, k.kind)
		}
		if ax.Min != nil || ax.Max != nil || ax.Step != nil || len(ax.Values) > 0 {
			return 0, fmt.Errorf("spec: axis %q: bool axes take no bounds, step or values", ax.Name)
		}
		return 2, nil
	case "enum":
		if ax.Min != nil || ax.Max != nil || ax.Step != nil {
			return 0, fmt.Errorf("spec: axis %q: enum axes take \"values\", not bounds or step", ax.Name)
		}
		if len(ax.Values) == 0 {
			return 0, fmt.Errorf("spec: axis %q: enum axes need at least one value", ax.Name)
		}
		vseen := map[any]bool{}
		for _, v := range ax.Values {
			switch v.(type) {
			case string, float64:
			default:
				return 0, fmt.Errorf("spec: axis %q: enum values must be strings or numbers, got %T", ax.Name, v)
			}
			if vseen[v] {
				return 0, fmt.Errorf("spec: axis %q: duplicate enum value %v", ax.Name, v)
			}
			vseen[v] = true
			if err := k.checkValue(v); err != nil {
				return 0, fmt.Errorf("spec: axis %q: %w", ax.Name, err)
			}
		}
		return len(ax.Values), nil
	case "":
		return 0, fmt.Errorf("spec: axis %q: missing \"kind\" (continuous|integer|bool|enum)", ax.Name)
	default:
		return 0, fmt.Errorf("spec: axis %q: unknown kind %q (continuous|integer|bool|enum)", ax.Name, ax.Kind)
	}
}

// gridCount returns the number of grid values min, min+step, ... <= max
// (a small tolerance keeps 0.1-style steps from dropping the endpoint).
func gridCount(min, max, step float64) int {
	return int(math.Floor((max-min)/step+1e-9)) + 1
}

// values enumerates the axis grid values after validation: floats and
// bools as float64 (bool as 0/1), enum strings as string.
func (ax *Axis) values() []any {
	switch ax.Kind {
	case "continuous", "integer":
		n := gridCount(*ax.Min, *ax.Max, *ax.Step)
		out := make([]any, n)
		for i := 0; i < n; i++ {
			v := *ax.Min + float64(i)**ax.Step
			if ax.Kind == "integer" {
				v = math.Round(v)
			}
			out[i] = v
		}
		return out
	case "bool":
		return []any{false, true}
	case "enum":
		return ax.Values
	}
	return nil
}

// canonicalAxes normalises each axis to the minimal field set for its
// kind, preserving axis order (order is semantic: it fixes point
// indices).
func canonicalAxes(axes []Axis) []any {
	out := make([]any, len(axes))
	for i, ax := range axes {
		m := map[string]any{"name": ax.Name, "kind": ax.Kind}
		switch ax.Kind {
		case "continuous", "integer":
			m["min"], m["max"] = *ax.Min, *ax.Max
			step := 1.0
			if ax.Step != nil {
				step = *ax.Step
			}
			m["step"] = step
		case "enum":
			m["values"] = ax.Values
		}
		out[i] = m
	}
	return out
}

// GridCanonical renders only the grid-defining parts — base and axes —
// in canonical form. This is the spec's evaluation identity: budget and
// seed are separate PointKey envelope fields, and objectives and
// constraints only shape job-level assembly, so specs that differ in
// nothing else share every cached point.
func (s *Spec) GridCanonical() []byte {
	doc := map[string]any{"axes": canonicalAxes(s.Axes)}
	if len(s.Base) > 0 {
		doc["base"] = s.Base
	}
	return mustMarshal(doc)
}

// Hash is the hex SHA-256 of GridCanonical, truncated to 16 bytes —
// the content address of the spec's design grid.
func (s *Spec) Hash() string {
	sum := sha256.Sum256(s.GridCanonical())
	return hex.EncodeToString(sum[:16])
}

// ScenarioName is the scenario identity spec-compiled grids carry in
// records, leases and cache keys. The "spec/" prefix keeps user grids
// disjoint from the compiled-in registry namespace.
func (s *Spec) ScenarioName() string { return "spec/" + s.Hash() }

// SweepBudget returns the parsed evaluation budget.
func (s *Spec) SweepBudget() sweep.Budget {
	b, err := sweep.ParseBudget(s.Budget)
	if err != nil {
		panic(fmt.Sprintf("spec: SweepBudget on unvalidated spec: %v", err))
	}
	return b
}

// mustMarshal marshals values that cannot fail (validated specs hold
// only finite numbers, bools and strings).
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("spec: canonical marshal: %v", err))
	}
	return b
}

// formatValue renders one grid value for point labels.
func formatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}
