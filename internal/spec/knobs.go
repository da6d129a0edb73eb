package spec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// knobKind classifies a catalog knob's value type.
type knobKind string

const (
	knobFloat  knobKind = "continuous"
	knobInt    knobKind = "integer"
	knobBool   knobKind = "bool"
	knobString knobKind = "string"
)

// knob is one settable dimension of a core.SystemSpec exposed to spec
// documents. set receives a validated value: float64 for numeric knobs,
// bool for boolean knobs, string for string knobs.
type knob struct {
	kind knobKind
	// enum constrains string knobs to these values.
	enum []string
	// check rejects out-of-domain numeric values early with a better
	// message than evaluation-time SystemSpec.Validate would give.
	check func(float64) error
	set   func(*core.SystemSpec, any)
}

// axisKind names the axis kind that matches the knob's value type.
func (k *knob) axisKind() string {
	switch k.kind {
	case knobBool:
		return "bool"
	case knobString:
		return "enum"
	case knobInt:
		return "integer"
	}
	return "continuous"
}

// checkValue validates one JSON-decoded value against the knob.
func (k *knob) checkValue(v any) error {
	switch k.kind {
	case knobBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("want a boolean, got %v", v)
		}
		return nil
	case knobString:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("want one of %v, got %v", k.enum, v)
		}
		for _, e := range k.enum {
			if s == e {
				return nil
			}
		}
		return fmt.Errorf("want one of %v, got %q", k.enum, s)
	}
	f, ok := v.(float64)
	if !ok {
		return fmt.Errorf("want a number, got %v", v)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("want a finite number, got %g", f)
	}
	if k.kind == knobInt && f != math.Trunc(f) {
		return fmt.Errorf("want a whole number, got %g", f)
	}
	if k.check != nil {
		return k.check(f)
	}
	return nil
}

// atLeast returns a lower-bound check with the given unit in messages.
func atLeast(min float64, unit string) func(float64) error {
	return func(v float64) error {
		if v < min {
			return fmt.Errorf("must be >= %g%s, got %g", min, unit, v)
		}
		return nil
	}
}

// positive requires a strictly positive value.
func positive(unit string) func(float64) error {
	return func(v float64) error {
		if v <= 0 {
			return fmt.Errorf("must be positive%s, got %g", unit, v)
		}
		return nil
	}
}

// inRange requires lo <= v <= hi.
func inRange(lo, hi float64) func(float64) error {
	return func(v float64) error {
		if v < lo || v > hi {
			return fmt.Errorf("must be in [%g, %g], got %g", lo, hi, v)
		}
		return nil
	}
}

// ensureTraffic returns the spec's traffic section, creating it.
func ensureTraffic(s *core.SystemSpec) *core.TrafficSpec {
	if s.Traffic == nil {
		s.Traffic = &core.TrafficSpec{Pattern: core.TrafficUniform}
	}
	return s.Traffic
}

// ensureInterference returns the interference section, creating it.
func ensureInterference(s *core.SystemSpec) *core.InterferenceSpec {
	if s.Interference == nil {
		s.Interference = &core.InterferenceSpec{}
	}
	return s.Interference
}

// ensurePower returns the power section, creating it.
func ensurePower(s *core.SystemSpec) *core.PowerSpec {
	if s.Power == nil {
		s.Power = &core.PowerSpec{}
	}
	return s.Power
}

// knobs is the catalog of spec-settable SystemSpec dimensions. The
// built-in search spaces (spaces.go) are bounds over these knobs, so a
// search parameter is named by its knob and a spec reads the same
// whether it compiles to a grid or a search space.
var knobs = map[string]*knob{
	"boards": {kind: knobInt, check: atLeast(1, " boards"),
		set: func(s *core.SystemSpec, v any) { s.Boards = int(v.(float64)) }},
	"board-spacing-m": {kind: knobFloat, check: positive(" metres"),
		set: func(s *core.SystemSpec, v any) { s.BoardSpacingM = v.(float64) }},
	"board-edge-m": {kind: knobFloat, check: positive(" metres"),
		set: func(s *core.SystemSpec, v any) { s.BoardEdgeM = v.(float64) }},
	"nodes-per-board": {kind: knobInt, check: atLeast(1, " nodes"),
		set: func(s *core.SystemSpec, v any) { s.NodesPerBoard = int(v.(float64)) }},
	"link-rate-gbps": {kind: knobFloat, check: positive(" Gbit/s"),
		set: func(s *core.SystemSpec, v any) { s.LinkRateGbps = v.(float64) }},
	"latency-budget-bits": {kind: knobInt, check: atLeast(75, " bits (the smallest window decoder)"),
		set: func(s *core.SystemSpec, v any) { s.LatencyBudgetBits = int(v.(float64)) }},
	"stack-modules": {kind: knobInt, check: atLeast(2, " modules"),
		set: func(s *core.SystemSpec, v any) { s.StackModules = int(v.(float64)) }},
	"stack-injection-rate": {kind: knobFloat, check: positive(" flits/cycle/module"),
		set: func(s *core.SystemSpec, v any) { s.StackInjectionRate = v.(float64) }},
	"butler": {kind: knobBool,
		set: func(s *core.SystemSpec, v any) { s.Butler = v.(bool) }},
	"snr-margin-db": {kind: knobFloat, check: atLeast(0, " dB"),
		set: func(s *core.SystemSpec, v any) { s.SNRMarginDB = v.(float64) }},

	// Traffic section: the bursty/hotspot NoC family.
	"traffic-pattern": {kind: knobString,
		enum: []string{core.TrafficUniform, core.TrafficHotspot, core.TrafficBitComplement},
		set:  func(s *core.SystemSpec, v any) { ensureTraffic(s).Pattern = v.(string) }},
	"traffic-hotspot-module": {kind: knobInt, check: atLeast(0, ""),
		set: func(s *core.SystemSpec, v any) { ensureTraffic(s).HotspotModule = int(v.(float64)) }},
	"traffic-hotspot-fraction": {kind: knobFloat, check: inRange(0, 1),
		set: func(s *core.SystemSpec, v any) { ensureTraffic(s).HotspotFraction = v.(float64) }},

	// Interference section: the interference-limited multi-board family.
	"interference-neighbors": {kind: knobInt, check: atLeast(0, " links"),
		set: func(s *core.SystemSpec, v any) { ensureInterference(s).Neighbors = int(v.(float64)) }},
	"interference-copper-boards": {kind: knobBool,
		set: func(s *core.SystemSpec, v any) { ensureInterference(s).CopperBoards = v.(bool) }},
	"interference-rejection-db": {kind: knobFloat, check: atLeast(0, " dB"),
		set: func(s *core.SystemSpec, v any) { ensureInterference(s).RejectionDB = v.(float64) }},

	// Power section: the thermally constrained stack family.
	"max-tx-power-dbm": {kind: knobFloat,
		set: func(s *core.SystemSpec, v any) { ensurePower(s).MaxTxPowerDBm = v.(float64) }},
}

// knobByName resolves a catalog knob with a did-you-mean-free but
// complete error.
func knobByName(name string) (*knob, error) {
	k, ok := knobs[name]
	if !ok {
		return nil, fmt.Errorf("unknown knob %q (have %v)", name, Knobs())
	}
	return k, nil
}

// Knobs lists the catalog knob names in sorted order.
func Knobs() []string {
	out := make([]string, 0, len(knobs))
	for n := range knobs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// KnobKind reports the value kind of a catalog knob ("continuous",
// "integer", "bool" or "string") for catalog listings.
func KnobKind(name string) (string, error) {
	k, err := knobByName(name)
	if err != nil {
		return "", err
	}
	return string(k.kind), nil
}
