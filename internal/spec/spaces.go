package spec

import (
	"repro/internal/core"
	"repro/internal/search"
)

// knobParam turns the catalog knob name into a search parameter over
// [lo, hi]. kind is "continuous", "integer" or "bool": the knob's own
// kind for a built-in space, the axis kind for a spec (an integer axis
// may search a continuous knob in whole steps). A bool parameter always
// spans [0, 1].
func knobParam(name, kind string, lo, hi float64) search.Param {
	k := knobs[name]
	if kind == string(search.Bool) {
		return search.NewParam(name, search.Bool, 0, 1,
			func(sp *core.SystemSpec, v float64) { k.set(sp, v != 0) })
	}
	return search.NewParam(name, search.Kind(kind), lo, hi,
		func(sp *core.SystemSpec, v float64) { k.set(sp, v) })
}

// bound is one searched knob of a built-in space.
type bound struct {
	knob   string
	lo, hi float64
}

// builtins mirror the registered sweep scenarios: each relaxes the
// dimensions its namesake grid enumerates into continuous bounds (so
// the optimizer can land between the grid's cells) over the same base
// spec, the paper default with base's knobs overridden. full-design
// opens every knob at once. Bounds are listed in parameter order.
var builtins = []struct {
	name, description string
	base              map[string]float64
	bounds            []bound
}{
	{"paper-baseline", "the paper's 4-board box: decode-latency budget and beamforming realisation",
		nil,
		[]bound{{"latency-budget-bits", 100, 400}, {"butler", 0, 1}}},
	{"dense-rack", "datacenter rack density: board count against per-link rate",
		map[string]float64{"nodes-per-board": 16, "board-spacing-m": 0.05, "stack-injection-rate": 0.15},
		[]bound{{"boards", 8, 16}, {"link-rate-gbps", 50, 200}}},
	{"embedded-box", "small sealed enclosure: board count against modest link rates",
		map[string]float64{"board-spacing-m": 0.05, "board-edge-m": 0.05, "nodes-per-board": 4,
			"latency-budget-bits": 100, "stack-modules": 16, "stack-injection-rate": 0.05},
		[]bound{{"boards", 2, 3}, {"link-rate-gbps", 10, 50}}},
	{"manycore", "many-stack manycore: NiCS module count against injection load",
		nil,
		[]bound{{"stack-modules", 64, 512}, {"stack-injection-rate", 0.05, 0.15}}},
	{"butler-vs-steered", "beamforming realisation against board spacing",
		nil,
		[]bound{{"butler", 0, 1}, {"board-spacing-m", 0.05, 0.2}}},
	{"full-design", "every SystemSpec knob at once: the widest search the evaluator supports",
		nil,
		[]bound{{"boards", 2, 16}, {"nodes-per-board", 4, 16}, {"board-spacing-m", 0.05, 0.2},
			{"link-rate-gbps", 10, 200}, {"latency-budget-bits", 100, 400}, {"stack-modules", 16, 512},
			{"stack-injection-rate", 0.05, 0.15}, {"butler", 0, 1}}},
}

func init() {
	for _, s := range builtins {
		base := core.DefaultSpec()
		for name, v := range s.base {
			knobs[name].set(&base, v)
		}
		params := make([]search.Param, len(s.bounds))
		for i, b := range s.bounds {
			params[i] = knobParam(b.knob, knobs[b.knob].axisKind(), b.lo, b.hi)
		}
		search.Register(search.Space{
			Name:        s.name,
			Description: s.description,
			Base:        func() core.SystemSpec { return cloneSpec(base) },
			Params:      params,
		})
	}
}
