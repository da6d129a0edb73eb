package search

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
)

// Kind classifies a searchable parameter.
type Kind string

const (
	// Continuous parameters take any value in [Min, Max].
	Continuous Kind = "continuous"
	// Integer parameters are rounded to the nearest whole value.
	Integer Kind = "integer"
	// Bool parameters threshold the gene at 0.5 (Min 0, Max 1).
	Bool Kind = "bool"
)

// Param declares one searchable dimension of a core.SystemSpec. The
// optimizer works on raw float64 genes in [Min, Max]; Decode snaps a
// gene to the parameter's kind (rounding integers, thresholding bools)
// and Apply writes the decoded value into a spec.
type Param struct {
	Name string  `json:"name"`
	Kind Kind    `json:"kind"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// apply writes the decoded value (for Bool: 0 or 1) into the spec.
	apply func(*core.SystemSpec, float64)
}

// NewParam constructs a parameter; package spec builds every space's
// parameters with it from its knob catalog. apply receives the decoded
// value — for Bool parameters 0 or 1 — and writes it into the spec
// being materialised.
func NewParam(name string, kind Kind, min, max float64, apply func(*core.SystemSpec, float64)) Param {
	return Param{Name: name, Kind: kind, Min: min, Max: max, apply: apply}
}

// Decode snaps a raw gene to the parameter's domain: clamped to
// [Min, Max], rounded for Integer, thresholded at 0.5 for Bool.
func (p Param) Decode(gene float64) float64 {
	if math.IsNaN(gene) {
		gene = p.Min
	}
	gene = math.Min(math.Max(gene, p.Min), p.Max)
	switch p.Kind {
	case Integer:
		return math.Round(gene)
	case Bool:
		if gene >= 0.5 {
			return 1
		}
		return 0
	}
	return gene
}

// Space is a named, bounded region of the SystemSpec design space: a
// base specification plus the parameters the optimizer may vary. Spaces
// are immutable after registration and safe for concurrent use.
type Space struct {
	Name        string
	Description string
	// Base returns the spec the parameters are applied onto; fields no
	// Param covers keep the base value for every individual.
	Base   func() core.SystemSpec
	Params []Param
}

// Decode materialises a genome (one raw gene per Param, in Params
// order) into a concrete SystemSpec.
func (s Space) Decode(genome []float64) core.SystemSpec {
	spec := s.Base()
	for i, p := range s.Params {
		p.apply(&spec, p.Decode(genome[i]))
	}
	return spec
}

// ScenarioName is the scenario string optimizer evaluations carry in
// records and cache keys. The "optimize/" prefix keeps them disjoint
// from grid-scenario keys in a shared result store.
func (s Space) ScenarioName() string { return "optimize/" + s.Name }

// Validate checks the space invariants. Register calls it (and panics)
// for compiled-in spaces; dynamically compiled spaces that never enter
// the registry call it directly and surface the error to the user.
func (s Space) Validate() error {
	if s.Name == "" || s.Base == nil || len(s.Params) == 0 {
		return fmt.Errorf("search: space needs a name, a base spec and at least one parameter")
	}
	seen := map[string]bool{}
	for _, p := range s.Params {
		switch {
		case p.Name == "" || p.apply == nil:
			return fmt.Errorf("search: space %q has a parameter without name or setter", s.Name)
		case seen[p.Name]:
			return fmt.Errorf("search: space %q declares parameter %q twice", s.Name, p.Name)
		case !(p.Min < p.Max):
			return fmt.Errorf("search: space %q parameter %q has empty bounds [%g, %g]", s.Name, p.Name, p.Min, p.Max)
		case p.Kind == Bool && (p.Min != 0 || p.Max != 1):
			return fmt.Errorf("search: space %q bool parameter %q must span [0, 1]", s.Name, p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}

var (
	regMu    sync.RWMutex
	registry = map[string]Space{}
)

// Register adds a space to the catalog; it panics on an invalid or
// duplicate space, since both are programming errors.
func Register(s Space) {
	if err := s.Validate(); err != nil {
		panic(err.Error())
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("search: duplicate space %q", s.Name))
	}
	registry[s.Name] = s
}

// Get returns the named space.
func Get(name string) (Space, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return Space{}, fmt.Errorf("search: unknown space %q (have %v)", name, namesLocked())
	}
	return s, nil
}

// Names lists the registered spaces in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
