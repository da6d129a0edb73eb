package core

import (
	"testing"
)

func TestCandidateTopologiesCoverRequestedModules(t *testing.T) {
	// The candidate generator must propose valid meshes whose module
	// counts are at least the requested size for any plausible request,
	// including non-squares, non-cubes and odd counts.
	for _, modules := range []int{2, 5, 7, 16, 60, 64, 100, 250, 512, 1000} {
		cands := CandidateTopologies(modules)
		if len(cands) == 0 {
			t.Fatalf("%d modules: no candidates", modules)
		}
		for _, c := range cands {
			if c.NumModules() < modules-c.Concentration() {
				t.Errorf("%d modules: candidate %s provides only %d",
					modules, c.Name(), c.NumModules())
			}
		}
	}
}

func TestDesignSystemOddStackSizes(t *testing.T) {
	// The full pipeline must not choke on awkward module counts.
	for _, modules := range []int{17, 50, 100} {
		spec := DefaultSpec()
		spec.StackModules = modules
		spec.StackInjectionRate = 0.05
		d, err := DesignSystem(spec)
		if err != nil {
			t.Fatalf("%d modules: %v", modules, err)
		}
		if d.Stack.Topology.NumModules() < modules-d.Stack.Topology.Concentration() {
			t.Errorf("%d modules: chosen stack %s too small", modules, d.Stack.Topology.Name())
		}
	}
}
