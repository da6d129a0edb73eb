package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The CLI keeps three registries that must stay mutually consistent:
// the runner and ablation maps and the two ordered execution lists.

func TestOrderMatchesRunners(t *testing.T) {
	if len(order) != len(runners) {
		t.Errorf("order lists %d experiments, runners map has %d", len(order), len(runners))
	}
	seen := map[string]bool{}
	for _, name := range order {
		if seen[name] {
			t.Errorf("experiment %q ordered twice", name)
		}
		seen[name] = true
		if runners[name] == nil {
			t.Errorf("ordered experiment %q has no runner", name)
		}
	}
	for name := range runners {
		if !seen[name] {
			t.Errorf("runner %q missing from the 'all' order", name)
		}
	}
}

func TestAblationOrderMatchesAblations(t *testing.T) {
	if len(ablationOrder) != len(ablations) {
		t.Errorf("ablationOrder lists %d, ablations map has %d", len(ablationOrder), len(ablations))
	}
	seen := map[string]bool{}
	for _, name := range ablationOrder {
		if seen[name] {
			t.Errorf("ablation %q ordered twice", name)
		}
		seen[name] = true
		if ablations[name] == nil {
			t.Errorf("ordered ablation %q has no runner", name)
		}
	}
	for name := range ablations {
		if !seen[name] {
			t.Errorf("ablation %q missing from the ablation order", name)
		}
	}
}

func TestNoNameCollisionBetweenMaps(t *testing.T) {
	for name := range runners {
		if _, clash := ablations[name]; clash {
			t.Errorf("%q registered as both experiment and ablation", name)
		}
	}
}

func TestResolve(t *testing.T) {
	for _, name := range order {
		if fn, err := resolve(name); err != nil || fn == nil {
			t.Errorf("resolve(%q) = %v", name, err)
		}
	}
	for _, name := range ablationOrder {
		if fn, err := resolve(name); err != nil || fn == nil {
			t.Errorf("resolve(%q) = %v", name, err)
		}
	}
	if _, err := resolve("fig99"); err == nil {
		t.Error("unknown experiment resolved without error")
	}
}

// TestRunStdoutReproducible: the tables go to stdout and the wall time
// to stderr, so two runs of one experiment print identical stdout.
func TestRunStdoutReproducible(t *testing.T) {
	var out [2]bytes.Buffer
	var errOut bytes.Buffer
	for i := range out {
		run(&out[i], &errOut, "fig5", runners["fig5"], experiments.Smoke)
	}
	if out[0].Len() == 0 || !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("two runs of fig5 printed different stdout:\n%s\n---\n%s", out[0].Bytes(), out[1].Bytes())
	}
	if strings.Contains(out[0].String(), "completed in") {
		t.Errorf("stdout carries the wall time:\n%s", out[0].Bytes())
	}
	if got := strings.Count(errOut.String(), "[fig5 completed in "); got != 2 {
		t.Errorf("stderr has %d wall-time lines, want 2:\n%s", got, errOut.Bytes())
	}
}
