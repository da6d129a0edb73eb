// Package search turns the fixed-grid design-space sweeps into an
// adaptive multi-objective optimization: instead of enumerating a
// hand-written scenario grid, an NSGA-II-style evolutionary optimizer
// walks a declared parameter space (continuous, integer and boolean
// core.SystemSpec dimensions with bounds) and concentrates evaluations
// on the Pareto-optimal region between grid cells.
//
// The optimizer is built from the classic NSGA-II operators — fast
// non-dominated sorting, crowding-distance diversity preservation,
// binary crowded tournament selection, blend (BLX-alpha) crossover and
// bounded Gaussian mutation — implemented with deterministic tie-breaks
// throughout, so a run is a pure function of (space, objectives, seed,
// generations, population).
//
// Determinism contract (see ARCHITECTURE.md): every random decision
// draws from an rng.Split sub-stream that is a pure function of the
// root seed, the generation number and the individual index. Genome
// construction happens on the coordinating goroutine; evaluation fans
// out through sweep.EvaluatePoints, whose Monte-Carlo sub-models draw
// from streams that depend only on (seed, sub-model content), never on
// which generation or chunk a point arrives in. The result is byte-identical
// fronts for 1 worker, N goroutines, or a distributed worker fleet —
// and because every evaluated individual flows through the same
// sweep.PointKey content addressing as grid sweeps, a re-run against a
// warm result store evaluates zero new points.
//
// Spaces mirror the registered sweep scenarios (a ready-made Space per
// scenario varying the dimensions that scenario's grid enumerates) plus
// a wide "full-design" space over every SystemSpec knob at once.
// Objectives are picked by name from an extensible catalog; the default
// triple (tx-power, decode-latency, noc-saturation) matches the grid
// engine's Pareto marking.
package search
