// Package sweep is the design-space exploration engine of the
// repository: it turns the one-at-a-time core.DesignSystem workflow into
// named, reproducible scenario sweeps with structured results.
//
// The subsystem has four parts:
//
//   - A scenario registry (Register/Get/Names) of composable system
//     scenarios — the paper baseline, a dense datacenter rack, an
//     embedded box, a many-stack manycore, and a Butler-versus-steered
//     beamforming study — each generating a grid of core.SystemSpec
//     points.
//
//   - A parallel executor (Run, built on Map) that evaluates grid
//     points on a bounded worker pool sized by runtime.NumCPU(),
//     honours context cancellation, and runs each distinct Monte-Carlo
//     sub-model (a code's BER, a stack's simulated latency) once per
//     call on an rng.Stream.Split stream keyed by its content, so
//     results are byte-identical for any worker count.
//
//   - An adaptive Monte-Carlo budget controller (MeanEstimator and the
//     RelCI/DecisiveBER fields of ldpc.BERParams) that stops a point's
//     simulation early once its BER or latency confidence interval is
//     tight enough.
//
//   - Structured results: one typed Record per point with JSON and CSV
//     emitters, plus the record-metric catalog (pareto.go) and the one
//     Pareto rule every job's front is marked by: a job names its
//     objectives from the catalog (default transmit power, decode
//     latency, NoC saturation) and its constraints bound catalog
//     metrics.
//
// cmd/sweep exposes the registry and executor on the command line;
// internal/experiments routes its figure grids through Map so the
// paper's curves parallelize the same way.
//
// Above the engine sits a serving layer, split in two. The store half
// (sweep/store) owns persistence: every evaluated point is addressed by
// PointKey — a canonical hash of (engine version, scenario, point,
// budget, seed) — and kept in append-only JSON-lines segments, so any
// rerun, crash recovery or budget upgrade reuses every point already
// computed anywhere. The service half (internal/service) owns
// scheduling: a priority FIFO queue and a bounded-concurrency job
// manager drive sweeps through Run with per-job cancellation and
// progress counters, reading through the shared store. The split keeps
// responsibilities disjoint — the store never runs a sweep and the
// service never touches disk — and lets cmd/sweep (one-shot CLI) and
// cmd/sweepd (HTTP daemon) share one cache via Config.Cache.
//
// The same purity that makes Map worker-count-independent makes sweeps
// machine-count-independent: a slice of design points plus (scenario
// name, budget name, seed) is everything a stateless process needs to
// reproduce those records exactly, because every sub-model's stream is
// rng.New(seed).Split(hash of its content key) regardless of who
// evaluates it or which points it shares a call with.
// EvaluatePoints is that contract as an API: over any list of points
// (the points of a Chunk the dispatcher cuts from a batch's dispatch
// order, say) it yields exactly the records Run gives those points. The
// service layer's dispatcher and
// cmd/sweepworker build the distributed fleet on top — every lease
// carries its points, so workers never rebuild a grid — and an N-worker
// fleet's merged records are byte-identical to a single-node Run. See
// ARCHITECTURE.md for the full layer map.
package sweep
