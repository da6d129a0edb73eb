package service

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// This file is the read side of the tracing + fleet-analytics
// subsystem: the spans the dispatcher and manager record (and workers
// ship with completions) are served raw by JobTrace, derived into a
// phase timeline by JobTimeline, and the dispatcher's per-worker
// profiles are snapshotted by FleetStats. Everything here observes —
// nothing feeds back into scheduling or evaluation.

// ErrNoTrace means the manager runs without a trace collector
// (Options.Trace nil); the HTTP layer maps it to 404.
var ErrNoTrace = errors.New("service: tracing is disabled (daemon has no trace collector)")

// JobTrace returns every retained span of the job's trace, ordered by
// start time. A long-retired job may have had its spans evicted from
// the ring; the job itself must still be known.
func (m *Manager) JobTrace(id string) ([]obs.SpanRecord, error) {
	if !m.opts.Trace.Enabled() {
		return nil, ErrNoTrace
	}
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return m.opts.Trace.JobSpans(j.id), nil
}

// PhaseView is one daemon-side phase of a job's timeline (queued,
// dispatch, evaluate, assemble).
type PhaseView struct {
	Name            string    `json:"name"`
	StartedAt       time.Time `json:"started_at"`
	EndedAt         time.Time `json:"ended_at"`
	DurationSeconds float64   `json:"duration_seconds"`
}

// ChunkTiming is one chunk's lease-to-completion turnaround, with the
// worker that served it and the grid range it covered.
type ChunkTiming struct {
	Worker            string    `json:"worker"`
	LeasedAt          time.Time `json:"leased_at"`
	CompletedAt       time.Time `json:"completed_at"`
	TurnaroundSeconds float64   `json:"turnaround_seconds"`
	Start             int       `json:"start"`
	End               int       `json:"end"`
	Points            int       `json:"points"`
}

// Timeline is the derived where-did-the-wall-time-go view of one job:
// phase durations, the cache-hit versus computed split, and every
// chunk's turnaround. For a running job it covers the spans recorded
// so far; for a terminal job SpanCoverage says how much of the wall
// time the trace accounts for.
type Timeline struct {
	JobID   string `json:"job_id"`
	TraceID string `json:"trace_id"`
	State   State  `json:"state"`

	WallSeconds    float64 `json:"wall_seconds"`
	QueuedSeconds  float64 `json:"queued_seconds"`
	RunningSeconds float64 `json:"running_seconds"`

	CachedPoints   int `json:"cached_points"`
	ComputedPoints int `json:"computed_points"`

	Phases []PhaseView   `json:"phases"`
	Chunks []ChunkTiming `json:"chunks"`

	SpanCount int `json:"span_count"`
	// SpanCoverage is the fraction of the job's wall time covered by
	// the union of its phase and chunk spans — 1.0 means the trace
	// explains the whole wall clock, a low value means spans were
	// evicted or the job predates tracing.
	SpanCoverage float64 `json:"span_coverage"`
}

// JobTimeline derives the job's phase timeline from its retained
// spans and progress counters.
func (m *Manager) JobTimeline(id string) (Timeline, error) {
	if !m.opts.Trace.Enabled() {
		return Timeline{}, ErrNoTrace
	}
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Timeline{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	v := j.view()
	spans := m.opts.Trace.JobSpans(j.id)

	tl := Timeline{
		JobID:          j.id,
		TraceID:        j.traceID,
		State:          v.State,
		CachedPoints:   v.Progress.Cached,
		ComputedPoints: v.Progress.Done - v.Progress.Cached,
		SpanCount:      len(spans),
	}
	// Wall anchors: submission to terminal, or to "now" for a live job.
	end := m.opts.Clock()
	if v.FinishedAt != nil {
		end = *v.FinishedAt
	}
	tl.WallSeconds = clampSeconds(end.Sub(v.SubmittedAt))
	if v.StartedAt != nil {
		tl.QueuedSeconds = clampSeconds(v.StartedAt.Sub(v.SubmittedAt))
		tl.RunningSeconds = clampSeconds(end.Sub(*v.StartedAt))
	} else {
		tl.QueuedSeconds = tl.WallSeconds
	}

	var covered []obs.SpanRecord
	for _, s := range spans {
		switch {
		case s.Name == "chunk":
			tl.Chunks = append(tl.Chunks, chunkTiming(s))
		case s.ParentID == j.rootSpanID:
			tl.Phases = append(tl.Phases, PhaseView{
				Name:            s.Name,
				StartedAt:       s.Start,
				EndedAt:         s.End,
				DurationSeconds: clampSeconds(s.Duration()),
			})
		}
		if s.ParentID == j.rootSpanID {
			covered = append(covered, s)
		}
	}
	if tl.WallSeconds > 0 {
		tl.SpanCoverage = coveredSeconds(covered) / tl.WallSeconds
		if tl.SpanCoverage > 1 {
			tl.SpanCoverage = 1
		}
	}
	return tl, nil
}

// chunkTiming lifts one chunk span into its timeline row.
func chunkTiming(s obs.SpanRecord) ChunkTiming {
	atoi := func(k string) int {
		n, _ := strconv.Atoi(s.Attrs[k])
		return n
	}
	return ChunkTiming{
		Worker:            s.Worker,
		LeasedAt:          s.Start,
		CompletedAt:       s.End,
		TurnaroundSeconds: clampSeconds(s.Duration()),
		Start:             atoi("chunk_start"),
		End:               atoi("chunk_end"),
		Points:            atoi("points"),
	}
}

// coveredSeconds sums the union of the spans' [Start, End] intervals,
// so overlapping phases (a dispatch span and the chunks inside it)
// count once.
func coveredSeconds(spans []obs.SpanRecord) float64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, k int) bool { return spans[i].Start.Before(spans[k].Start) })
	total := 0.0
	curStart, curEnd := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start.After(curEnd) {
			total += clampSeconds(curEnd.Sub(curStart))
			curStart, curEnd = s.Start, s.End
			continue
		}
		if s.End.After(curEnd) {
			curEnd = s.End
		}
	}
	return total + clampSeconds(curEnd.Sub(curStart))
}

func clampSeconds(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return d.Seconds()
}

// WorkerProfile is one worker's throughput profile in the fleet
// analytics view — the heterogeneity signal per node.
type WorkerProfile struct {
	Name         string    `json:"name"`
	LastSeen     time.Time `json:"last_seen"`
	ActiveLeases int       `json:"active_leases"`
	ChunksDone   int       `json:"chunks_done"`
	PointsDone   int       `json:"points_done"`
	Failures     int       `json:"failures"`
	Stragglers   int       `json:"stragglers"`
	// EWMAPointsPerSec is the exponentially-weighted moving average of
	// the worker's chunk throughput (0 until a completion with
	// measurable turnaround).
	EWMAPointsPerSec float64 `json:"ewma_points_per_sec"`
	// Turnaround percentiles over the worker's recent chunks.
	TurnaroundP50Seconds float64 `json:"turnaround_p50_seconds"`
	TurnaroundP95Seconds float64 `json:"turnaround_p95_seconds"`
}

// FleetStats is the dispatcher's fleet-analytics snapshot.
type FleetStats struct {
	Workers []WorkerProfile `json:"workers"`
	// FleetMedianTurnaroundSeconds is the median over the recent
	// fleet-wide turnaround ring — the straggler rule's baseline.
	FleetMedianTurnaroundSeconds float64 `json:"fleet_median_turnaround_seconds"`
	TurnaroundSamples            int     `json:"turnaround_samples"`
	// StragglerFactor is k in the rule "turnaround > k x fleet median".
	StragglerFactor float64 `json:"straggler_factor"`
	StragglersTotal int     `json:"stragglers_total"`
}

// FleetStats snapshots per-worker throughput profiles and the
// straggler baseline. A worker appears once it has asked for a lease;
// the turnaround figures stay empty until chunks complete.
func (m *Manager) FleetStats() FleetStats {
	out := FleetStats{Workers: []WorkerProfile{}, StragglerFactor: stragglerFactor}
	d := m.dispatch
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock()
	active := make(map[string]int)
	for id, ref := range d.leases {
		t := ref.t
		if t.leaseID == id && !t.done && !t.cancelled && !now.After(t.expires) {
			active[ref.worker]++
		}
	}
	for name, ws := range d.fleet {
		p := WorkerProfile{
			Name:             name,
			LastSeen:         ws.lastSeen,
			ActiveLeases:     active[name],
			ChunksDone:       ws.chunksDone,
			PointsDone:       ws.pointsDone,
			Failures:         ws.failures,
			Stragglers:       ws.stragglers,
			EWMAPointsPerSec: ws.ewmaRate,
		}
		if len(ws.turns) > 0 {
			sorted := sortedCopy(ws.turns)
			p.TurnaroundP50Seconds = quantile(sorted, 0.50)
			p.TurnaroundP95Seconds = quantile(sorted, 0.95)
		}
		out.Workers = append(out.Workers, p)
		out.StragglersTotal += ws.stragglers
	}
	sort.Slice(out.Workers, func(i, k int) bool { return out.Workers[i].Name < out.Workers[k].Name })
	out.TurnaroundSamples = len(d.fleetTurns)
	if len(d.fleetTurns) > 0 {
		out.FleetMedianTurnaroundSeconds = medianOf(d.fleetTurns)
	}
	return out
}

// medianOf is the median of an unsorted sample set (input unmodified).
func medianOf(samples []float64) float64 {
	return quantile(sortedCopy(samples), 0.50)
}

func sortedCopy(samples []float64) []float64 {
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return sorted
}

// quantile reads q from an ascending sample set by nearest rank —
// exact enough for operator-facing percentiles over <= 256 samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
