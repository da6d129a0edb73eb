// Package service turns the one-shot sweep executor into a long-running
// job service: submitted sweeps wait in a priority FIFO queue, a
// bounded-concurrency scheduler runs them through the engine (optionally
// read-through a shared result store), and every job is observable
// (progress counters) and cancellable (per-job contexts) while the
// whole manager shuts down gracefully. cmd/sweepd fronts a Manager with
// an HTTP API; see NewHandler and docs/api.md.
//
// In distributed mode the manager stops evaluating in-process and
// becomes a dispatcher: each job's grid is cut into sweep.Chunks,
// workers lease chunks (Lease), keep them alive (Heartbeat) and post
// records back (Complete), and a worker that dies mid-chunk simply
// stops heartbeating — its lease expires and the chunk is re-queued for
// someone else. Workers are stateless: the per-point rng.Split
// determinism contract means any worker reproduces exactly the records
// a single-node run would, so completions are idempotent and an
// N-worker fleet's merged result is byte-identical to one process's.
// RunWorker is the worker loop, driven either in-process against a
// *Manager (cmd/sweepd's local-workers fallback) or over HTTP through
// *Client (cmd/sweepworker).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job kinds: a grid sweep of a registered scenario, or an adaptive
// multi-objective optimization over a registered search space.
const (
	KindSweep    = "sweep"
	KindOptimize = "optimize"
)

// Request describes one job submission.
type Request struct {
	// Kind selects the job type: "sweep" (default) enumerates a
	// scenario grid, "optimize" runs the adaptive multi-objective
	// optimizer over a search space.
	Kind string `json:"kind,omitempty"`
	// Scenario names a registered sweep scenario (kind "sweep").
	Scenario string `json:"scenario,omitempty"`
	// Spec is an inline declarative scenario specification (see the spec
	// package and docs/specs.md): a user-defined parameter grid that is
	// compiled at submission instead of naming a registry entry. Mutually
	// exclusive with Scenario and Space; valid for both kinds — a spec
	// sweep enumerates the grid, a spec optimize searches the axes'
	// ranges. The spec's budget, objectives and constraints apply unless
	// the request's own fields override them.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Budget is the Monte-Carlo effort: analytic, smoke or standard
	// (empty = analytic).
	Budget string `json:"budget"`
	// Seed roots the deterministic Monte-Carlo sub-model streams.
	Seed uint64 `json:"seed"`
	// Priority orders the queue: higher runs first, ties FIFO.
	Priority int `json:"priority"`
	// Workers bounds the job's point-evaluation pool (0 = NumCPU).
	Workers int `json:"workers"`

	// Optimize-only fields (kind "optimize").

	// Space names a registered search space.
	Space string `json:"space,omitempty"`
	// Objectives picks the Pareto axes by name (empty = the default
	// tx-power/decode-latency/noc-saturation trio).
	Objectives []string `json:"objectives,omitempty"`
	// Generations and Population shape the search (0 = the search
	// package defaults). Population must be even and at least 4.
	Generations int `json:"generations,omitempty"`
	Population  int `json:"population,omitempty"`
}

// Progress counts a job's points by fate.
type Progress struct {
	Total   int `json:"total"`
	Done    int `json:"done"`
	Cached  int `json:"cached"`
	Pending int `json:"pending"`
}

// JobView is an immutable snapshot of a job, safe to serialize.
type JobView struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Scenario is the grid identity records carry: the registry name for
	// registered sweeps, "spec/<hash>" for spec-defined ones.
	Scenario string `json:"scenario,omitempty"`
	// Spec is the user-chosen name of the submitted spec document, empty
	// for registry jobs.
	Spec        string     `json:"spec,omitempty"`
	Space       string     `json:"space,omitempty"`
	Objectives  []string   `json:"objectives,omitempty"`
	Generations int        `json:"generations,omitempty"`
	Population  int        `json:"population,omitempty"`
	Budget      string     `json:"budget"`
	Seed        uint64     `json:"seed"`
	Priority    int        `json:"priority"`
	State       State      `json:"state"`
	Progress    Progress   `json:"progress"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// job is the manager's mutable record of one submission.
type job struct {
	id  string
	seq uint64
	req Request
	// plan is the resolved request: kind, budget, feasibility and the
	// grid or normalized search options (Evaluate and OnGeneration are
	// filled in at run time). Immutable after Submit.
	plan Plan
	// pts is a sweep's grid (nil for optimizations). It is released when
	// the job reaches a terminal state, so retained jobs keep only their
	// result; written under mu, read by execute once the job runs.
	pts   []sweep.Point
	total int
	// scenarioName is plan.ScenarioName(), the scenario string in
	// records, leases and cache keys.
	scenarioName string
	// keyer computes the job's cache keys; (scenario, budget, seed) are
	// fixed per job, so the key envelope renders once. Set after
	// scenarioName, read concurrently by the dispatcher's cache
	// pre-pass and chunk completions (Keyer is immutable).
	keyer *sweep.Keyer
	// traceID and rootSpanID are minted at Submit when the manager has
	// a trace collector ("" otherwise) and never change, so they are
	// readable without j.mu: traceID names the job's distributed trace
	// and rides every lease, rootSpanID is the root span the phase and
	// chunk spans parent under.
	traceID    string
	rootSpanID string

	// done and cached are updated from sweep workers; everything under
	// mu is updated by the scheduler and Cancel.
	done   atomic.Int64
	cached atomic.Int64

	mu        sync.Mutex
	state     State
	errMsg    string
	result    *sweep.Result
	gens      []search.Generation
	cancel    context.CancelFunc
	submitted time.Time
	started   time.Time
	finished  time.Time

	// changed (under mu) is closed, and replaced by a fresh channel,
	// whenever a generation is appended and when the job turns
	// terminal: every generations stream parked on the old channel
	// wakes and re-reads.
	changed chan struct{}
}

// changedLocked wakes every reader parked on the job's current change
// channel. Callers hold j.mu and have just changed what Generations
// reports.
func (j *job) changedLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// appendGeneration records one finished optimizer generation and wakes
// the job's generations streams.
func (j *job) appendGeneration(g search.Generation) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.gens = append(j.gens, g)
	j.changedLocked()
}

// view snapshots the job.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	done := int(j.done.Load())
	v := JobView{
		ID:          j.id,
		Kind:        j.plan.Kind,
		Spec:        j.plan.SpecName,
		Budget:      j.plan.Budget.Name,
		Seed:        j.req.Seed,
		Priority:    j.req.Priority,
		State:       j.state,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
		Progress: Progress{
			Total:   j.total,
			Done:    done,
			Cached:  int(j.cached.Load()),
			Pending: j.total - done,
		},
	}
	if j.plan.Kind == KindSweep {
		v.Scenario = j.scenarioName
	}
	if j.plan.Kind == KindOptimize {
		v.Space = j.plan.Search.Space.Name
		for _, o := range j.plan.Search.Objectives {
			v.Objectives = append(v.Objectives, o.Name)
		}
		v.Generations = j.plan.Search.Generations
		v.Population = j.plan.Search.Population
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// Sentinel errors of the manager API.
var (
	ErrShutdown   = errors.New("service: manager is shut down")
	ErrUnknownJob = errors.New("service: unknown job")
	ErrNotDone    = errors.New("service: job has no result yet")
	// ErrBadRequest marks submissions rejected before queueing (unknown
	// kind, malformed shape); the HTTP layer maps it to 400.
	ErrBadRequest = errors.New("service: invalid request")
	// ErrBadSpec marks submissions whose inline spec fails to parse,
	// validate or compile; the HTTP layer maps it to 400 with the
	// "spec_invalid" error code, and the wrapped message names the
	// offending field.
	ErrBadSpec = errors.New("service: invalid spec")
)

// Options tunes a Manager.
type Options struct {
	// JobWorkers bounds how many jobs run concurrently (default 2).
	// Each job additionally parallelizes across grid points.
	JobWorkers int
	// Cache, when non-nil, is threaded into every job's sweep.Config so
	// all jobs dedup against one shared result store.
	Cache sweep.Cache
	// RetainJobs caps how many jobs (and their results) the manager
	// keeps: once exceeded, the oldest terminal jobs are evicted at the
	// next Submit. Queued and running jobs are never evicted. Default
	// 256; a long-lived daemon stays bounded while the result store
	// keeps the computed points themselves forever.
	RetainJobs int
	// Distributed switches job execution from the in-process sweep
	// engine to the chunk dispatcher: jobs are cut into Chunks and
	// served to workers over Lease/Heartbeat/Complete (in-process via
	// RunWorker(m) or remote via cmd/sweepworker). Off, jobs run
	// in-process exactly as before.
	Distributed bool
	// ChunkPoints caps how many grid points one lease carries
	// (default 4). Smaller chunks spread a job across more workers;
	// larger chunks amortise lease round-trips.
	ChunkPoints int
	// LeaseTTL is how long a worker owns a leased chunk before the
	// dispatcher re-queues it for someone else; heartbeats extend it
	// (default 30s).
	LeaseTTL time.Duration
	// Clock stubs time.Now in tests (nil = time.Now).
	Clock func() time.Time
	// StoreStats, when non-nil, snapshots the backing result store's
	// aggregate and per-shard counters. It powers GET /api/v1/store and
	// the healthz cache-hit-rate field; a daemon running without a
	// persistent store leaves it nil and the endpoint answers 404.
	StoreStats func() (store.Stats, []store.Stats)
	// Metrics is the registry the manager's metric families register on
	// (nil = a private registry). cmd/sweepd passes one registry shared
	// with the result store so GET /metrics exposes every layer.
	Metrics *obs.Registry
	// Trace, when non-nil, collects distributed-trace spans: every
	// submitted job gets a trace ID, leases carry it to workers, and
	// the job's phase, chunk and worker spans land in this bounded ring
	// — served at GET /api/v1/jobs/{id}/trace and derived into the
	// timeline endpoint. Nil disables tracing; like Metrics and Logger
	// it only observes, so results are byte-identical either way.
	Trace *obs.Collector
	// Logger receives structured job and lease lifecycle events
	// (nil = discard). Metrics observe, logs narrate; neither influences
	// results.
	Logger *slog.Logger
}

// Manager owns the queue, the scheduler pool and the job table.
type Manager struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	met    *serviceMetrics
	log    *slog.Logger

	// evaluate runs one batch of a job's points — the whole grid of a
	// sweep, one generation of an optimization — and returns the records
	// in batch order plus how many came from the cache. New sets it once:
	// dispatchBatch in distributed mode, evaluateInProcess otherwise.
	// Tests replace it to control job timing.
	evaluate func(ctx context.Context, j *job, pts []sweep.Point) ([]sweep.Record, int, error)

	// dispatch is non-nil in distributed mode: it owns the chunk queue
	// and lease table served to workers.
	dispatch *dispatcher

	// started anchors the uptime gauge and the /healthz uptime field.
	started time.Time

	mu     sync.Mutex
	cond   *sync.Cond
	queue  jobQueue
	jobs   map[string]*job
	order  []string
	seq    uint64
	closed bool
}

// New starts a Manager with opts.JobWorkers scheduler goroutines.
func New(opts Options) *Manager {
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 2
	}
	if opts.RetainJobs <= 0 {
		opts.RetainJobs = 256
	}
	if opts.ChunkPoints <= 0 {
		opts.ChunkPoints = 4
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := opts.Logger
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts: opts,
		met:  newServiceMetrics(reg),
		log:  logger,
		jobs: make(map[string]*job),
	}
	m.ctx = ctx
	m.cancel = cancel
	m.started = opts.Clock()
	// Build identity and uptime: constant facts an operator joins
	// against, not per-request series, so one gauge each.
	build := obs.Build()
	reg.Gauge("sweepd_build_info",
		"Build metadata of the serving binary; the value is always 1.",
		"engine", "go_version", "revision").
		With(strconv.Itoa(sweep.EngineVersion), build.GoVersion, build.Revision).Set(1)
	reg.GaugeFunc("sweepd_uptime_seconds",
		"Seconds since the job manager started.", nil,
		func(emit func(float64, ...string)) {
			emit(m.Uptime().Seconds())
		})
	reg.GaugeFunc("sweepd_job_queue_depth",
		"Jobs waiting in the priority queue.", nil,
		func(emit func(float64, ...string)) {
			queued, _ := m.InFlight()
			emit(float64(queued))
		})
	reg.GaugeFunc("sweepd_jobs_running",
		"Jobs currently executing.", nil,
		func(emit func(float64, ...string)) {
			_, running := m.InFlight()
			emit(float64(running))
		})
	m.evaluate = m.evaluateInProcess
	if opts.Distributed {
		m.dispatch = newDispatcher(opts.LeaseTTL, opts.Clock, m.met, logger, opts.Trace)
		m.evaluate = m.dispatchBatch
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < opts.JobWorkers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit resolves the request (see Resolve), enqueues a job and
// returns its snapshot.
func (m *Manager) Submit(req Request) (JobView, error) {
	plan, err := Resolve(req)
	if err != nil {
		return JobView{}, err
	}
	j := &job{plan: plan, req: req, scenarioName: plan.ScenarioName(), state: StateQueued, changed: make(chan struct{})}
	if plan.Kind == KindSweep {
		j.pts = plan.Scenario.Points()
		j.total = len(j.pts)
	} else {
		j.total = plan.Search.Generations * plan.Search.Population
	}
	j.keyer = sweep.NewKeyer(j.scenarioName, plan.Budget, req.Seed)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, ErrShutdown
	}
	m.seq++
	j.id = fmt.Sprintf("job-%06d", m.seq)
	j.seq = m.seq
	j.submitted = m.opts.Clock()
	if m.opts.Trace.Enabled() {
		j.traceID = obs.NewTraceID()
		j.rootSpanID = obs.NewSpanID()
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	m.queue.push(j)
	m.cond.Signal()
	m.met.jobsSubmitted.With(plan.Kind).Inc()
	m.log.Info("job submitted",
		"job_id", j.id, "kind", plan.Kind, "scenario", j.scenarioName,
		"budget", plan.Budget.Name, "seed", req.Seed, "priority", req.Priority,
		"points", j.total)
	return j.view(), nil
}

// InFlight counts the jobs that have not yet reached a terminal state:
// queued (waiting in the priority queue) and running. cmd/sweepd reports
// both at SIGTERM so operators can see how much work a drain is waiting
// on; the queue-depth and jobs-running gauges read the same numbers.
func (m *Manager) InFlight() (queued, running int) {
	m.mu.Lock()
	js := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		js = append(js, m.jobs[id])
	}
	m.mu.Unlock()
	for _, j := range js {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
		j.mu.Unlock()
	}
	return queued, running
}

// noteFinishedLocked books the metrics and the structured log line for a
// job that just reached a terminal state. Called with j.mu held.
func (m *Manager) noteFinishedLocked(j *job) {
	j.changedLocked()
	m.met.jobFinished(j.plan.Kind, j.state, j.started, j.finished)
	attrs := []any{
		"job_id", j.id, "kind", j.plan.Kind, "scenario", j.scenarioName,
		"state", string(j.state),
		"points_done", j.done.Load(), "points_cached", j.cached.Load(),
	}
	if !j.started.IsZero() {
		attrs = append(attrs, "duration", j.finished.Sub(j.started))
	}
	if j.errMsg != "" {
		attrs = append(attrs, "error", j.errMsg)
	}
	m.log.Info("job finished", attrs...)
	if j.traceID != "" && m.opts.Trace.Enabled() {
		// The root span closes the trace: submitted to terminal, with
		// every phase and chunk span parented under it.
		m.opts.Trace.Add(obs.SpanRecord{
			TraceID: j.traceID,
			SpanID:  j.rootSpanID,
			Name:    "job",
			JobID:   j.id,
			Start:   j.submitted,
			End:     j.finished,
			Attrs:   map[string]string{"kind": j.plan.Kind, "state": string(j.state)},
		})
	}
}

// Uptime is how long the manager has been running (by its own clock;
// never negative even under a stubbed test clock).
func (m *Manager) Uptime() time.Duration {
	d := m.opts.Clock().Sub(m.started)
	if d < 0 {
		return 0
	}
	return d
}

// recordPhase books one daemon-side phase span of the job's trace,
// parented under the root span. No-op when tracing is off or the job
// predates the collector; callers on hot paths still guard on
// j.traceID before building attribute maps this would drop.
func (m *Manager) recordPhase(j *job, name string, start, end time.Time, attrs map[string]string) {
	if j.traceID == "" || !m.opts.Trace.Enabled() {
		return
	}
	m.opts.Trace.Add(obs.SpanRecord{
		TraceID:  j.traceID,
		SpanID:   obs.NewSpanID(),
		ParentID: j.rootSpanID,
		Name:     name,
		JobID:    j.id,
		Start:    start,
		End:      end,
		Attrs:    attrs,
	})
}

// evictLocked drops the oldest terminal jobs once the table exceeds
// RetainJobs, keeping the daemon's memory bounded. Live (queued or
// running) jobs are always kept, even past the cap.
func (m *Manager) evictLocked() {
	excess := len(m.order) - m.opts.RetainJobs
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		evict := excess > 0 && j.state.Terminal()
		j.mu.Unlock()
		if evict {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (JobView, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return j.view(), nil
}

// StoreStats snapshots the backing result store's aggregate and
// per-shard counters. ok is false when the manager runs without a
// persistent store (Options.StoreStats nil).
func (m *Manager) StoreStats() (total store.Stats, shards []store.Stats, ok bool) {
	if m.opts.StoreStats == nil {
		return store.Stats{}, nil, false
	}
	total, shards = m.opts.StoreStats()
	return total, shards, true
}

// maxListLimit caps one page of the jobs listing; requests asking for
// more are clamped, so a daemon retaining thousands of jobs never
// serializes them all into one response.
const maxListLimit = 1000

// defaultListLimit is the page size when the client names none.
const defaultListLimit = 100

// ListQuery filters and paginates the jobs listing.
type ListQuery struct {
	// State keeps only jobs in this lifecycle state ("" = all).
	State State
	// Kind keeps only jobs of this kind ("" = all).
	Kind string
	// Limit caps the page size (0 = defaultListLimit, clamped to
	// maxListLimit).
	Limit int
	// Cursor resumes after the job named by a previous page's
	// NextCursor ("" = from the beginning). Job ids are zero-padded and
	// minted in submission order, so the cursor survives eviction of the
	// job it names: the page resumes at the first retained job after it.
	Cursor string
}

// JobPage is one page of the jobs listing.
type JobPage struct {
	Jobs []JobView `json:"jobs"`
	// NextCursor resumes the listing after this page's last job; empty
	// when the listing is exhausted.
	NextCursor string `json:"next_cursor,omitempty"`
}

// ListPage returns one filtered page of jobs in submission order.
// Filters apply before pagination, so a page is full whenever enough
// matching jobs remain — a client walking `state=failed` never receives
// empty pages with cursors just because healthy jobs sit in between.
func (m *Manager) ListPage(q ListQuery) JobPage {
	limit := q.Limit
	if limit <= 0 {
		limit = defaultListLimit
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	m.mu.Lock()
	js := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		// Submission order and lexicographic id order coincide (ids are
		// zero-padded sequence numbers), so "after the cursor" is a
		// string comparison even when the cursor's job was evicted.
		if q.Cursor != "" && id <= q.Cursor {
			continue
		}
		js = append(js, m.jobs[id])
	}
	m.mu.Unlock()
	page := JobPage{Jobs: []JobView{}}
	for _, j := range js {
		v := j.view()
		if q.State != "" && v.State != q.State {
			continue
		}
		if q.Kind != "" && v.Kind != q.Kind {
			continue
		}
		if len(page.Jobs) == limit {
			// One more match exists beyond the full page: point the
			// cursor at the page's last job and stop.
			page.NextCursor = page.Jobs[limit-1].ID
			break
		}
		page.Jobs = append(page.Jobs, v)
	}
	return page
}

// Result returns the completed sweep of a done job.
func (m *Manager) Result(id string) (*sweep.Result, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, fmt.Errorf("%w (%s is %s)", ErrNotDone, id, j.state)
	}
	return j.result, nil
}

// Cancel stops a job: a queued job is marked cancelled before it ever
// runs, a running job has its context cancelled. Cancelling a job that
// already reached a terminal state is a no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.errMsg = "cancelled while queued"
		j.finished = m.opts.Clock()
		j.pts = nil
		m.noteFinishedLocked(j)
	case StateRunning:
		j.cancel()
	}
	return nil
}

// Shutdown stops the manager: no new submissions, every queued job is
// cancelled, every running job's context is cancelled, and the call
// blocks until the scheduler pool drains or ctx expires. It is
// idempotent.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	for j := m.queue.pop(); j != nil; j = m.queue.pop() {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateCancelled
			j.errMsg = "cancelled at shutdown"
			j.finished = m.opts.Clock()
			j.pts = nil
			m.noteFinishedLocked(j)
		}
		j.mu.Unlock()
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.cancel()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown: %w", ctx.Err())
	}
}

// worker is one scheduler goroutine: it pops the highest-priority job
// and drives it to a terminal state.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queue.Len() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.queue.Len() == 0 && m.closed {
			m.mu.Unlock()
			return
		}
		j := m.queue.pop()
		m.mu.Unlock()
		m.execute(j)
	}
}

// execute drives one job from queued to a terminal state; it is the only
// place a job starts running and the only place its outcome is decided.
// Evaluation goes through m.evaluate in batches — one for a sweep's
// grid, one per generation for an optimization — so in-process and
// fleet jobs share this lifecycle and differ only in that evaluator.
// The outcome rule: no error is done, an error under a cancelled
// context is cancelled, anything else failed.
func (m *Manager) execute(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting in the queue.
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.ctx)
	j.cancel = cancel
	j.state = StateRunning
	j.started = m.opts.Clock()
	started, submitted, pts := j.started, j.submitted, j.pts
	j.mu.Unlock()
	defer cancel()
	m.log.Info("job started", "job_id", j.id, "kind", j.plan.Kind, "scenario", j.scenarioName)
	m.recordPhase(j, "queued", submitted, started, nil)

	// Each batch is one phase span: dispatch (leased and evaluated by
	// the fleet, cache pre-pass included) or evaluate (in-process). The
	// spans share their boundaries with the phases around them: the
	// first batch starts where the queued phase ended and the last one
	// ends where assemble starts, so a scheduling stall in between is
	// booked to a phase instead of leaking out of the trace. The
	// coordinator calls evaluate on this goroutine, so batchEnd needs no
	// lock.
	var batchEnd time.Time
	evaluate := func(ctx context.Context, batch []sweep.Point) (recs []sweep.Record, cached int, err error) {
		start := m.opts.Clock()
		if batchEnd.IsZero() {
			start = started
		}
		defer func() {
			batchEnd = m.opts.Clock()
			if j.traceID == "" {
				return
			}
			name, attrs := "evaluate", map[string]string(nil)
			if m.dispatch != nil {
				name, attrs = "dispatch", map[string]string{
					"points": strconv.Itoa(len(batch)),
					"cached": strconv.Itoa(cached),
				}
			}
			m.recordPhase(j, name, start, batchEnd, attrs)
		}()
		return m.evaluate(ctx, j, batch)
	}
	res, err := func() (res *sweep.Result, err error) {
		// A panicking point evaluation (sweep.Map re-raises worker
		// panics) must fail this job, not take down the scheduler
		// goroutine and with it the whole daemon.
		defer func() {
			if r := recover(); r != nil {
				m.met.jobPanics.Inc()
				res, err = nil, fmt.Errorf("service: job panicked: %v", r)
			}
		}()
		if j.plan.Kind == KindOptimize {
			return m.optimize(ctx, j, evaluate)
		}
		recs, cached, err := evaluate(ctx, pts)
		if err != nil {
			return nil, err
		}
		res = &sweep.Result{
			Scenario:       j.scenarioName,
			Description:    j.plan.Scenario.Description,
			Seed:           j.req.Seed,
			Budget:         j.plan.Budget.Name,
			Records:        recs,
			CachedPoints:   cached,
			ComputedPoints: len(recs) - cached,
		}
		res.ParetoIndices = sweep.MarkParetoFeasible(res.Records, j.plan.Feasible)
		return res, nil
	}()
	if m.dispatch != nil {
		// Whatever way the run ends, withdraw any chunks still queued or
		// leased and forget the job's lease ids.
		m.dispatch.endJob(j)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = m.opts.Clock()
	j.pts = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		m.recordPhase(j, "assemble", batchEnd, j.finished, nil)
	case ctx.Err() != nil:
		j.state = StateCancelled
		j.errMsg = "cancelled: " + ctx.Err().Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	m.noteFinishedLocked(j)
}

// evaluateInProcess is the evaluator of a non-distributed manager: one
// batch through the local sweep engine, read through the shared cache,
// feeding the job's progress counters.
func (m *Manager) evaluateInProcess(ctx context.Context, j *job, pts []sweep.Point) ([]sweep.Record, int, error) {
	return sweep.EvaluatePoints(ctx, j.scenarioName, pts, sweep.Config{
		Workers: j.req.Workers,
		Seed:    j.req.Seed,
		Budget:  j.plan.Budget,
		Cache:   m.opts.Cache,
		OnPoint: func(_ int, cached bool) {
			j.done.Add(1)
			if cached {
				j.cached.Add(1)
			}
			m.met.point(cached)
		},
	})
}

// optimize runs an optimization job's NSGA-II coordinator on the
// scheduler goroutine, each generation one evaluate batch. The result
// is a pure function of the request whichever evaluator serves the
// batches, so in-process and fleet deployments answer byte-identically.
func (m *Manager) optimize(ctx context.Context, j *job, evaluate func(context.Context, []sweep.Point) ([]sweep.Record, int, error)) (*sweep.Result, error) {
	opts := j.plan.Search
	opts.OnGeneration = j.appendGeneration
	opts.Evaluate = func(ctx context.Context, _ int, pts []sweep.Point) ([]sweep.Record, int, error) {
		return evaluate(ctx, pts)
	}
	res, err := search.Optimize(ctx, opts)
	if err != nil {
		return nil, err
	}
	// The optimizer's archive is shaped like a sweep result — records
	// plus front indices — so every result endpoint (records stream,
	// Pareto front) serves both job kinds.
	return &sweep.Result{
		Scenario:       j.scenarioName,
		Description:    opts.Space.Description,
		Seed:           res.Seed,
		Budget:         res.Budget,
		Records:        res.Records,
		ParetoIndices:  res.FrontIndices,
		CachedPoints:   res.CachedPoints,
		ComputedPoints: res.ComputedPoints,
	}, nil
}

// Generations returns an optimization job's per-generation summaries
// starting at offset from, plus whether the job has reached a terminal
// state — the pair a streaming client needs to decide between "emit
// and keep following" and "emit and hang up" — and a channel closed
// at the job's next change (a generation appended, or the job turning
// terminal), which a follower waits on instead of polling. Sweep jobs
// always return an empty slice.
func (m *Manager) Generations(id string, from int) ([]search.Generation, bool, <-chan struct{}, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, false, nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	terminal := j.state.Terminal()
	if from < 0 {
		from = 0
	}
	if from >= len(j.gens) {
		return nil, terminal, j.changed, nil
	}
	out := make([]search.Generation, len(j.gens)-from)
	copy(out, j.gens[from:])
	return out, terminal, j.changed, nil
}
