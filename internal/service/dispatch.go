package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Sentinel errors of the worker-facing dispatch API.
var (
	// ErrLeaseGone means the lease id is unknown or belongs to a
	// cancelled job: the worker should drop the chunk and lease again.
	ErrLeaseGone = errors.New("service: lease gone")
	// ErrBadRecords means a completion's records do not match the leased
	// chunk (wrong count, index or scenario).
	ErrBadRecords = errors.New("service: records do not match lease")
)

// Lease is one unit of distributed work: a contiguous run of a job's
// design points plus everything a stateless worker needs to evaluate
// them deterministically — the points themselves, the budget by name
// (the budget registry is compiled into every binary), the sweep seed,
// and the engine version so a mismatched worker can refuse instead of
// silently producing different records. Workers never resolve a
// scenario or compile a spec: the daemon does that once per job.
type Lease struct {
	ID    string `json:"id"`
	JobID string `json:"job_id"`
	// Scenario names the point family in records and cache keys: a
	// registered scenario, a spec's "spec/<hash16>" content address, or
	// "optimize/<space>".
	Scenario string `json:"scenario"`
	Budget   string `json:"budget"`
	Seed     uint64 `json:"seed"`
	// Start and End are the chunk's slot range [Start, End) in the
	// job's batch, for logs and spans; len(Points) == End-Start.
	Start int `json:"start"`
	End   int `json:"end"`
	// Points are the chunk's design points: a grid slice for sweeps,
	// bred individuals for optimizer generations. Each point's Index is
	// the global evaluation index that keys its cache address.
	Points []sweep.Point `json:"points"`
	// Engine is the daemon's sweep.EngineVersion; a worker built at a
	// different version must not evaluate the chunk.
	Engine int `json:"engine"`
	// TTLSeconds is how long the lease lives without a heartbeat.
	TTLSeconds float64 `json:"ttl_seconds"`
	// TraceID and SpanID tie the lease into its job's distributed
	// trace: TraceID is the job's root trace, SpanID the chunk span the
	// dispatcher minted at lease issue — the parent for every span the
	// worker emits about this chunk. The lease body is the only channel
	// trace identity travels on. Both are empty when the daemon runs
	// without a trace collector; workers then skip span emission.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// distRun is the assembly state of one distributed job: records filled
// in by chunk completions, a countdown of outstanding points, and a
// channel closed exactly once when the job finishes or fails.
type distRun struct {
	recs      []sweep.Record
	remaining int
	failure   string
	finished  chan struct{}
	closeOnce sync.Once
}

func (dr *distRun) finish() { dr.closeOnce.Do(func() { close(dr.finished) }) }

// chunkTask is the dispatcher's bookkeeping for one chunk: pending (no
// lease), leased (current leaseID set, expiry ticking), done or
// cancelled. Stale lease ids keep pointing at their task until the job
// is cleaned up, so a late completion from an expired lease is still
// accepted — determinism makes its records identical to any re-run.
type chunkTask struct {
	job   *job
	dr    *distRun
	chunk sweep.Chunk
	// pts are the chunk's design points (pts[k] is slot chunk.Start+k of
	// the assembly buffer): a grid sub-slice for sweep jobs, bred
	// individuals for optimizer generations.
	pts []sweep.Point

	leaseID   string // current lease ("" while pending)
	worker    string // current lease's worker
	expires   time.Time
	done      bool
	cancelled bool
}

// leaseRef is one entry of the lease table. It remembers which worker
// took this particular lease, which the task alone cannot: after a
// re-lease, task.worker is the new holder, but a late completion under
// the old id must still credit the worker that actually did the work.
// issuedAt anchors the lease-turnaround histogram to THIS lease's mint
// time, so a late completion under an expired lease books its own
// turnaround, not the re-lease's.
type leaseRef struct {
	t        *chunkTask
	worker   string
	issuedAt time.Time
	// spanID is the chunk span minted for this lease when tracing is
	// on: recorded (issuedAt -> completion) on the trace collector, and
	// the parent of every worker-emitted span about the chunk.
	spanID string
}

// Fleet-analytics tuning. The straggler rule is deliberately coarse —
// a chunk is flagged when its turnaround exceeds stragglerFactor times
// the median of the last fleetTurnSamples completions fleet-wide, and
// only once stragglerMinSamples completions have established that
// median — so one slow worker stands out against a stable fleet
// without a warm-up fleet flagging itself.
const (
	workerTurnSamples   = 64
	fleetTurnSamples    = 256
	stragglerFactor     = 4.0
	stragglerMinSamples = 8
	// throughputAlpha weights the newest chunk's points/s in the
	// per-worker EWMA: high enough to track a worker that degrades,
	// low enough that one odd chunk doesn't swing the profile.
	throughputAlpha = 0.3
)

// workerStats accumulates one worker's fleet-view counters and its
// throughput profile, served per worker by GET /api/v1/fleet/stats.
type workerStats struct {
	lastSeen   time.Time
	chunksDone int
	pointsDone int
	failures   int
	stragglers int
	// ewmaRate is the exponentially-weighted moving average of the
	// worker's points/s across its completed chunks (0 until the first
	// completion with measurable turnaround).
	ewmaRate float64
	// turns is a bounded ring of the worker's recent chunk turnaround
	// seconds, the sample set behind its p50/p95.
	turns    []float64
	turnNext int
}

// noteCompletion folds one completed chunk into the worker's profile.
func (ws *workerStats) noteCompletion(points int, seconds float64) {
	ws.chunksDone++
	ws.pointsDone += points
	if len(ws.turns) < workerTurnSamples {
		ws.turns = append(ws.turns, seconds)
	} else {
		ws.turns[ws.turnNext] = seconds
		ws.turnNext = (ws.turnNext + 1) % workerTurnSamples
	}
	if seconds > 0 {
		rate := float64(points) / seconds
		if ws.ewmaRate == 0 {
			ws.ewmaRate = rate
		} else {
			ws.ewmaRate = throughputAlpha*rate + (1-throughputAlpha)*ws.ewmaRate
		}
	}
}

// fleetRetention is how long a silent worker stays in the fleet view
// before its stats are evicted. Long enough that an operator inspecting
// a stuck fleet still sees recently dead workers, short enough that a
// daemon outliving thousands of worker restarts stays bounded.
const fleetRetention = time.Hour

// dispatcher owns the pending-chunk queue and the lease table. All
// fields are guarded by mu; it never takes a job's mutex, so lock order
// against the manager is trivial.
type dispatcher struct {
	ttl   time.Duration
	clock func() time.Time
	met   *serviceMetrics
	log   *slog.Logger
	// trace retains span records when tracing is on; nil disables span
	// minting and recording at zero cost.
	trace *obs.Collector

	mu      sync.Mutex
	pending []*chunkTask
	// ready is closed, and replaced by a fresh channel, whenever chunks
	// enter pending: every lease request parked on the old channel
	// wakes and races for the new work.
	ready  chan struct{}
	leases map[string]leaseRef
	fleet  map[string]*workerStats
	seq    uint64
	// fleetTurns is a bounded ring of recent chunk turnaround seconds
	// across the whole fleet — the straggler rule's median base.
	fleetTurns    []float64
	fleetTurnNext int
}

func newDispatcher(ttl time.Duration, clock func() time.Time, met *serviceMetrics, log *slog.Logger, trace *obs.Collector) *dispatcher {
	return &dispatcher{
		ttl:    ttl,
		clock:  clock,
		met:    met,
		log:    log,
		trace:  trace,
		ready:  make(chan struct{}),
		leases: make(map[string]leaseRef),
		fleet:  make(map[string]*workerStats),
	}
}

// noteFleetTurnLocked pushes one completion's turnaround into the
// fleet-wide ring and reports whether it is a straggler against the
// median of the samples that preceded it: strictly slower than
// stragglerFactor times that median, judged only once
// stragglerMinSamples prior completions exist. Returns the median it
// was judged against.
func (d *dispatcher) noteFleetTurnLocked(seconds float64) (straggler bool, median float64) {
	if len(d.fleetTurns) >= stragglerMinSamples {
		median = medianOf(d.fleetTurns)
		straggler = median > 0 && seconds > stragglerFactor*median
	}
	if len(d.fleetTurns) < fleetTurnSamples {
		d.fleetTurns = append(d.fleetTurns, seconds)
	} else {
		d.fleetTurns[d.fleetTurnNext] = seconds
		d.fleetTurnNext = (d.fleetTurnNext + 1) % fleetTurnSamples
	}
	return straggler, median
}

// enqueue adds a job's chunks to the pending queue. pts is the full
// point list the chunks index into (the scenario grid, or one
// optimizer generation).
func (d *dispatcher) enqueue(j *job, dr *distRun, chunks []sweep.Chunk, pts []sweep.Point) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range chunks {
		d.pending = append(d.pending, &chunkTask{job: j, dr: dr, chunk: c, pts: pts[c.Start:c.End]})
	}
	if len(chunks) > 0 {
		d.wakeLocked()
	}
}

// wakeLocked releases every lease request parked on the current ready
// channel. Callers hold d.mu and have just added chunks to pending.
func (d *dispatcher) wakeLocked() {
	close(d.ready)
	d.ready = make(chan struct{})
}

// requeueExpiredLocked moves every chunk whose lease outlived its TTL
// back to the pending queue. The expired lease id stays in the table so
// a slow worker's late completion is still accepted (see chunkTask).
// It returns the earliest expiry among the leases still live (zero when
// none is), so a parked lease request can wake in time to re-queue it.
func (d *dispatcher) requeueExpiredLocked(now time.Time) (next time.Time) {
	requeued := false
	for id, ref := range d.leases {
		t := ref.t
		if t.leaseID != id || t.done || t.cancelled {
			continue
		}
		if !now.After(t.expires) {
			if next.IsZero() || t.expires.Before(next) {
				next = t.expires
			}
		} else {
			t.leaseID = ""
			d.pending = append(d.pending, t)
			requeued = true
			d.met.lease("expired")
			d.log.Warn("lease expired, chunk re-queued",
				"lease_id", id, "job_id", t.job.id, "worker", ref.worker,
				"chunk_start", t.chunk.Start, "chunk_end", t.chunk.End)
		}
	}
	if requeued {
		d.wakeLocked()
	}
	// Piggyback fleet eviction on the same sweep: workers that have not
	// been heard from in a long while are dropped from the stats table.
	// Default sweepworker names embed the PID, so a crash-looping or
	// autoscaled fleet mints new names forever; without eviction the
	// daemon's memory and GET /api/v1/fleet/stats would grow for life.
	for name, ws := range d.fleet {
		if now.Sub(ws.lastSeen) > fleetRetention {
			delete(d.fleet, name)
		}
	}
	return next
}

func (d *dispatcher) touchLocked(worker string, now time.Time) *workerStats {
	ws := d.fleet[worker]
	if ws == nil {
		ws = &workerStats{}
		d.fleet[worker] = ws
	}
	ws.lastSeen = now
	return ws
}

// endJob drops every task of the job — pending chunks are removed and
// its lease ids are forgotten, so later heartbeats and completions for
// them return ErrLeaseGone. Called once the job reaches any terminal
// state (done, failed or cancelled).
func (d *dispatcher) endJob(j *job) {
	d.mu.Lock()
	defer d.mu.Unlock()
	kept := d.pending[:0]
	for _, t := range d.pending {
		if t.job == j {
			t.cancelled = true
			continue
		}
		kept = append(kept, t)
	}
	for i := len(kept); i < len(d.pending); i++ {
		d.pending[i] = nil
	}
	d.pending = kept
	for id, ref := range d.leases {
		if ref.t.job == j {
			ref.t.cancelled = true
			delete(d.leases, id)
		}
	}
}

// leaseHold is how long a lease request that finds nothing pending
// parks in the daemon, waiting for work, before it answers "no work".
// A chunk enqueued meanwhile goes to a parked worker at once. It equals
// sweepworker's default -poll, so an idle default fleet sends one lease
// RPC per worker per -poll interval, and it sits far below the worker
// client's 30 s HTTP timeout and sweepd's 30 s drain deadline.
const leaseHold = 500 * time.Millisecond

// Lease hands the oldest pending chunk to the named worker, first
// re-queueing any chunks whose leases expired. When nothing is pending
// it waits up to leaseHold for work to arrive; ok is false when none
// did. It is the in-process implementation of WorkerAPI; cmd/sweepworker
// reaches the same code through the HTTP API.
func (m *Manager) Lease(worker string) (Lease, bool, error) {
	return m.lease(context.Background(), worker)
}

// lease is Lease bounded by ctx as well: the HTTP handler passes the
// request's context, so a worker that hangs up releases its handler.
// A parked request returns empty once leaseHold has passed, ctx ends or
// Shutdown cancels the manager. It also wakes when a live lease expires,
// so a dead worker's chunk is re-queued on time rather than at the end
// of the hold. One woken by new work that another worker takes first
// parks again for the rest of its hold.
func (m *Manager) lease(ctx context.Context, worker string) (Lease, bool, error) {
	d := m.dispatch
	if d == nil {
		return Lease{}, false, nil
	}
	deadline := time.Now().Add(leaseHold)
	var timer *time.Timer
	for {
		l, ok, ready, expiry := d.take(worker)
		if ok {
			return l, true, nil
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return Lease{}, false, nil
		}
		if expiry > 0 && expiry < wait {
			wait = expiry
		}
		if timer == nil {
			timer = time.NewTimer(wait)
			defer timer.Stop()
		} else {
			timer.Reset(wait)
		}
		select {
		case <-ready:
		case <-timer.C:
		case <-ctx.Done():
			return Lease{}, false, nil
		case <-m.ctx.Done():
			return Lease{}, false, nil
		}
	}
}

// take issues a lease on the oldest live pending chunk. When there is
// none it returns the ready channel the caller parks on, plus how long
// until the earliest live lease expires (zero when none is live). d.mu
// is held from the pending check to reading the channel, so no enqueue
// can slip between them unnoticed.
func (d *dispatcher) take(worker string) (Lease, bool, <-chan struct{}, time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock()
	d.touchLocked(worker, now)
	next := d.requeueExpiredLocked(now)
	for len(d.pending) > 0 {
		t := d.pending[0]
		d.pending = d.pending[1:]
		if t.done || t.cancelled {
			continue
		}
		d.seq++
		id := fmt.Sprintf("lease-%06d", d.seq)
		t.leaseID, t.worker, t.expires = id, worker, now.Add(d.ttl)
		ref := leaseRef{t: t, worker: worker, issuedAt: now}
		j := t.job
		if d.trace.Enabled() && j.traceID != "" {
			// The chunk span is minted here and recorded at completion:
			// the worker parents its own spans under it, so the trace
			// stays one tree across the process boundary.
			ref.spanID = obs.NewSpanID()
		}
		d.leases[id] = ref
		d.met.lease("issued")
		d.log.Debug("lease issued",
			"lease_id", id, "job_id", j.id, "worker", worker,
			"chunk_start", t.chunk.Start, "chunk_end", t.chunk.End)
		return Lease{
			ID:         id,
			JobID:      j.id,
			Scenario:   j.scenarioName,
			Budget:     j.plan.Budget.Name,
			Seed:       j.req.Seed,
			Start:      t.chunk.Start,
			End:        t.chunk.End,
			Points:     t.pts,
			Engine:     sweep.EngineVersion,
			TTLSeconds: d.ttl.Seconds(),
			TraceID:    j.traceID,
			SpanID:     ref.spanID,
		}, true, nil, 0
	}
	var expiry time.Duration
	if !next.IsZero() {
		// A lease expiring exactly now is re-queued only once the clock
		// is past it: check again a moment later.
		expiry = max(next.Sub(now), time.Millisecond)
	}
	return Lease{}, false, d.ready, expiry
}

// Heartbeat extends a live lease by the TTL and returns the new
// remaining lifetime. A lease that is unknown, expired, superseded by a
// re-lease, or whose job was cancelled gets ErrLeaseGone — the worker
// should stop evaluating the chunk.
func (m *Manager) Heartbeat(leaseID string) (time.Duration, error) {
	d := m.dispatch
	if d == nil {
		return 0, ErrLeaseGone
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock()
	ref, ok := d.leases[leaseID]
	t := ref.t
	if !ok || t.cancelled || t.done || t.leaseID != leaseID || now.After(t.expires) {
		return 0, ErrLeaseGone
	}
	d.touchLocked(ref.worker, now)
	t.expires = now.Add(d.ttl)
	return d.ttl, nil
}

// Complete accepts a worker's evaluated records for a leased chunk,
// folds them into the job and persists them in the shared store. It is
// idempotent: completing an already-completed chunk is a no-op, and a
// late completion under an expired lease is accepted as long as the
// chunk is still wanted — the determinism contract guarantees the
// records are identical to whatever a re-lease would produce.
func (m *Manager) Complete(leaseID string, recs []sweep.Record) error {
	return m.complete(leaseID, recs, nil)
}

// CompleteTraced is Complete plus the spans the worker emitted while
// serving the chunk. The worker-supplied fields an operator could join
// wrongly on are forced server-side — trace, job and worker identity
// always come from the lease, never from the completion body — and the
// span count is capped so a buggy worker cannot flush the ring.
func (m *Manager) CompleteTraced(leaseID string, recs []sweep.Record, spans []obs.SpanRecord) error {
	return m.complete(leaseID, recs, spans)
}

// maxWorkerSpans bounds how many spans one completion may add to the
// collector: enough for the worker's lease/evaluate breakdown, far too
// few to evict other jobs' traces.
const maxWorkerSpans = 16

func (m *Manager) complete(leaseID string, recs []sweep.Record, spans []obs.SpanRecord) error {
	d := m.dispatch
	if d == nil {
		return ErrLeaseGone
	}
	d.mu.Lock()
	ref, ok := d.leases[leaseID]
	if !ok || ref.t.cancelled {
		d.mu.Unlock()
		return ErrLeaseGone
	}
	t := ref.t
	// Credit the worker that held THIS lease, not the chunk's current
	// holder: a late completion under an expired lease must not book
	// work onto whoever the chunk was re-leased to.
	now := d.clock()
	ws := d.touchLocked(ref.worker, now)
	if t.done {
		d.mu.Unlock()
		return nil // duplicate completion: idempotent
	}
	if err := validateChunk(t, recs); err != nil {
		d.mu.Unlock()
		return err
	}
	t.done = true
	copy(t.dr.recs[t.chunk.Start:t.chunk.End], recs)
	t.dr.remaining -= t.chunk.Len()
	turnaround := now.Sub(ref.issuedAt).Seconds()
	ws.noteCompletion(t.chunk.Len(), turnaround)
	straggler, median := d.noteFleetTurnLocked(turnaround)
	if straggler {
		ws.stragglers++
	}
	finished := t.dr.remaining == 0
	d.mu.Unlock()

	d.met.lease("completed")
	d.met.leaseTurnaround.Observe(turnaround)
	d.met.points(false, t.chunk.Len())
	d.met.workerChunks.With(ref.worker).Inc()
	d.met.workerPoints.With(ref.worker).Add(float64(t.chunk.Len()))
	d.log.Debug("lease completed",
		"lease_id", leaseID, "job_id", t.job.id, "worker", ref.worker,
		"points", t.chunk.Len(), "turnaround", now.Sub(ref.issuedAt))
	if straggler {
		// The structured event and the counter make a slow node visible
		// the moment it lags the fleet; the chunk itself is not
		// re-leased until its lease expires.
		d.met.stragglers.Inc()
		d.log.Warn("straggler chunk",
			"lease_id", leaseID, "job_id", t.job.id, "worker", ref.worker,
			"turnaround_seconds", turnaround, "fleet_median_seconds", median,
			"factor", stragglerFactor,
			"chunk_start", t.chunk.Start, "chunk_end", t.chunk.End)
	}
	d.recordChunkSpans(t, ref, now, spans)

	j := t.job
	j.done.Add(int64(t.chunk.Len()))
	// Persist outside the dispatcher lock: Put hits the disk, and the
	// store's own dedup makes a racing duplicate completion harmless.
	if m.opts.Cache != nil {
		for k, rec := range recs {
			m.opts.Cache.Put(j.keyer.Key(t.pts[k]), rec)
		}
	}
	if finished {
		t.dr.finish()
	}
	return nil
}

// recordChunkSpans books the daemon-side chunk span (lease issue to
// accepted completion) and the worker's own spans for a completed
// chunk. No-op when tracing is off or the job predates the collector.
func (d *dispatcher) recordChunkSpans(t *chunkTask, ref leaseRef, now time.Time, spans []obs.SpanRecord) {
	if !d.trace.Enabled() || ref.spanID == "" {
		return
	}
	j := t.job
	d.trace.Add(obs.SpanRecord{
		TraceID:  j.traceID,
		SpanID:   ref.spanID,
		ParentID: j.rootSpanID,
		Name:     "chunk",
		JobID:    j.id,
		Worker:   ref.worker,
		Start:    ref.issuedAt,
		End:      now,
		Attrs: map[string]string{
			"chunk_start": strconv.Itoa(t.chunk.Start),
			"chunk_end":   strconv.Itoa(t.chunk.End),
			"points":      strconv.Itoa(t.chunk.Len()),
		},
	})
	if len(spans) > maxWorkerSpans {
		spans = spans[:maxWorkerSpans]
	}
	for _, s := range spans {
		// Identity comes from the lease, not the body: a worker cannot
		// attach spans to someone else's trace or impersonate a peer.
		s.TraceID = j.traceID
		s.JobID = j.id
		s.Worker = ref.worker
		if s.ParentID == "" {
			s.ParentID = ref.spanID
		}
		if s.SpanID == "" {
			s.SpanID = obs.NewSpanID()
		}
		d.trace.Add(s)
	}
}

// validateChunk rejects records that cannot be the leased chunk's:
// wrong count, wrong point index, or wrong scenario. The expected
// index is the chunk point's own Index — identical to the assembly
// slot for grid sweeps, the global evaluation index for optimizer
// generations.
func validateChunk(t *chunkTask, recs []sweep.Record) error {
	if len(recs) != t.chunk.Len() {
		return fmt.Errorf("%w: got %d records for chunk %v", ErrBadRecords, len(recs), t.chunk)
	}
	for k, rec := range recs {
		if rec.Index != t.pts[k].Index || rec.Scenario != t.job.scenarioName {
			return fmt.Errorf("%w: record %d is (%s, #%d), want (%s, #%d)",
				ErrBadRecords, k, rec.Scenario, rec.Index, t.job.scenarioName, t.pts[k].Index)
		}
	}
	return nil
}

// FailLease reports that a worker could not evaluate its chunk (for
// example a panicking point). The whole job fails — mirroring the
// in-process path, where a panicking evaluation fails the job — and its
// other chunks are withdrawn.
func (m *Manager) FailLease(leaseID, reason string) error {
	d := m.dispatch
	if d == nil {
		return ErrLeaseGone
	}
	d.mu.Lock()
	ref, ok := d.leases[leaseID]
	if !ok || ref.t.cancelled || ref.t.done {
		d.mu.Unlock()
		return ErrLeaseGone
	}
	t := ref.t
	d.touchLocked(ref.worker, d.clock()).failures++
	if t.dr.failure == "" {
		t.dr.failure = fmt.Sprintf("worker %s failed chunk %v: %s", ref.worker, t.chunk, reason)
	}
	dr := t.dr
	d.mu.Unlock()
	d.met.lease("failed")
	d.log.Warn("lease failed",
		"lease_id", leaseID, "job_id", t.job.id, "worker", ref.worker,
		"reason", reason)
	dr.finish()
	return nil
}

// chunkRuns groups a sorted list of still-to-compute grid indices into
// contiguous chunks of at most size points. Cache hits punch holes in
// the grid, so each run between holes is partitioned independently by
// sweep.Chunks and shifted to its grid offset.
func chunkRuns(todo []int, size int) []sweep.Chunk {
	var out []sweep.Chunk
	for i := 0; i < len(todo); {
		k := i + 1
		for k < len(todo) && todo[k] == todo[k-1]+1 {
			k++
		}
		for _, c := range sweep.Chunks(k-i, size) {
			out = append(out, sweep.Chunk{Start: todo[i] + c.Start, End: todo[i] + c.End})
		}
		i = k
	}
	return out
}

// dispatchBatch evaluates one batch of points over the worker fleet: a
// daemon-side cache pre-pass so stored points never travel, the rest
// chunked and enqueued, records assembled in batch order. It blocks
// until the batch completes, a worker fails a chunk (the error is the
// failure report), or ctx is cancelled (the error is ctx's; the caller
// is responsible for withdrawing the job's chunks via endJob). A batch
// whose last chunk lands in the same instant ctx fires still counts as
// completed, like the in-process path's `case err == nil` — the
// finished channel is closed before any state read off dr, so the
// recheck is race-free.
func (m *Manager) dispatchBatch(ctx context.Context, j *job, pts []sweep.Point) ([]sweep.Record, int, error) {
	dr := &distRun{recs: make([]sweep.Record, len(pts)), finished: make(chan struct{})}
	var todo []int
	for i, pt := range pts {
		if m.opts.Cache != nil {
			if rec, ok := m.opts.Cache.Get(j.keyer.Key(pt)); ok {
				rec.Pareto = false
				dr.recs[i] = rec
				j.done.Add(1)
				j.cached.Add(1)
				continue
			}
		}
		todo = append(todo, i)
	}
	dr.remaining = len(todo)
	cached := len(pts) - len(todo)
	m.met.points(true, cached)

	if len(todo) == 0 {
		dr.finish()
	} else {
		m.dispatch.enqueue(j, dr, chunkRuns(todo, m.opts.ChunkPoints), pts)
	}

	select {
	case <-ctx.Done():
	case <-dr.finished:
	}
	finished := false
	select {
	case <-dr.finished:
		finished = true
	default:
	}
	switch {
	case finished && dr.failure != "":
		return nil, cached, errors.New(dr.failure)
	case !finished:
		return nil, cached, ctx.Err()
	}
	return dr.recs, cached, nil
}
