package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// WorkerAPI is the surface a sweep worker drives: lease a chunk, keep
// it alive, and post the records (or a failure) back. *Manager
// implements it directly — cmd/sweepd's local-workers fallback runs
// RunWorker(m) in-process — and *Client implements it over the HTTP API
// for cmd/sweepworker processes. A worker cannot tell which it is
// talking to, so the two deployments exercise identical logic.
type WorkerAPI interface {
	// Lease requests one chunk; ok is false when no work is pending.
	// A distributed daemon holds the request for a while before
	// answering that no work arrived.
	Lease(worker string) (Lease, bool, error)
	// Heartbeat extends the lease, returning its new remaining
	// lifetime, or ErrLeaseGone once the chunk was re-queued.
	Heartbeat(leaseID string) (time.Duration, error)
	// TracedCompleter posts the chunk's records.
	TracedCompleter
	// FailLease reports an unevaluable chunk, failing its job.
	FailLease(leaseID, reason string) error
}

// TracedCompleter posts a chunk's records together with the worker-side
// spans of serving it (nil for an untraced lease), so the daemon's
// trace of a distributed job includes what happened inside each worker
// process. Idempotent on duplicates.
type TracedCompleter interface {
	CompleteTraced(leaseID string, recs []sweep.Record, spans []obs.SpanRecord) error
}

// contextLeaser is the lease call *Manager and *Client offer workers:
// the same code as Lease, but a request parked waiting for work also
// ends with the worker's ctx, so stopping a worker never waits out the
// daemon's hold.
type contextLeaser interface {
	lease(ctx context.Context, worker string) (Lease, bool, error)
}

// WorkerOptions tunes one RunWorker loop.
type WorkerOptions struct {
	// Name identifies the worker in leases and the fleet view.
	Name string
	// Poll is the least interval between lease attempts that find no
	// work, and the retry delay after a failed request (default 500ms).
	// A distributed daemon holds an empty lease request up to 500ms
	// itself, so against it the worker re-leases at once; a daemon that
	// answers "no work" immediately is polled every Poll.
	Poll time.Duration
	// Workers bounds the local evaluation pool per chunk (0 = NumCPU).
	Workers int
	// Logger receives one structured line per lease outcome, each
	// carrying the worker name plus the lease and job ids (nil =
	// discard).
	Logger *slog.Logger
}

// RunWorker drains chunks from api until ctx is cancelled: lease,
// evaluate the leased points with the sweep engine, heartbeat at a
// third of the TTL while evaluating, complete. It returns ctx.Err() on
// cancellation, or a non-context error only when the worker must not
// keep serving: a lease from a daemon built from different code (another
// engine version, or a lease that does not carry its points) could make
// this worker produce records that differ, which the determinism
// contract forbids.
//
// Transient API errors (daemon restarting, network) are retried after
// the poll interval. A lost lease — heartbeat or completion returning
// ErrLeaseGone — abandons the chunk without error: the dispatcher has
// re-queued it for someone else and duplicate completions are
// idempotent, so correctness never depends on this worker.
func RunWorker(ctx context.Context, api WorkerAPI, opts WorkerOptions) error {
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	logger := opts.Logger
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	logger = logger.With("worker", opts.Name)
	next := func() (Lease, bool, error) { return api.Lease(opts.Name) }
	if cl, ok := api.(contextLeaser); ok {
		next = func() (Lease, bool, error) { return cl.lease(ctx, opts.Name) }
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		asked := time.Now()
		l, ok, err := next()
		if err != nil {
			logger.Warn("lease request failed", "error", err, "retry_in", opts.Poll)
			if !sleep(ctx, opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		if !ok {
			// The daemon may already have held the request for work;
			// only the rest of the poll interval is left to wait.
			if !sleep(ctx, opts.Poll-time.Since(asked)) {
				return ctx.Err()
			}
			continue
		}
		if err := serveLease(ctx, api, l, opts, logger); err != nil {
			return err
		}
	}
}

// serveLease evaluates one leased chunk's points through
// sweep.EvaluatePoints and posts the result. The lease carries the
// points, so the worker never resolves a scenario or compiles a spec.
func serveLease(ctx context.Context, api WorkerAPI, l Lease, opts WorkerOptions, logger *slog.Logger) error {
	// Every line about this lease carries the ids an operator needs to
	// join worker logs against the daemon's dispatcher logs.
	logger = logger.With("lease_id", l.ID, "job_id", l.JobID)
	leased := time.Now()
	if l.Engine != sweep.EngineVersion {
		return fmt.Errorf("service: worker runs engine v%d but daemon leased engine v%d work — rebuild the worker",
			sweep.EngineVersion, l.Engine)
	}
	// A daemon that predates point-carrying leases sends grid leases
	// without points; evaluating them would post zero records and fail
	// the user's job. Exiting instead lets the lease expire to a worker
	// that matches the daemon.
	if len(l.Points) != l.End-l.Start {
		return fmt.Errorf("service: daemon leased %d points for chunk [%d,%d) — rebuild the worker to match the daemon",
			len(l.Points), l.Start, l.End)
	}
	budget, err := sweep.ParseBudget(l.Budget)
	if err != nil {
		return fmt.Errorf("service: daemon leased a budget this worker does not know: %w", err)
	}

	// Heartbeat at a third of the TTL so two beats can be lost before
	// the dispatcher re-queues the chunk. A gone lease cancels the
	// evaluation: its result would be thrown away anyway. Floor the
	// cadence: a degenerate TTL from the wire (or a -lease-ttl 2ns
	// operator) must not panic time.NewTicker.
	ttl := time.Duration(l.TTLSeconds * float64(time.Second))
	beat := ttl / 3
	if beat < 10*time.Millisecond {
		beat = 10 * time.Millisecond
	}
	evalCtx, cancelEval := context.WithCancel(ctx)
	var leaseGone atomic.Bool
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(beat)
		defer tick.Stop()
		for {
			select {
			case <-evalCtx.Done():
				return
			case <-tick.C:
				if _, err := api.Heartbeat(l.ID); errors.Is(err, ErrLeaseGone) {
					logger.Warn("lease gone, abandoning chunk",
						"chunk_start", l.Start, "chunk_end", l.End)
					leaseGone.Store(true)
					cancelEval()
					return
				}
				// Transient heartbeat errors are survivable: the lease
				// outlives two missed beats.
			}
		}
	}()

	evalStart := time.Now()
	recs, evalErr := func() (recs []sweep.Record, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("evaluation panicked: %v", r)
			}
		}()
		cfg := sweep.Config{
			Workers: opts.Workers,
			Seed:    l.Seed,
			Budget:  budget,
		}
		recs, _, err = evalPoints(evalCtx, l.Scenario, l.Points, cfg)
		return recs, err
	}()
	evalEnd := time.Now()
	cancelEval()
	<-hbDone

	switch {
	case evalErr == nil:
		err := completeWithRetry(ctx, api, l.ID, recs, workerSpans(l, opts.Name, leased, evalStart, evalEnd, len(recs)))
		switch {
		case err == nil:
			logger.Info("chunk completed",
				"scenario", l.Scenario, "chunk_start", l.Start, "chunk_end", l.End,
				"points", len(recs))
		case errors.Is(err, ErrLeaseGone):
			// Not a worker failure, but don't log it as a success: the
			// daemon discarded these records (job cancelled, or the
			// chunk was re-leased and finished by someone else).
			logger.Warn("lease gone at completion, records discarded")
		case errors.Is(err, ErrBadRecords):
			// The daemon rejected records this worker considers correct
			// (the two binaries disagree on the records). Deterministic,
			// so every retry and every re-lease would fail the same way —
			// fail the job instead of bouncing the chunk forever.
			logger.Error("records rejected, failing job", "error", err)
			if ferr := api.FailLease(l.ID, err.Error()); ferr != nil && !errors.Is(ferr, ErrLeaseGone) {
				logger.Warn("fail report not delivered", "error", ferr)
			}
		default:
			logger.Warn("completion failed", "error", err)
		}
	case leaseGone.Load():
		// Lease lost mid-evaluation: abandoned above, nothing to post.
	case ctx.Err() != nil:
		// Shutting down: let the lease expire so the chunk is re-queued.
	default:
		// The evaluation itself blew up (a panicking point). Report it so
		// the job fails like an in-process panic would, instead of the
		// chunk bouncing from worker to worker forever.
		if err := api.FailLease(l.ID, evalErr.Error()); err != nil && !errors.Is(err, ErrLeaseGone) {
			logger.Warn("fail report not delivered", "error", err)
		}
	}
	return nil
}

// evalPoints is sweep.EvaluatePoints, replaceable by tests that need a
// panicking or skewed evaluation.
var evalPoints = sweep.EvaluatePoints

// workerSpans builds this chunk's worker-side spans; for an untraced
// lease it returns nil and the completion carries records only.
// The "worker" span covers lease receipt to post (parented under the
// dispatcher's chunk span via l.SpanID); the "evaluate" span nested
// inside it isolates pure engine time from queueing and transport.
func workerSpans(l Lease, worker string, leased, evalStart, evalEnd time.Time, points int) []obs.SpanRecord {
	if l.TraceID == "" {
		return nil
	}
	wid := obs.NewSpanID()
	return []obs.SpanRecord{
		{
			TraceID: l.TraceID, SpanID: wid, ParentID: l.SpanID,
			Name: "worker", JobID: l.JobID, Worker: worker,
			Start: leased, End: time.Now(),
		},
		{
			TraceID: l.TraceID, SpanID: obs.NewSpanID(), ParentID: wid,
			Name: "evaluate", JobID: l.JobID, Worker: worker,
			Start: evalStart, End: evalEnd,
			Attrs: map[string]string{"points": strconv.Itoa(points)},
		},
	}
}

// completeWithRetry posts records and worker spans (nil for an
// untraced lease), retrying transient errors a few times. ErrLeaseGone
// and ErrBadRecords are deterministic outcomes and returned immediately
// for the caller to classify.
func completeWithRetry(ctx context.Context, api WorkerAPI, leaseID string, recs []sweep.Record, spans []obs.SpanRecord) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		err = api.CompleteTraced(leaseID, recs, spans)
		if err == nil || errors.Is(err, ErrLeaseGone) || errors.Is(err, ErrBadRecords) {
			return err
		}
		if !sleep(ctx, 100*time.Millisecond<<attempt) {
			return err
		}
	}
	return err
}

// sleep waits d or until ctx is cancelled, reporting whether the full
// duration elapsed. Every wait of RunWorker goes through it, so tests
// can check the durations a worker asks for instead of timing it.
var sleep = func(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
