package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

func TestChunkRuns(t *testing.T) {
	cases := []struct {
		todo []int
		size int
		want []sweep.Chunk
	}{
		{nil, 4, nil},
		{[]int{0, 1, 2, 3, 4}, 3, []sweep.Chunk{{Start: 0, End: 3}, {Start: 3, End: 5}}},
		// Cache hits punch holes: runs on either side chunk independently.
		{[]int{0, 1, 4, 5, 6}, 4, []sweep.Chunk{{Start: 0, End: 2}, {Start: 4, End: 7}}},
		{[]int{2}, 4, []sweep.Chunk{{Start: 2, End: 3}}},
	}
	for _, c := range cases {
		got := chunkRuns(c.todo, c.size)
		if len(got) != len(c.want) {
			t.Errorf("chunkRuns(%v, %d) = %v, want %v", c.todo, c.size, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("chunkRuns(%v, %d)[%d] = %v, want %v", c.todo, c.size, i, got[i], c.want[i])
			}
		}
	}
}

// TestDistributedLifecycle is the acceptance test of the worker tier:
// an httptest sweepd in distributed mode, two HTTP workers leasing
// chunks of one job, a third "worker" that dies mid-lease, and the
// assertion that the merged result is byte-identical to a single-node
// run of the same scenario, budget and seed.
func TestDistributedLifecycle(t *testing.T) {
	const (
		scenario = "paper-baseline"
		seed     = 11
	)
	sc, err := sweep.Get(scenario)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sweep.Run(context.Background(), sc, sweep.Config{
		Workers: 1, Seed: seed, Budget: sweep.AnalyticBudget(),
	})
	if err != nil {
		t.Fatal(err)
	}
	total := len(single.Records)

	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 3,
		LeaseTTL:    200 * time.Millisecond,
	})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	v := submit(t, srv, Request{Scenario: scenario, Budget: "analytic", Seed: seed}, http.StatusAccepted)

	// A worker leases the first chunk and dies without ever heartbeating
	// or completing: its chunk must be re-leased after the TTL and the
	// job must still finish.
	zombie := NewClient(srv.URL)
	var zombieLease Lease
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, ok, err := zombie.Lease("zombie")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			zombieLease = l
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never produced a leasable chunk")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if zombieLease.Scenario != scenario || zombieLease.Seed != seed ||
		zombieLease.Engine != sweep.EngineVersion || zombieLease.End <= zombieLease.Start {
		t.Fatalf("lease malformed: %+v", zombieLease)
	}

	// Two live workers drain the queue over HTTP — the same RunWorker
	// loop cmd/sweepworker runs.
	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunWorker(wctx, NewClient(srv.URL), WorkerOptions{
				Name: name, Poll: 10 * time.Millisecond, Workers: 1,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s: %v", name, err)
			}
		}()
	}

	done := pollDone(t, srv, v.ID)
	if done.Progress.Done != total || done.Progress.Pending != 0 || done.Progress.Cached != 0 {
		t.Fatalf("completed progress = %+v, want %d done", done.Progress, total)
	}

	// Byte-identity with the single-node run: the determinism contract.
	fleet, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var fleetJSON, singleJSON bytes.Buffer
	if err := sweep.WriteJSON(&fleetJSON, fleet); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteJSON(&singleJSON, single); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetJSON.Bytes(), singleJSON.Bytes()) {
		t.Fatalf("fleet result differs from single-node run:\nfleet:  %s\nsingle: %s",
			fleetJSON.Bytes(), singleJSON.Bytes())
	}

	// The zombie's lease is dead: its chunk was re-queued and served by
	// a live worker, and its late messages answer gone.
	if _, err := zombie.Heartbeat(zombieLease.ID); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("zombie heartbeat error = %v, want ErrLeaseGone", err)
	}
	if err := zombie.Complete(zombieLease.ID, nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("zombie complete error = %v, want ErrLeaseGone", err)
	}

	// Fleet view: the zombie contributed nothing; w1+w2 computed the
	// whole grid.
	var fleetView FleetStats
	getJSON(t, srv, "/api/v1/fleet/stats", &fleetView)
	points := map[string]int{}
	for _, wv := range fleetView.Workers {
		points[wv.Name] = wv.PointsDone
	}
	if points["zombie"] != 0 {
		t.Fatalf("zombie completed %d points", points["zombie"])
	}
	if points["w1"]+points["w2"] != total {
		t.Fatalf("fleet view: w1+w2 = %d points, want %d (%+v)", points["w1"]+points["w2"], total, fleetView.Workers)
	}

	stopHTTPWorkers(m, stopWorkers, &wg)
}

// TestDistributedCacheReuse proves the daemon-side store integration:
// records posted by workers are persisted, and an identical resubmission
// is served entirely from cache without a single lease.
func TestDistributedCacheReuse(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 2,
		LeaseTTL:    time.Second,
		Cache:       st,
	})
	defer m.Shutdown(context.Background())

	// The in-process worker drives Manager's WorkerAPI directly — the
	// same loop, no HTTP — exercising sweepd's local-workers fallback.
	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		RunWorker(wctx, m, WorkerOptions{Name: "local-0", Poll: 5 * time.Millisecond, Workers: 1})
	}()

	req := Request{Scenario: "embedded-box", Budget: "analytic", Seed: 5}
	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	fv := waitState(t, m, first.ID, StateDone)
	if fv.Progress.Cached != 0 {
		t.Fatalf("cold job cached %d points", fv.Progress.Cached)
	}
	if st.Len() != fv.Progress.Total {
		t.Fatalf("store holds %d points after first job, want %d", st.Len(), fv.Progress.Total)
	}

	// No workers for the second job: every point must come from the
	// store, so it completes without any leasing at all.
	stopWorkers()
	<-workerDone
	second, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	sv := waitState(t, m, second.ID, StateDone)
	if sv.Progress.Cached != sv.Progress.Total {
		t.Fatalf("resubmission cached %d of %d points", sv.Progress.Cached, sv.Progress.Total)
	}

	r1, err := m.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(r1.Records)
	b, _ := json.Marshal(r2.Records)
	if !bytes.Equal(a, b) {
		t.Fatal("cached resubmission records differ from computed records")
	}
}

// TestLeaseValidationAndIdempotency drives the worker API by hand:
// wrong-shaped completions are rejected 422-style, correct completions
// land, and duplicates are no-ops.
func TestLeaseValidationAndIdempotency(t *testing.T) {
	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		// Two chunks: while the second is out the job cannot end, and
		// a job's end forgets its lease ids, so the duplicate completion
		// of the first chunk meets a live job.
		ChunkPoints: 4,
		LeaseTTL:    time.Minute,
	})
	defer m.Shutdown(context.Background())

	v, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := leaseEventually(t, m, "hand")
	budget, _ := sweep.ParseBudget(l.Budget)
	recs, _, err := sweep.EvaluatePoints(context.Background(), l.Scenario, l.Points,
		sweep.Config{Workers: 1, Seed: l.Seed, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}

	// Wrong count, wrong index, wrong scenario: all rejected.
	if err := m.Complete(l.ID, recs[:1]); !errors.Is(err, ErrBadRecords) {
		t.Fatalf("short completion error = %v, want ErrBadRecords", err)
	}
	mangled := append([]sweep.Record(nil), recs...)
	mangled[0].Index = 99
	if err := m.Complete(l.ID, mangled); !errors.Is(err, ErrBadRecords) {
		t.Fatalf("mangled-index completion error = %v, want ErrBadRecords", err)
	}
	mangled = append([]sweep.Record(nil), recs...)
	mangled[0].Scenario = "embedded-box"
	if err := m.Complete(l.ID, mangled); !errors.Is(err, ErrBadRecords) {
		t.Fatalf("mangled-scenario completion error = %v, want ErrBadRecords", err)
	}

	// The rejected attempts must not have consumed the lease.
	if _, err := m.Heartbeat(l.ID); err != nil {
		t.Fatalf("heartbeat after rejected completion: %v", err)
	}
	if err := m.Complete(l.ID, recs); err != nil {
		t.Fatalf("valid completion: %v", err)
	}
	if err := m.Complete(l.ID, recs); err != nil {
		t.Fatalf("duplicate completion not idempotent: %v", err)
	}
	l2 := leaseEventually(t, m, "hand")
	recs2, _, err := sweep.EvaluatePoints(context.Background(), l2.Scenario, l2.Points,
		sweep.Config{Workers: 1, Seed: l2.Seed, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Complete(l2.ID, recs2); err != nil {
		t.Fatalf("second chunk's completion: %v", err)
	}
	waitState(t, m, v.ID, StateDone)

	// Unknown lease ids answer gone.
	if _, err := m.Heartbeat("lease-999999"); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("unknown heartbeat error = %v, want ErrLeaseGone", err)
	}
}

// TestLateCompletionCreditsOriginalWorker: a completion under an
// expired, re-leased lease is accepted, but the fleet view must credit
// the worker that did the work — not the chunk's new holder.
func TestLateCompletionCreditsOriginalWorker(t *testing.T) {
	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 100, // one chunk per job
		LeaseTTL:    30 * time.Millisecond,
	})
	defer m.Shutdown(context.Background())
	v, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	slow := leaseEventually(t, m, "slow")
	budget, _ := sweep.ParseBudget(slow.Budget)
	recs, _, err := sweep.EvaluatePoints(context.Background(), slow.Scenario, slow.Points,
		sweep.Config{Workers: 1, Seed: slow.Seed, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}

	// The lease expires and the chunk is re-leased to another worker.
	time.Sleep(50 * time.Millisecond)
	fast := leaseEventually(t, m, "fast")
	if fast.Start != slow.Start || fast.End != slow.End {
		t.Fatalf("re-lease got chunk [%d,%d), want [%d,%d)", fast.Start, fast.End, slow.Start, slow.End)
	}

	// The slow worker's late completion lands first and wins.
	if err := m.Complete(slow.ID, recs); err != nil {
		t.Fatalf("late completion rejected: %v", err)
	}
	waitState(t, m, v.ID, StateDone)
	// The re-lease's duplicate completion is a no-op either way: an
	// idempotent OK if it races in before the finished job's lease table
	// is torn down, gone afterwards. It must never be credited.
	if err := m.Complete(fast.ID, recs); err != nil && !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("re-lease duplicate completion: %v", err)
	}

	points := map[string]int{}
	for _, wv := range m.FleetStats().Workers {
		points[wv.Name] = wv.PointsDone
	}
	if points["slow"] != len(recs) || points["fast"] != 0 {
		t.Fatalf("fleet credit slow=%d fast=%d, want %d and 0", points["slow"], points["fast"], len(recs))
	}
}

// TestTerminalJobsReleaseGrid: a job drops its point grid once terminal
// — done through the fleet, or cancelled while queued — so the retained
// job table pins only results, which Result and the records stream
// keep serving.
func TestTerminalJobsReleaseGrid(t *testing.T) {
	m := New(Options{JobWorkers: 1, Distributed: true, LeaseTTL: time.Minute})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	grid := func(id string) []sweep.Point {
		m.mu.Lock()
		j := m.jobs[id]
		m.mu.Unlock()
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.pts
	}

	// No worker yet: the first job holds the only scheduler slot, so the
	// second stays queued until it is cancelled.
	running, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, err := m.Submit(Request{Scenario: "embedded-box", Budget: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	if grid(queued.ID) == nil {
		t.Fatal("queued job holds no grid")
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, queued.ID, StateCancelled)
	if grid(queued.ID) != nil {
		t.Error("job cancelled while queued still holds its grid")
	}

	wctx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		RunWorker(wctx, m, WorkerOptions{Name: "w", Poll: 5 * time.Millisecond, Workers: 1})
	}()
	defer func() {
		stopWorker()
		<-workerDone
	}()
	done := waitState(t, m, running.ID, StateDone)
	if grid(running.ID) != nil {
		t.Error("done job still holds its grid")
	}
	res, err := m.Result(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	streamed, _ := getRecords(t, srv, running.ID)
	if len(res.Records) != done.Progress.Total || len(streamed) != done.Progress.Total {
		t.Fatalf("done job serves %d result / %d streamed records, want %d",
			len(res.Records), len(streamed), done.Progress.Total)
	}
}

// TestWorkerReportsPanickingEvaluation: a panic inside chunk evaluation
// must reach FailLease (failing the job) rather than being mistaken for
// a lost lease and silently retried forever.
func TestWorkerReportsPanickingEvaluation(t *testing.T) {
	orig := evalPoints
	evalPoints = func(context.Context, string, []sweep.Point, sweep.Config) ([]sweep.Record, int, error) {
		panic("synthetic evaluation panic")
	}

	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 100,
		LeaseTTL:    time.Minute,
	})
	defer m.Shutdown(context.Background())
	wctx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		RunWorker(wctx, m, WorkerOptions{Name: "panicky", Poll: 5 * time.Millisecond})
	}()
	defer func() {
		// The worker goroutine must be gone before the patched hook is
		// restored, or the restore races its reads.
		stopWorker()
		<-workerDone
		evalPoints = orig
	}()

	v, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, StateFailed)
	if !strings.Contains(got.Error, "synthetic evaluation panic") {
		t.Fatalf("job error = %q, want the panic message", got.Error)
	}
}

// TestWorkerEscalatesRejectedRecords: when the daemon rejects a
// completion as ErrBadRecords (grid skew between binaries), the
// rejection is deterministic — the worker must fail the job rather than
// let the chunk bounce between leases forever.
func TestWorkerEscalatesRejectedRecords(t *testing.T) {
	orig := evalPoints
	evalPoints = func(ctx context.Context, scenario string, pts []sweep.Point, cfg sweep.Config) ([]sweep.Record, int, error) {
		recs, cached, err := orig(ctx, scenario, pts, cfg)
		for i := range recs {
			recs[i].Index += 1000 // a grid the daemon does not recognise
		}
		return recs, cached, err
	}

	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 100,
		LeaseTTL:    time.Minute,
	})
	defer m.Shutdown(context.Background())
	wctx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		RunWorker(wctx, m, WorkerOptions{Name: "skewed", Poll: 5 * time.Millisecond, Workers: 1})
	}()
	defer func() {
		stopWorker()
		<-workerDone
		evalPoints = orig
	}()

	v, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, StateFailed)
	if !strings.Contains(got.Error, "records do not match") {
		t.Fatalf("job error = %q, want the record-mismatch reason", got.Error)
	}
}

// TestFailLeaseFailsJob mirrors the in-process panic containment: a
// worker reporting an unevaluable chunk fails the whole job.
func TestFailLeaseFailsJob(t *testing.T) {
	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 2,
		LeaseTTL:    time.Minute,
	})
	defer m.Shutdown(context.Background())
	v, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	l := leaseEventually(t, m, "sick")
	if err := m.FailLease(l.ID, "synthetic failure"); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, StateFailed)
	if got.Error == "" {
		t.Fatal("failed job carries no error message")
	}
}

// TestWorkerEndpointsHTTPStatus pins the wire contract of the worker
// endpoints: 204 on no work, 400 on bad bodies, 410 on dead leases. An
// idle lease request, over HTTP or in-process, answers "no work" only
// after the daemon held it for the full leaseHold. Parallel: those
// holds are the test's whole wall time.
func TestWorkerEndpointsHTTPStatus(t *testing.T) {
	t.Parallel()
	m := New(Options{JobWorkers: 1, Distributed: true, LeaseTTL: time.Minute})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	inProcess := leaseAsync(m, "idle-in-process")

	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	asked := time.Now()
	if code := post("/api/v1/workers/lease", `{"worker":"idle"}`); code != http.StatusNoContent {
		t.Fatalf("idle lease = %d, want 204", code)
	}
	if held := time.Since(asked); held < leaseHold || held > 2*leaseHold {
		t.Fatalf("idle lease answered after %v, want about %v", held, leaseHold)
	}
	if r := <-inProcess; r.err != nil || r.ok || r.elapsed < leaseHold || r.elapsed > 2*leaseHold {
		t.Fatalf("idle in-process lease = (%+v, %v, %v) after %v, want empty after about %v",
			r.l, r.ok, r.err, r.elapsed, leaseHold)
	}
	if code := post("/api/v1/workers/lease", `{}`); code != http.StatusBadRequest {
		t.Fatalf("nameless lease = %d, want 400", code)
	}
	if code := post("/api/v1/workers/leases/lease-000042/heartbeat", ``); code != http.StatusGone {
		t.Fatalf("dead heartbeat = %d, want 410", code)
	}
	if code := post("/api/v1/workers/leases/lease-000042/complete", `{"records":[]}`); code != http.StatusGone {
		t.Fatalf("dead complete = %d, want 410", code)
	}
	if code := post("/api/v1/workers/leases/lease-000042/fail", `{"error":"x"}`); code != http.StatusGone {
		t.Fatalf("dead fail = %d, want 410", code)
	}
}

// leaseResult is one Manager.Lease call's outcome, timed from the call.
type leaseResult struct {
	worker  string
	l       Lease
	ok      bool
	err     error
	elapsed time.Duration
}

// leaseAsync calls m.Lease on its own goroutine and delivers the
// outcome on the returned channel.
func leaseAsync(m *Manager, worker string) <-chan leaseResult {
	out := make(chan leaseResult, 1)
	go func() {
		start := time.Now()
		l, ok, err := m.Lease(worker)
		out <- leaseResult{worker: worker, l: l, ok: ok, err: err, elapsed: time.Since(start)}
	}()
	return out
}

// waitParked waits until the named worker's lease request has reached
// the dispatcher, which records every worker it sees.
func waitParked(t *testing.T, m *Manager, worker string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m.dispatch.mu.Lock()
		_, seen := m.dispatch.fleet[worker]
		m.dispatch.mu.Unlock()
		if seen {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("lease request of %s never reached the dispatcher", worker)
}

// TestParkedLeaseWakesOnSubmit: a lease request that found no work is
// held by the daemon and handed the first chunk of a job submitted
// meanwhile, long before its hold runs out.
func TestParkedLeaseWakesOnSubmit(t *testing.T) {
	m := New(Options{JobWorkers: 1, Distributed: true, ChunkPoints: 100, LeaseTTL: time.Minute})
	defer m.Shutdown(context.Background())
	got := leaseAsync(m, "parked")
	waitParked(t, m, "parked")
	submitted := time.Now()
	v, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil || !r.ok || r.l.JobID != v.ID {
		t.Fatalf("parked lease = (%+v, %v, %v), want a chunk of %s", r.l, r.ok, r.err, v.ID)
	}
	if wait := time.Since(submitted); wait >= leaseHold/2 {
		t.Fatalf("parked lease took %v after the submit, want well inside the %v hold", wait, leaseHold)
	}
}

// TestParkedLeaseRaceLoserKeepsWaiting: two parked workers, one chunk.
// Exactly one gets it; the other parks again instead of answering
// empty, and takes the next chunk that arrives.
func TestParkedLeaseRaceLoserKeepsWaiting(t *testing.T) {
	m := New(Options{JobWorkers: 2, Distributed: true, ChunkPoints: 100, LeaseTTL: time.Minute})
	defer m.Shutdown(context.Background())
	a := leaseAsync(m, "a")
	waitParked(t, m, "a")
	b := leaseAsync(m, "b")
	waitParked(t, m, "b")
	first, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var win leaseResult
	loser := b
	select {
	case win = <-a:
	case win = <-b:
		loser = a
	}
	if win.err != nil || !win.ok || win.l.JobID != first.ID {
		t.Fatalf("winner = (%+v, %v, %v), want a chunk of %s", win.l, win.ok, win.err, first.ID)
	}
	select {
	case r := <-loser:
		t.Fatalf("race loser %s returned (%+v, %v, %v) before new work arrived", r.worker, r.l, r.ok, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	second, err := m.Submit(Request{Scenario: "embedded-box", Budget: "analytic", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	lose := <-loser
	if lose.err != nil || !lose.ok || lose.l.JobID != second.ID {
		t.Fatalf("loser %s = (%+v, %v, %v), want a chunk of %s", lose.worker, lose.l, lose.ok, lose.err, second.ID)
	}
	if lose.elapsed >= leaseHold {
		t.Fatalf("loser waited %v, past its %v hold", lose.elapsed, leaseHold)
	}
}

// TestParkedLeaseTakesExpiredChunk: a parked request wakes when a live
// lease expires, so a dead worker's chunk is re-leased at its TTL and
// not only when the hold runs out.
func TestParkedLeaseTakesExpiredChunk(t *testing.T) {
	m := New(Options{JobWorkers: 1, Distributed: true, ChunkPoints: 100, LeaseTTL: 50 * time.Millisecond})
	defer m.Shutdown(context.Background())
	if _, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 4}); err != nil {
		t.Fatal(err)
	}
	dead := leaseEventually(t, m, "dead")
	r := <-leaseAsync(m, "rescuer")
	if r.err != nil || !r.ok || r.l.Start != dead.Start || r.l.End != dead.End {
		t.Fatalf("rescuer = (%+v, %v, %v), want the expired chunk [%d,%d)", r.l, r.ok, r.err, dead.Start, dead.End)
	}
	if r.elapsed >= leaseHold {
		t.Fatalf("expired chunk re-leased after %v, want about the 50ms TTL", r.elapsed)
	}
}

// TestShutdownReleasesParkedLeases: Shutdown answers every parked lease
// request at once instead of letting it wait out its hold.
func TestShutdownReleasesParkedLeases(t *testing.T) {
	m := New(Options{JobWorkers: 1, Distributed: true, LeaseTTL: time.Minute})
	got := leaseAsync(m, "parked")
	waitParked(t, m, "parked")
	stopped := time.Now()
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil || r.ok {
		t.Fatalf("lease at shutdown = (%+v, %v, %v), want empty", r.l, r.ok, r.err)
	}
	if wait := time.Since(stopped); wait >= leaseHold/2 {
		t.Fatalf("parked lease outlived shutdown by %v", wait)
	}
}

// TestCancelledHTTPLeaseReleasesHandler: a worker that hangs up on a
// parked lease request frees its handler at once — the server's Close,
// which waits for every handler, does not wait out the hold.
func TestCancelledHTTPLeaseReleasesHandler(t *testing.T) {
	m := New(Options{JobWorkers: 1, Distributed: true, LeaseTTL: time.Minute})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/api/v1/workers/lease",
		strings.NewReader(`{"worker":"hangup"}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitParked(t, m, "hangup")
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lease request error = %v, want context.Canceled", err)
	}
	closed := time.Now()
	srv.Close()
	if wait := time.Since(closed); wait >= leaseHold/2 {
		t.Fatalf("server close waited %v for a cancelled lease handler", wait)
	}
}

// TestRemoteWorkerStopsInsideHeldLease: a RunWorker leasing over the
// HTTP client returns as soon as it is cancelled, even while the daemon
// holds its lease request, instead of waiting out the hold.
func TestRemoteWorkerStopsInsideHeldLease(t *testing.T) {
	m := New(Options{JobWorkers: 1, Distributed: true, LeaseTTL: time.Minute})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- RunWorker(ctx, NewClient(srv.URL), WorkerOptions{Name: "remote", Workers: 1}) }()
	waitParked(t, m, "remote")
	cancelled := time.Now()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunWorker = %v, want context.Canceled", err)
	}
	if wait := time.Since(cancelled); wait >= 100*time.Millisecond {
		t.Fatalf("worker stopped %v after cancel, inside a %v lease hold", wait, leaseHold)
	}
}

// idleAPI is a WorkerAPI that never has work. Each Lease call answers
// "no work" after hold, which is zero for a daemon that does not hold
// requests.
type idleAPI struct{ hold time.Duration }

func (a *idleAPI) Lease(string) (Lease, bool, error) {
	time.Sleep(a.hold)
	return Lease{}, false, nil
}
func (a *idleAPI) Heartbeat(string) (time.Duration, error) { return 0, ErrLeaseGone }
func (a *idleAPI) Complete(string, []sweep.Record) error   { return ErrLeaseGone }
func (a *idleAPI) FailLease(string, string) error          { return ErrLeaseGone }

// TestRunWorkerPacesEmptyLeases: an empty lease is followed by the rest
// of the poll interval, never a full one on top of the daemon's hold.
// Against a daemon that answers at once the worker waits out what is
// left of Poll rather than spinning; against a daemon that held the
// request for a whole Poll it asks again right away. The worker's waits
// are recorded, not slept, so the check does not depend on how promptly
// the scheduler runs it.
func TestRunWorkerPacesEmptyLeases(t *testing.T) {
	orig := sleep
	defer func() { sleep = orig }()
	waits := func(api WorkerAPI, poll time.Duration) []time.Duration {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var asked []time.Duration
		sleep = func(_ context.Context, d time.Duration) bool {
			if asked = append(asked, d); len(asked) == 3 {
				cancel()
				return false
			}
			return true
		}
		if err := RunWorker(ctx, api, WorkerOptions{Name: "idle", Poll: poll}); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunWorker = %v, want context.Canceled", err)
		}
		return asked
	}
	// Poll is long enough that an instant answer always leaves some of
	// it to wait, whatever the scheduler does.
	const poll = time.Hour
	for _, d := range waits(&idleAPI{}, poll) {
		if d <= 0 || d > poll {
			t.Fatalf("after an instant empty lease the worker waited %v, want the rest of Poll, in (0, %v]", d, poll)
		}
	}
	const hold = 5 * time.Millisecond
	for _, d := range waits(&idleAPI{hold: hold}, hold) {
		if d > 0 {
			t.Fatalf("after a lease held for Poll (%v) the worker waited %v more, want none", hold, d)
		}
	}
}

// pointlessAPI is a WorkerAPI standing in for a daemon built before
// leases carried their points: it hands out one grid lease with a slot
// range but no points, and counts every call the worker makes about it.
type pointlessAPI struct {
	leases, completes, fails atomic.Int64
}

func (a *pointlessAPI) Lease(string) (Lease, bool, error) {
	a.leases.Add(1)
	return Lease{
		ID: "L1", JobID: "job-1", Scenario: "paper-baseline", Budget: "analytic",
		Start: 4, End: 8, Engine: sweep.EngineVersion, TTLSeconds: 30,
	}, true, nil
}
func (a *pointlessAPI) Heartbeat(string) (time.Duration, error) { return time.Minute, nil }
func (a *pointlessAPI) Complete(string, []sweep.Record) error {
	a.completes.Add(1)
	return nil
}
func (a *pointlessAPI) FailLease(string, string) error {
	a.fails.Add(1)
	return nil
}

// TestWorkerRefusesLeaseWithoutPoints: a lease whose points do not
// cover its slot range is a daemon/worker build mismatch. The worker
// must exit with a "rebuild the worker" error, like an engine mismatch,
// without posting records or failing the job, so the lease expires to a
// worker that matches the daemon.
func TestWorkerRefusesLeaseWithoutPoints(t *testing.T) {
	api := &pointlessAPI{}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := RunWorker(ctx, api, WorkerOptions{Name: "new", Poll: 5 * time.Millisecond, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "rebuild the worker") {
		t.Fatalf("RunWorker = %v, want a terminal rebuild-the-worker error", err)
	}
	if n := api.leases.Load(); n != 1 {
		t.Fatalf("worker took %d leases, want to stop after the first", n)
	}
	if c, f := api.completes.Load(), api.fails.Load(); c != 0 || f != 0 {
		t.Fatalf("worker posted %d completions and %d failures, want none", c, f)
	}
}

// specAllSections sets the traffic, interference and power sections in
// one grid, with fractional knob values, so every optional SystemSpec
// section rides a lease.
const specAllSections = `{
	"name": "all-sections",
	"base": {"traffic-pattern": "hotspot", "traffic-hotspot-module": 1, "stack-modules": 16,
		"interference-neighbors": 1, "interference-rejection-db": 12.5},
	"axes": [
		{"name": "traffic-hotspot-fraction", "kind": "continuous", "min": 0.1, "max": 0.3, "step": 0.1},
		{"name": "max-tx-power-dbm", "kind": "continuous", "min": -3.3, "max": 0.7, "step": 2},
		{"name": "interference-copper-boards", "kind": "bool"}
	],
	"budget": "analytic"
}`

// TestLeasePointsSurviveTheWire: every lease now carries its points, so
// registry grids and spec grids travel as JSON. Through the daemon's HTTP
// encoder and the Client's decoder, every point of every registered
// scenario and of spec grids setting each optional section must arrive
// deep-equal, with the same cache key, as the grid the daemon compiled.
func TestLeasePointsSurviveTheWire(t *testing.T) {
	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 1 << 20, // one lease per job
		LeaseTTL:    time.Minute,
	})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	cl := NewClient(srv.URL)

	check := func(what string, req Request, want []sweep.Point) {
		t.Helper()
		v, err := m.Submit(req)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var l Lease
		for ok := false; !ok; {
			if l, ok, err = cl.lease(context.Background(), "wire"); err != nil {
				t.Fatalf("%s: lease: %v", what, err)
			}
		}
		if l.JobID != v.ID || l.Start != 0 || l.End != len(want) {
			t.Fatalf("%s: lease %s [%d,%d), want job %s [0,%d)", what, l.JobID, l.Start, l.End, v.ID, len(want))
		}
		if !reflect.DeepEqual(l.Points, want) {
			t.Fatalf("%s: leased points differ from the compiled grid", what)
		}
		budget, err := sweep.ParseBudget(l.Budget)
		if err != nil {
			t.Fatal(err)
		}
		keyer := sweep.NewKeyer(l.Scenario, budget, l.Seed)
		for k := range want {
			if got, exp := keyer.Key(l.Points[k]), keyer.Key(want[k]); got != exp {
				t.Fatalf("%s: point %d keys %s over the wire, %s at the daemon", what, k, got, exp)
			}
		}
		if err := m.Cancel(v.ID); err != nil {
			t.Fatal(err)
		}
		waitState(t, m, v.ID, StateCancelled)
	}

	for _, name := range sweep.Names() {
		sc, err := sweep.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		check(name, Request{Scenario: name, Budget: "analytic", Seed: 5}, sc.Points())
	}
	for _, doc := range []string{specNoC, specInterference, specAllSections} {
		sp, err := spec.Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		check(sp.Name, Request{Spec: json.RawMessage(doc), Seed: 5}, compiled.Scenario.Points())
	}
}

// stopHTTPWorkers shuts m down, then cancels the HTTP worker loops and
// waits for them. Shutdown answers the lease requests parked in the
// daemon at once, so the workers stop without waiting out a hold, and
// every handler has returned by the time its worker has.
func stopHTTPWorkers(m *Manager, stop context.CancelFunc, wg *sync.WaitGroup) {
	m.Shutdown(context.Background())
	stop()
	wg.Wait()
}

// leaseEventually polls Manager.Lease until the scheduler has enqueued
// chunks for a just-submitted job.
func leaseEventually(t *testing.T, m *Manager, worker string) Lease {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		l, ok, err := m.Lease(worker)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return l
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no chunk became leasable")
	return Lease{}
}
