package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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

	stopWorkers()
	wg.Wait()
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
		ChunkPoints: 100, // one chunk per job
		LeaseTTL:    time.Minute,
	})
	defer m.Shutdown(context.Background())

	v, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := leaseEventually(t, m, "hand")
	sc, _ := sweep.Get(l.Scenario)
	budget, _ := sweep.ParseBudget(l.Budget)
	recs, err := sweep.EvaluateChunk(context.Background(), sc, sweep.Chunk{Start: l.Start, End: l.End},
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
	sc, _ := sweep.Get(slow.Scenario)
	budget, _ := sweep.ParseBudget(slow.Budget)
	recs, err := sweep.EvaluateChunk(context.Background(), sc, sweep.Chunk{Start: slow.Start, End: slow.End},
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
	orig := evalChunk
	evalChunk = func(context.Context, sweep.Scenario, sweep.Chunk, sweep.Config) ([]sweep.Record, error) {
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
		evalChunk = orig
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
	orig := evalChunk
	evalChunk = func(ctx context.Context, sc sweep.Scenario, c sweep.Chunk, cfg sweep.Config) ([]sweep.Record, error) {
		recs, err := orig(ctx, sc, c, cfg)
		for i := range recs {
			recs[i].Index += 1000 // a grid the daemon does not recognise
		}
		return recs, err
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
		evalChunk = orig
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
// endpoints: 204 on no work, 400 on bad bodies, 410 on dead leases.
func TestWorkerEndpointsHTTPStatus(t *testing.T) {
	m := New(Options{JobWorkers: 1, Distributed: true, LeaseTTL: time.Minute})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/api/v1/workers/lease", `{"worker":"idle"}`); code != http.StatusNoContent {
		t.Fatalf("idle lease = %d, want 204", code)
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
