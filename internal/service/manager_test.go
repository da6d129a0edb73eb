package service

import (
	"container/heap"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

func TestQueuePriorityFIFO(t *testing.T) {
	var q jobQueue
	heap.Init(&q)
	push := func(seq uint64, prio int) {
		q.push(&job{id: "j", seq: seq, req: Request{Priority: prio}})
	}
	push(1, 0)
	push(2, 10)
	push(3, 10)
	push(4, 5)
	var got []uint64
	for j := q.pop(); j != nil; j = q.pop() {
		got = append(got, j.seq)
	}
	want := []uint64{2, 3, 4, 1} // priority desc, FIFO within a priority
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestSubmitValidates(t *testing.T) {
	m := New(Options{})
	defer m.Shutdown(context.Background())
	if _, err := m.Submit(Request{Scenario: "no-such-scenario"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := m.Submit(Request{Scenario: "paper-baseline", Budget: "bogus"}); err == nil {
		t.Error("unknown budget accepted")
	}
	if _, err := m.Get("job-999999"); err == nil {
		t.Error("unknown job id accepted")
	}
	if err := m.Cancel("job-999999"); err == nil {
		t.Error("cancel of unknown job accepted")
	}
}

// blockingManager returns a single-worker manager whose jobs block until
// their context is cancelled or the returned release channel is closed,
// recording the order jobs start in.
func blockingManager(t *testing.T) (*Manager, chan struct{}, *[]string, *sync.Mutex) {
	t.Helper()
	m := New(Options{JobWorkers: 1})
	release := make(chan struct{})
	var mu sync.Mutex
	var started []string
	m.evaluate = func(ctx context.Context, j *job, _ []sweep.Point) ([]sweep.Record, []string, int, error) {
		mu.Lock()
		started = append(started, j.scenarioName)
		mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, nil, 0, ctx.Err()
		case <-release:
			return nil, nil, 0, nil
		}
	}
	return m, release, &started, &mu
}

func waitState(t *testing.T, m *Manager, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s (err %q)", id, v.State, want, v.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

func TestSchedulerRunsByPriority(t *testing.T) {
	m, release, started, mu := blockingManager(t)
	defer m.Shutdown(context.Background())

	// Occupy the single worker, then stack the queue.
	blocker, err := m.Submit(Request{Scenario: "paper-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	low, _ := m.Submit(Request{Scenario: "embedded-box", Priority: 0})
	hiA, _ := m.Submit(Request{Scenario: "dense-rack", Priority: 10})
	hiB, _ := m.Submit(Request{Scenario: "manycore", Priority: 10})
	mid, _ := m.Submit(Request{Scenario: "butler-vs-steered", Priority: 5})

	close(release)
	for _, id := range []string{blocker.ID, low.ID, hiA.ID, hiB.ID, mid.ID} {
		waitState(t, m, id, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	order := *started
	want := []string{"paper-baseline", "dense-rack", "manycore", "butler-vs-steered", "embedded-box"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("start order = %v, want %v", order, want)
		}
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	m, release, started, mu := blockingManager(t)
	defer m.Shutdown(context.Background())

	blocker, err := m.Submit(Request{Scenario: "paper-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	queued, _ := m.Submit(Request{Scenario: "embedded-box"})
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	v := waitState(t, m, queued.ID, StateCancelled)
	if v.Error == "" {
		t.Error("cancelled job carries no reason")
	}
	close(release)
	waitState(t, m, blocker.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	if len(*started) != 1 {
		t.Fatalf("cancelled queued job still ran: %v", *started)
	}
	// Cancelling a terminal job is a no-op, not an error.
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m, _, _, _ := blockingManager(t)
	defer m.Shutdown(context.Background())

	v, err := m.Submit(Request{Scenario: "paper-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateRunning)
	if err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, StateCancelled)
	if got.FinishedAt == nil {
		t.Error("cancelled job has no finish time")
	}
	if _, err := m.Result(v.ID); err == nil {
		t.Error("cancelled job served a result")
	}
}

func TestShutdownCancelsInFlightAndQueued(t *testing.T) {
	m, _, _, _ := blockingManager(t)

	running, err := m.Submit(Request{Scenario: "paper-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, _ := m.Submit(Request{Scenario: "embedded-box"})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateCancelled {
			t.Errorf("job %s = %s after shutdown, want cancelled", id, v.State)
		}
	}
	if _, err := m.Submit(Request{Scenario: "paper-baseline"}); err != ErrShutdown {
		t.Errorf("post-shutdown Submit err = %v, want ErrShutdown", err)
	}
	// Idempotent.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestJobPanicMarksFailedNotCrash(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	m.evaluate = func(_ context.Context, j *job, _ []sweep.Point) ([]sweep.Record, []string, int, error) {
		if j.scenarioName == "paper-baseline" {
			panic("evaluate blew up")
		}
		return nil, nil, 0, nil
	}

	bad, err := m.Submit(Request{Scenario: "paper-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, m, bad.ID, StateFailed)
	if !strings.Contains(v.Error, "panicked") || !strings.Contains(v.Error, "evaluate blew up") {
		t.Fatalf("failure message lost the panic: %q", v.Error)
	}
	// The scheduler survived: the next job still runs.
	ok, err := m.Submit(Request{Scenario: "embedded-box"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, ok.ID, StateDone)
}

func TestRetainJobsEvictsOldestTerminal(t *testing.T) {
	m := New(Options{JobWorkers: 1, RetainJobs: 2})
	defer m.Shutdown(context.Background())
	m.evaluate = func(context.Context, *job, []sweep.Point) ([]sweep.Record, []string, int, error) {
		return nil, nil, 0, nil
	}

	var ids []string
	for i := 0; i < 4; i++ {
		v, err := m.Submit(Request{Scenario: "embedded-box"})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, v.ID, StateDone)
		ids = append(ids, v.ID)
	}
	if got := len(m.ListPage(ListQuery{}).Jobs); got > 2 {
		t.Fatalf("job table holds %d jobs, cap is 2", got)
	}
	if _, err := m.Get(ids[0]); err == nil {
		t.Error("oldest terminal job not evicted")
	}
	if _, err := m.Get(ids[3]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
}

// memCache is a minimal sweep.Cache for dedup tests.
type memCache struct {
	mu sync.Mutex
	m  map[string]sweep.Record
}

func (c *memCache) Get(key string) (sweep.Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	return r, ok
}

func (c *memCache) Put(key string, rec sweep.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = rec
}

func TestJobsDedupThroughSharedCache(t *testing.T) {
	cache := &memCache{m: make(map[string]sweep.Record)}
	m := New(Options{JobWorkers: 1, Cache: cache})
	defer m.Shutdown(context.Background())

	req := Request{Scenario: "embedded-box", Budget: "analytic", Seed: 11}
	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitState(t, m, first.ID, StateDone)
	if v1.Progress.Cached != 0 || v1.Progress.Done != v1.Progress.Total {
		t.Fatalf("first run progress = %+v", v1.Progress)
	}

	second, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitState(t, m, second.ID, StateDone)
	if v2.Progress.Cached != v2.Progress.Total {
		t.Fatalf("second run cached %d of %d points", v2.Progress.Cached, v2.Progress.Total)
	}
	r1, err := m.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CachedPoints != len(r2.Records) || r2.ComputedPoints != 0 {
		t.Fatalf("second result computed %d points", r2.ComputedPoints)
	}
	for i := range r1.Records {
		if r1.Records[i] != r2.Records[i] {
			t.Fatalf("record %d differs between runs", i)
		}
	}
}
