package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// The fleet shape: sweepd's defaults in distributed mode, and two HTTP
// workers with one evaluation goroutine each, so evaluation uses two
// cores. The workers poll for leases every 100 ms, the interval sweepd's
// in-process workers use, not sweepworker's 500 ms default: a job that
// arrives while both workers sleep waits out the poll, and at 500 ms a
// 20-second run holds only a few dozen such stalls, too few for any
// statistic over them to repeat within 15% from run to run.
const (
	fleetWorkers   = 2
	fleetShards    = 4
	fleetJobs      = 2
	fleetChunk     = 4
	fleetLeaseTTL  = 30 * time.Second
	fleetPoll      = 100 * time.Millisecond
	workerEvalPool = 1
)

// fleet is one running daemon (HTTP handler over a Manager over a
// sharded store) plus its two HTTP workers, all in this process.
type fleet struct {
	dir   string
	st    *store.Sharded
	mgr   *service.Manager
	srv   *httptest.Server
	stop  context.CancelFunc
	wg    sync.WaitGroup
	errMu sync.Mutex
	err   error // first worker-loop error

	// Set only in a traced fleet: the span ring and the timing wrappers
	// around the store and each worker's RPC client.
	trace *obs.Collector
	cache *timedCache
	rpcs  []*timedWorker
}

// startFleet opens a fresh store under workdir and brings the daemon and
// its workers up.
func startFleet(workdir string, traced bool) (*fleet, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.OpenSharded(dir, fleetShards, store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &fleet{dir: dir, st: st}
	opts := service.Options{
		Distributed: true,
		JobWorkers:  fleetJobs,
		ChunkPoints: fleetChunk,
		LeaseTTL:    fleetLeaseTTL,
		Cache:       st,
	}
	if traced {
		f.trace = obs.NewCollector(obs.DefaultCollectorCap)
		f.cache = &timedCache{inner: st}
		opts.Trace = f.trace
		opts.Cache = f.cache
	}
	f.mgr = service.New(opts)
	f.srv = httptest.NewServer(service.NewHandler(f.mgr))
	ctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	for i := 0; i < fleetWorkers; i++ {
		var api service.WorkerAPI = service.NewClient(f.srv.URL)
		if traced {
			tw := &timedWorker{inner: service.NewClient(f.srv.URL)}
			f.rpcs = append(f.rpcs, tw)
			api = tw
		}
		f.wg.Add(1)
		go func(name string) {
			defer f.wg.Done()
			err := service.RunWorker(ctx, api, service.WorkerOptions{Name: name, Poll: fleetPoll, Workers: workerEvalPool})
			if err != nil && !errors.Is(err, context.Canceled) {
				f.errMu.Lock()
				if f.err == nil {
					f.err = fmt.Errorf("worker %s: %w", name, err)
				}
				f.errMu.Unlock()
			}
		}(fmt.Sprintf("bench-%d", i))
	}
	return f, nil
}

// workerErr reports the first worker loop that stopped on its own.
func (f *fleet) workerErr() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

// close stops the workers, the listener, the manager and the store, in
// that order, and deletes the store directory.
func (f *fleet) close() error {
	f.stop()
	f.wg.Wait()
	f.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.mgr.Shutdown(ctx)
	if cerr := f.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// resetCounters zeroes the wrappers' counters, so the traced metrics
// cover the measured phase only, not set-up.
func (f *fleet) resetCounters() {
	if f.cache != nil {
		f.cache.reset()
	}
	for _, w := range f.rpcs {
		w.reset()
	}
}

// timedCache is the store as the dispatcher sees it, timed from outside:
// every Get and Put the daemon makes goes through it.
type timedCache struct {
	inner sweep.Cache

	mu   sync.Mutex
	get  samples // microseconds per Get
	put  samples // microseconds per Put
	hits int
}

func (c *timedCache) Get(key string) (sweep.Record, bool) {
	start := time.Now()
	rec, ok := c.inner.Get(key)
	us := float64(time.Since(start)) / float64(time.Microsecond)
	c.mu.Lock()
	c.get.add(us)
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return rec, ok
}

func (c *timedCache) Put(key string, rec sweep.Record) {
	start := time.Now()
	c.inner.Put(key, rec)
	us := float64(time.Since(start)) / float64(time.Microsecond)
	c.mu.Lock()
	c.put.add(us)
	c.mu.Unlock()
}

func (c *timedCache) reset() {
	c.mu.Lock()
	c.get, c.put, c.hits = samples{}, samples{}, 0
	c.mu.Unlock()
}

// snapshot copies the counters.
func (c *timedCache) snapshot() (get, put samples, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get.clone(), c.put.clone(), c.hits
}

// timedWorker is one worker's RPC client, timed from outside. It
// forwards TracedCompleter, so worker spans still reach the daemon.
type timedWorker struct {
	inner *service.Client

	mu       sync.Mutex
	s        rpcStats
	leasedAt time.Time // when the chunk in hand was granted
}

// rpcStats are one worker's RPC counters over the measured phase.
type rpcStats struct {
	lease     samples // ms per lease RPC, granted or empty
	complete  samples // ms per completion RPC
	granted   int
	empty     int
	beats     int
	gone      int
	completes int
	points    int           // records posted in accepted completions
	busy      time.Duration // sum of grant-to-completion windows
}

var (
	_ service.WorkerAPI       = (*timedWorker)(nil)
	_ service.TracedCompleter = (*timedWorker)(nil)
)

func (w *timedWorker) Lease(worker string) (service.Lease, bool, error) {
	start := time.Now()
	l, ok, err := w.inner.Lease(worker)
	end := time.Now()
	w.mu.Lock()
	w.s.lease.add(ms(end.Sub(start)))
	switch {
	case err != nil:
	case ok:
		w.s.granted++
		w.leasedAt = end
	default:
		w.s.empty++
	}
	w.mu.Unlock()
	return l, ok, err
}

func (w *timedWorker) Heartbeat(leaseID string) (time.Duration, error) {
	ttl, err := w.inner.Heartbeat(leaseID)
	w.mu.Lock()
	w.s.beats++
	if errors.Is(err, service.ErrLeaseGone) {
		w.s.gone++
	}
	w.mu.Unlock()
	return ttl, err
}

func (w *timedWorker) Complete(leaseID string, recs []sweep.Record) error {
	return w.timeCompletion(len(recs), func() error { return w.inner.Complete(leaseID, recs) })
}

func (w *timedWorker) CompleteTraced(leaseID string, recs []sweep.Record, spans []obs.SpanRecord) error {
	return w.timeCompletion(len(recs), func() error { return w.inner.CompleteTraced(leaseID, recs, spans) })
}

func (w *timedWorker) FailLease(leaseID, reason string) error {
	err := w.inner.FailLease(leaseID, reason)
	w.mu.Lock()
	w.endBusy(time.Now())
	w.mu.Unlock()
	return err
}

func (w *timedWorker) timeCompletion(points int, post func() error) error {
	start := time.Now()
	err := post()
	end := time.Now()
	w.mu.Lock()
	w.s.complete.add(ms(end.Sub(start)))
	w.s.completes++
	if err == nil {
		w.s.points += points
	}
	if errors.Is(err, service.ErrLeaseGone) {
		w.s.gone++
	}
	w.endBusy(end)
	w.mu.Unlock()
	return err
}

// endBusy closes the grant-to-completion window of the chunk in hand.
// Called with w.mu held.
func (w *timedWorker) endBusy(end time.Time) {
	if !w.leasedAt.IsZero() {
		w.s.busy += end.Sub(w.leasedAt)
		w.leasedAt = time.Time{}
	}
}

func (w *timedWorker) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.s = rpcStats{}
	if !w.leasedAt.IsZero() {
		// A chunk in hand at the phase start counts from the phase start.
		w.leasedAt = time.Now()
	}
}

// stats snapshots the counters.
func (w *timedWorker) stats() rpcStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.s
	s.lease, s.complete = s.lease.clone(), s.complete.clone()
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
