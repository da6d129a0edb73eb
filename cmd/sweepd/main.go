// Command sweepd serves the design-space exploration engine as a
// long-running daemon: grid sweeps and adaptive multi-objective
// optimizations are submitted as jobs over HTTP, scheduled through a
// priority queue with bounded concurrency, and every evaluated point is
// persisted in a content-addressed result store, so identical work is
// never computed twice — across jobs, restarts, and cmd/sweep runs
// sharing the same store directory.
//
// Usage:
//
//	sweepd [-addr :8080] [-store sweep-store] [-store-shards 0] [-jobs 2]
//	       [-distributed] [-local-workers 1] [-chunk 4] [-lease-ttl 30s]
//	       [-trace 4096] [-pprof] [-v]
//
// -store-shards N fans the result store out over N independent shard
// stores routed by key prefix, removing lock contention between
// concurrent jobs. The count is fixed when the store is created and
// recorded in its shards.json manifest; 0 (the default) reuses
// whatever layout the store already has, and a 1-shard store keeps the
// exact directory layout of earlier releases.
//
// With -distributed, jobs are not evaluated in-process: they are cut
// into chunks of at most -chunk points and served to sweepworker
// processes over lease/heartbeat/complete endpoints. A group of points
// that share all their Monte-Carlo sub-models (a code's BER, a stack's
// simulated latency) is never split, since every piece would re-run
// them: such a group larger than -chunk is one chunk. A worker that
// dies mid-chunk stops heartbeating, its lease expires after
// -lease-ttl, and the chunk is re-queued. -local-workers N keeps N
// in-process workers draining the same queue — the fallback that lets
// a distributed daemon complete jobs before any remote worker connects
// (0 = pure remote fleet).
// Optimization jobs work in both modes: the NSGA-II coordinator always
// runs daemon-side, and in distributed mode each generation's
// individuals are chunked and leased to the same worker fleet (the
// lease carries the bred design points explicitly).
//
// Endpoints (see internal/service.NewHandler and docs/api.md):
//
//	GET    /healthz
//	GET    /api/v1/store
//	GET    /api/v1/scenarios
//	GET    /api/v1/spaces
//	POST   /api/v1/jobs
//	GET    /api/v1/jobs
//	GET    /api/v1/jobs/{id}
//	DELETE /api/v1/jobs/{id}
//	GET    /api/v1/jobs/{id}/records
//	GET    /api/v1/jobs/{id}/pareto
//	GET    /api/v1/jobs/{id}/generations
//	GET    /api/v1/jobs/{id}/trace
//	GET    /api/v1/jobs/{id}/timeline
//	GET    /api/v1/fleet/stats
//	POST   /api/v1/workers/lease
//	POST   /api/v1/workers/leases/{id}/heartbeat
//	POST   /api/v1/workers/leases/{id}/complete
//	POST   /api/v1/workers/leases/{id}/fail
//	GET    /metrics
//
// Every non-2xx response is the envelope {"error":{"code","message"}},
// its status and code read from internal/service's one error table
// (docs/api.md, "Error model"). The worker endpoints answer alike with
// or without -distributed; only a distributed daemon has chunks.
//
// Observability: one metrics registry spans every layer — HTTP
// middleware, job manager, chunk dispatcher and the result store — and
// is served as Prometheus text exposition at GET /metrics. Logs are
// structured (log/slog, one key=value line per event); -v lowers the
// level to debug, which includes per-request access lines and lease
// chatter. -pprof additionally mounts the net/http/pprof handlers under
// /debug/pprof/ on the same listener; it is off by default because
// profiles can leak operational detail and cost CPU while streaming.
//
// Tracing: every submitted job gets a trace ID, and the daemon records
// spans for its phases (queued, dispatch, evaluate, assemble) plus one
// span per distributed chunk, with worker-side spans shipped back in
// completions. The newest -trace spans are retained in a bounded
// in-memory ring and served per job at /api/v1/jobs/{id}/trace and
// /api/v1/jobs/{id}/timeline; -trace 0 disables collection entirely
// (the record path then allocates nothing for tracing). Tracing only
// observes: records are byte-identical with it on, off, and across
// fleet sizes.
//
// SIGINT or SIGTERM triggers a graceful drain: the listener stops, every
// queued job is cancelled, running jobs have their contexts cancelled,
// and the store is flushed before exit. The drain logs how many jobs
// were queued and running at the signal and how long the drain took;
// it waits up to half a second for worker lease requests the daemon is
// holding for work to answer.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sweep/store"
)

// config collects the daemon's flag values.
type config struct {
	addr         string
	storeDir     string
	jobs         int
	drain        time.Duration
	distributed  bool
	localWorkers int
	chunk        int
	leaseTTL     time.Duration
	storeShards  int
	trace        int
	pprof        bool
	verbose      bool
}

func main() {
	var c config
	flag.StringVar(&c.addr, "addr", ":8080", "HTTP listen address")
	flag.StringVar(&c.storeDir, "store", "sweep-store", "result store directory ('' disables persistence)")
	flag.IntVar(&c.jobs, "jobs", 2, "concurrent jobs (each parallelizes across grid points)")
	flag.DurationVar(&c.drain, "drain", 30*time.Second, "graceful shutdown deadline")
	flag.BoolVar(&c.distributed, "distributed", false, "serve jobs to sweepworker processes instead of evaluating in-process")
	flag.IntVar(&c.localWorkers, "local-workers", 1, "in-process workers draining the distributed queue (0 = pure remote fleet; ignored without -distributed)")
	flag.IntVar(&c.chunk, "chunk", 4, "most points per worker lease (with -distributed); points sharing all Monte-Carlo sub-models are never split")
	flag.DurationVar(&c.leaseTTL, "lease-ttl", 30*time.Second, "how long a dead worker's chunk stays leased before re-queueing")
	flag.IntVar(&c.storeShards, "store-shards", 0, "result-store shards; 0 reuses the store's existing layout (new stores: 1). The count is fixed at store creation")
	flag.IntVar(&c.trace, "trace", obs.DefaultCollectorCap, "spans retained for /api/v1/jobs/{id}/trace (0 disables tracing)")
	flag.BoolVar(&c.pprof, "pprof", false, "serve net/http/pprof profiles under /debug/pprof/ (off by default)")
	flag.BoolVar(&c.verbose, "v", false, "debug-level logs (per-request access lines, lease chatter)")
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	addr, storeDir, jobs, drain := c.addr, c.storeDir, c.jobs, c.drain
	level := slog.LevelInfo
	if c.verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, level)
	// One registry spans the whole daemon: the result store, the job
	// manager, the dispatcher and the HTTP middleware all register their
	// families here, and GET /metrics serves them together.
	reg := obs.NewRegistry()
	opts := service.Options{
		JobWorkers:  jobs,
		Distributed: c.distributed,
		ChunkPoints: c.chunk,
		LeaseTTL:    c.leaseTTL,
		Metrics:     reg,
		Logger:      logger,
	}
	if c.trace > 0 {
		opts.Trace = obs.NewCollector(c.trace)
	}
	if storeDir != "" {
		st, err := store.OpenSharded(storeDir, c.storeShards, store.Options{Metrics: reg})
		if err != nil {
			return err
		}
		defer func() {
			if err := st.Close(); err != nil {
				logger.Error("store close failed", "error", err)
			}
		}()
		stats := st.Stats()
		logger.Info("store opened",
			"dir", storeDir, "entries", stats.Entries, "segments", stats.Segments,
			"shards", stats.Shards, "index_loaded", stats.IndexLoaded, "replayed", stats.Replayed)
		opts.Cache = st
	}
	m := service.New(opts)

	// Local-workers fallback: in-process RunWorker loops drain the same
	// lease queue remote sweepworkers do, through the same code path, so
	// a distributed daemon completes jobs even before (or without) any
	// remote worker connecting.
	workerCtx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	if c.distributed && c.localWorkers > 0 {
		logger.Info("distributed mode",
			"chunk_points", c.chunk, "lease_ttl", c.leaseTTL, "local_workers", c.localWorkers)
		for i := 0; i < c.localWorkers; i++ {
			name := fmt.Sprintf("local-%d", i)
			go func() {
				if err := service.RunWorker(workerCtx, m, service.WorkerOptions{
					Name:   name,
					Poll:   100 * time.Millisecond,
					Logger: logger,
				}); err != nil && !errors.Is(err, context.Canceled) {
					logger.Error("local worker stopped", "worker", name, "error", err)
				}
			}()
		}
	}

	handler := service.NewHandler(m)
	if c.pprof {
		// The profile handlers live beside the service routes on the same
		// listener; registering them here (not in internal/service) keeps
		// them out of the instrumented API surface and behind the flag.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	srv := &http.Server{
		Addr:        addr,
		Handler:     handler,
		ReadTimeout: 30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", addr, "job_workers", jobs)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		m.Shutdown(context.Background())
		return err
	case sig := <-sigc:
		queued, running := m.InFlight()
		logger.Info("draining",
			"signal", sig.String(), "deadline", drain,
			"jobs_queued", queued, "jobs_running", running)
	}

	drainStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown failed", "error", err)
	}
	if err := m.Shutdown(ctx); err != nil {
		return err
	}
	logger.Info("drained", "duration", time.Since(drainStart))
	return nil
}
