// Command sweepworker is one member of a distributed sweep fleet: it
// connects to a sweepd daemon running in -distributed mode, leases
// chunks of pending sweep jobs over HTTP, evaluates them with the
// in-binary sweep engine, and posts the records back for the daemon to
// persist and fold into job progress.
//
// Usage:
//
//	sweepworker -daemon http://host:8080 [-name id] [-poll 500ms] [-workers N]
//
// Scale-out is a deployment knob, not a correctness one: because every
// Monte-Carlo sub-model's stream is a pure function of (sweep seed,
// sub-model content), an N-worker fleet produces records byte-identical
// to a single-node run. Workers hold no state — killing one mid-chunk only
// delays that chunk until its lease expires and another worker (or a
// restarted one) picks it up.
//
// Workers serve every job kind without configuration: each lease
// carries its design points — a slice of a registered or spec-defined
// grid, or an optimizer generation's bred individuals — each with the
// global index that keys its cache address. A worker
// never resolves a scenario name or compiles a spec.
//
// Tracing rides along for free: a lease from a tracing daemon carries
// the job's trace ID and a chunk span ID, and the worker ships spans
// covering its lease-to-post and evaluation windows, parented under
// that chunk span, with the completion.
//
// The worker refuses to serve a daemon whose sweep.EngineVersion
// differs from its own build, or whose leases do not carry their points
// (exit 1): a mismatched worker could silently produce records the
// daemon's version would not reproduce.
//
// SIGINT or SIGTERM stops leasing and abandons the in-flight chunk; its
// lease expires at the daemon and the chunk is re-queued.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	daemon := flag.String("daemon", "http://localhost:8080", "base URL of the sweepd daemon")
	name := flag.String("name", "", "worker name in leases and the fleet view (default hostname-pid)")
	poll := flag.Duration("poll", 500*time.Millisecond, "least interval between lease attempts that find no work (sweepd holds each one up to 500ms), and the retry delay after errors")
	workers := flag.Int("workers", runtime.NumCPU(), "local evaluation pool per chunk")
	verbose := flag.Bool("v", false, "debug-level logs")
	flag.Parse()

	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, level)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	logger.Info("worker serving",
		"worker", *name, "daemon", *daemon, "eval_workers", *workers, "poll", *poll)
	// RunWorker stamps every line with the worker name, and each lease's
	// lines additionally carry lease_id and job_id — joinable against the
	// daemon's dispatcher logs.
	err := service.RunWorker(ctx, service.NewClient(*daemon), service.WorkerOptions{
		Name:    *name,
		Poll:    *poll,
		Workers: *workers,
		Logger:  logger,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "sweepworker:", err)
		os.Exit(1)
	}
	logger.Info("worker stopped", "worker", *name)
}
