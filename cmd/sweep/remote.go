package main

// The remote side of the CLI: 'sweep run -daemon' submits its request
// to a running sweepd and streams the records back, and sweep trace and
// sweep fleet read the daemon's observability endpoints, so an operator
// can ask "where did that job's wall time go" and "which workers are
// pulling their weight" without leaving the CLI. The HTTP calls are
// service.Client's; this file holds the polling loop and the printing.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/fsio"
	"repro/internal/service"
)

// submitAndStream runs one job on a remote sweepd: submit, poll to a
// terminal state, then fetch the record stream (written to outPath when
// given). The records are byte-identical to a local run at the same
// seed and budget — the daemon and its workers share the engine.
func submitAndStream(base string, req service.Request, outPath string, timeout time.Duration) error {
	c := service.NewClient(base)
	v, err := c.Submit(req)
	if err != nil {
		return err
	}
	what := v.Scenario
	if v.Spec != "" {
		what = fmt.Sprintf("%s (spec %q)", v.Scenario, v.Spec)
	}
	fmt.Printf("job %s accepted: %s %s, budget %s, seed %d\n", v.ID, v.Kind, what, v.Budget, v.Seed)

	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for !v.State.Terminal() {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %s (poll it with: sweep trace -daemon %s %s)",
				v.ID, v.State, timeout, base, v.ID)
		}
		time.Sleep(500 * time.Millisecond)
		if v, err = c.Get(v.ID); err != nil {
			return err
		}
	}
	if v.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	fmt.Printf("job %s done: %d points (%d cached, %d computed)\n",
		v.ID, v.Progress.Total, v.Progress.Cached, v.Progress.Total-v.Progress.Cached)

	// The whole transfer, headers to last record, gets a minute.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	recs, err := c.Records(ctx, v.ID)
	if err != nil {
		return err
	}
	defer recs.Close()
	if outPath == "" || outPath == "-" {
		_, err = io.Copy(os.Stdout, recs)
		return err
	}
	if err := fsio.WriteFileAtomic(outPath, func(f *os.File) error {
		_, err := io.Copy(f, recs)
		return err
	}); err != nil {
		return err
	}
	fmt.Println("wrote", outPath)
	return nil
}

// traceCmd implements 'sweep trace [-daemon URL] [-raw] <job-id>':
// the job's derived phase timeline, or with -raw the span NDJSON
// exactly as the daemon streams it.
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	daemon := fs.String("daemon", "http://localhost:8080", "sweepd base URL")
	raw := fs.Bool("raw", false, "dump raw spans as NDJSON instead of the derived timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sweep trace [-daemon URL] [-raw] <job-id>")
	}
	jobID := fs.Arg(0)
	c := service.NewClient(*daemon)

	if *raw {
		spans, err := c.Trace(context.Background(), jobID)
		if err != nil {
			return err
		}
		defer spans.Close()
		_, err = io.Copy(os.Stdout, spans)
		return err
	}

	tl, err := c.Timeline(jobID)
	if err != nil {
		return err
	}
	fmt.Printf("job %s  trace %s  state %s\n", tl.JobID, tl.TraceID, tl.State)
	fmt.Printf("wall %.3fs  queued %.3fs  running %.3fs  coverage %.0f%% (%d spans)\n",
		tl.WallSeconds, tl.QueuedSeconds, tl.RunningSeconds, 100*tl.SpanCoverage, tl.SpanCount)
	fmt.Printf("points: %d cached, %d computed\n", tl.CachedPoints, tl.ComputedPoints)
	if len(tl.Phases) > 0 {
		fmt.Println("phases:")
		for _, p := range tl.Phases {
			fmt.Printf("  %-10s %9.3fs\n", p.Name, p.DurationSeconds)
		}
	}
	if len(tl.Chunks) > 0 {
		fmt.Printf("chunks (%d):\n", len(tl.Chunks))
		chunks := append([]service.ChunkTiming(nil), tl.Chunks...)
		sort.Slice(chunks, func(i, k int) bool { return chunks[i].Start < chunks[k].Start })
		for _, ch := range chunks {
			fmt.Printf("  [%4d,%4d) %-16s %3d pts  %8.3fs\n",
				ch.Start, ch.End, ch.Worker, ch.Points, ch.TurnaroundSeconds)
		}
	}
	return nil
}

// fleetCmd implements 'sweep fleet [-daemon URL]': per-worker
// throughput profiles and the straggler baseline.
func fleetCmd(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	daemon := fs.String("daemon", "http://localhost:8080", "sweepd base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: sweep fleet [-daemon URL]")
	}
	st, err := service.NewClient(*daemon).FleetStats()
	if err != nil {
		return err
	}
	if len(st.Workers) == 0 {
		fmt.Println("no workers have leased work yet")
		return nil
	}
	fmt.Printf("fleet: %d worker(s), median turnaround %.3fs over %d sample(s), straggler factor %.1fx, %d straggler(s)\n",
		len(st.Workers), st.FleetMedianTurnaroundSeconds, st.TurnaroundSamples,
		st.StragglerFactor, st.StragglersTotal)
	fmt.Printf("  %-16s %6s %8s %8s %6s %6s %10s %9s %9s\n",
		"worker", "active", "chunks", "points", "fails", "strag", "pts/s", "p50", "p95")
	for _, w := range st.Workers {
		fmt.Printf("  %-16s %6d %8d %8d %6d %6d %10.1f %8.3fs %8.3fs\n",
			w.Name, w.ActiveLeases, w.ChunksDone, w.PointsDone, w.Failures,
			w.Stragglers, w.EWMAPointsPerSec, w.TurnaroundP50Seconds, w.TurnaroundP95Seconds)
	}
	return nil
}
