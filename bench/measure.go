package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/sweep"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one measurement of one workload.
type config struct {
	w       *workload
	seed    uint64
	length  time.Duration // measured time; a traced run splits it in halves
	trace   bool
	repeat  bool   // repeat set-up (see setUp); setup_s is the median
	maxJobs int    // > 0: stop each phase after this many jobs (tiny mode)
	workdir string // where the stores live
	// probe runs the model probe over the first jobs of the list.
	probe func(w *workload, seed uint64, jobs int, budget time.Duration) (*probeReport, error)
}

// report is what one measurement prints.
type report struct {
	e2e       map[string]metric // always
	layers    map[string]metric // traced runs only
	attempted int
	failed    int
	problems  []string // failed jobs and probe drift; any makes the run incorrect
	notes     []string // human-readable context printed before the result
}

// fleetRun is one measured phase against one fleet.
type fleetRun struct {
	runs       []*jobRun
	wall       time.Duration
	cpu        time.Duration // user+system CPU of this process over the phase
	mem0, mem1 runtime.MemStats
	// Traced phases only: the timing wrappers' counters.
	rpc                []rpcStats
	cacheGet, cachePut samples
	cacheHits          int
}

// measure runs one workload: set-up, the untraced measured phase and
// its record check. A traced run halves the phase and follows it with a
// traced phase on a fresh fleet and the model probe.
func measure(cfg config) (*report, error) {
	rep := &report{}
	p := phase{cfg.length, cfg.maxJobs}
	if cfg.trace {
		p.length /= 2
	}
	f, setups, fills, err := setUp(cfg, false, cfg.repeat)
	if err != nil {
		return nil, err
	}
	plain, err := measurePhase(f, cfg, p, fills)
	if err != nil {
		return nil, err
	}
	if rep.e2e, err = endToEnd(plain, setups, rep); err != nil {
		return nil, err
	}
	check(plain.runs, rep)
	if !cfg.trace {
		return rep, nil
	}

	if f, _, fills, err = setUp(cfg, true, false); err != nil {
		return nil, err
	}
	traced, err := measurePhase(f, cfg, p, fills)
	if err != nil {
		return nil, err
	}
	pr, perr := cfg.probe(cfg.w, cfg.seed, probeJobs(traced.runs), p.length)
	if perr != nil {
		rep.problems = append(rep.problems, "probe: "+perr.Error())
	}
	rep.layers = layerMetrics(plain, traced, pr)
	if pr != nil {
		// A drifted probe fails the run (a problem), not a job.
		rep.problems = append(rep.problems, probeDrift(pr, traced.runs)...)
	}
	check(traced.runs, rep)
	return rep, nil
}

// Set-up repeats: a repeated set-up runs at least minSetups times and
// keeps going, up to maxSetups, until setupWindow has passed, so a
// set-up of a millisecond still yields a steady median. Each set-up
// starts after setupPause of idleness, so the previous fleet's teardown
// (the shards' index fsyncs, closing connections) does not overlap it
// by a varying amount.
const (
	minSetups   = 3
	maxSetups   = 25
	setupWindow = 500 * time.Millisecond
	setupPause  = 20 * time.Millisecond
)

// setUp brings a fleet up, filling the store when the workload has
// set-up jobs; with repeat it tears the fleet down and does it again
// (see minSetups) and keeps the last one. It returns every set-up's
// duration and the fill jobs' record streams.
func setUp(cfg config, traced, repeat bool) (*fleet, []float64, [][]byte, error) {
	var durs []float64
	first := time.Now()
	for {
		time.Sleep(setupPause)
		start := time.Now()
		f, err := startFleet(cfg.workdir, traced)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		fills, err := fill(f, cfg)
		if err != nil {
			f.close()
			return nil, nil, nil, err
		}
		durs = append(durs, time.Since(start).Seconds())
		n := len(durs)
		if !repeat || n >= maxSetups || (n >= minSetups && time.Since(first) >= setupWindow) {
			return f, durs, fills, nil
		}
		if err := f.close(); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up teardown: %w", err)
		}
	}
}

// fill runs the workload's set-up jobs all at once and returns each
// one's record stream.
func fill(f *fleet, cfg config) ([][]byte, error) {
	if cfg.w.fill == nil {
		return nil, nil
	}
	jobs := cfg.w.fill(cfg.seed)
	runs, _ := load{
		lanes: len(jobs),
		job:   func(i int) jobSpec { return jobs[i] },
		keep:  len(jobs),
		seed:  cfg.seed,
	}.drive(f.srv.URL, phase{length: time.Hour, maxJobs: len(jobs)}, nil)
	streams := make([][]byte, len(runs))
	for i, r := range runs {
		if r.err != nil {
			return nil, fmt.Errorf("fill job %d: %w", i, r.err)
		}
		streams[i] = r.stream
	}
	return streams, nil
}

// measurePhase drives the fleet for one phase, then shuts it down. A
// traced fleet's jobs have their spans read as each one finishes.
func measurePhase(f *fleet, cfg config, p phase, fills [][]byte) (*fleetRun, error) {
	fr := &fleetRun{}
	var after func(*jobRun)
	if f.trace != nil {
		after = func(r *jobRun) { readSpans(f, r) }
	}
	f.resetCounters()
	runtime.ReadMemStats(&fr.mem0)
	cpu0 := cpuTime()
	l := load{
		lanes: clients,
		job:   func(i int) jobSpec { return cfg.w.job(cfg.seed, i) },
		think: func(i int) time.Duration { return thinkTime(cfg.seed, i, cfg.w.think) },
		fills: fills,
		seed:  cfg.seed,
	}
	if f.trace != nil {
		l.keep = keepStreams // for the comparison with the probe
	}
	fr.runs, fr.wall = l.drive(f.srv.URL, p, after)
	fr.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&fr.mem1)
	werr := f.workerErr()
	for _, w := range f.rpcs {
		fr.rpc = append(fr.rpc, w.stats())
	}
	if f.cache != nil {
		fr.cacheGet, fr.cachePut, fr.cacheHits = f.cache.snapshot()
	}
	if err := f.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	if werr != nil {
		return nil, werr
	}
	return fr, nil
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is this process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd derives the user-visible metrics of a phase.
func endToEnd(fr *fleetRun, setups []float64, rep *report) (map[string]metric, error) {
	var points int
	var walls []float64
	for _, r := range fr.runs {
		if r.err == nil {
			points += r.lines
			walls = append(walls, r.wall().Seconds())
		}
	}
	if points == 0 {
		return nil, errors.New("no job delivered any records")
	}
	q := tailQuantile(len(walls))
	rep.notes = append(rep.notes,
		fmt.Sprintf("job_tail_s is p%.1f over n=%d jobs; %d points in %.2fs", 100*q, len(walls), points, fr.wall.Seconds()))
	_, setup, _ := quartiles(setups)
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"points_per_s":     {float64(points) / fr.wall.Seconds(), "points/s"},
		"job_p50_s":        {quantile(walls, 0.5), "s"},
		"job_tail_s":       {quantile(walls, q), "s"},
		"cpu_ms_per_point": {ms(fr.cpu) / float64(points), "ms"},
		"max_rss_mb":       {maxRSSMB(), "MB"},
	}, nil
}

// check verifies every job of a phase: it ended done, streamed exactly
// progress.total records, a resubmission streamed its fill's bytes, and
// one seed-chosen record re-evaluates to the same JSON bytes. Failures
// count into rep.failed and are described in rep.problems.
func check(runs []*jobRun, rep *report) {
	rep.attempted += len(runs)
	// Re-evaluation is the expensive part; spread it over two cores.
	verdicts, _ := sweep.Map(context.Background(), len(runs), clients, func(i int) string {
		return checkJob(runs[i])
	})
	for _, v := range verdicts {
		if v != "" {
			rep.failed++
			rep.problems = append(rep.problems, v)
		}
	}
}

func checkJob(r *jobRun) string {
	switch {
	case r.err != nil:
		return fmt.Sprintf("job %d: %v", r.idx, r.err)
	case r.lines != r.total:
		return fmt.Sprintf("job %d (%s): streamed %d records, progress.total is %d", r.idx, r.id, r.lines, r.total)
	case r.spec.fill >= 0 && !r.sameAsFill:
		return fmt.Sprintf("job %d (%s): stream differs from its fill job %d", r.idx, r.id, r.spec.fill)
	case r.checkLine == nil:
		return fmt.Sprintf("job %d (%s): no record to check", r.idx, r.id)
	}
	req, err := r.spec.request()
	if err != nil {
		return fmt.Sprintf("job %d: %v", r.idx, err)
	}
	budget, err := sweep.ParseBudget(req.Budget)
	if err != nil {
		return fmt.Sprintf("job %d: %v", r.idx, err)
	}
	var got sweep.Record
	if err := json.Unmarshal(r.checkLine, &got); err != nil {
		return fmt.Sprintf("job %d (%s): record: %v", r.idx, r.id, err)
	}
	recs, _, err := sweep.EvaluatePoints(context.Background(), got.Scenario,
		[]sweep.Point{{Index: got.Index, Label: got.Label, Spec: got.Spec}},
		sweep.Config{Workers: 1, Seed: req.Seed, Budget: budget})
	if err != nil {
		return fmt.Sprintf("job %d (%s): re-evaluate: %v", r.idx, r.id, err)
	}
	want := recs[0]
	want.Pareto = got.Pareto // assembly-time flag, not part of the point
	line, err := sweep.AppendRecordJSON(nil, want)
	if err != nil || !bytes.Equal(line, r.checkLine) {
		return fmt.Sprintf("job %d (%s): record #%d differs from a local re-evaluation", r.idx, r.id, got.Index)
	}
	return ""
}

// probeJobs is how many leading jobs the probe replays: the leading
// jobs whose streams the traced phase kept.
func probeJobs(runs []*jobRun) int {
	n := 0
	for n < len(runs) && n < keepStreams && runs[n].err == nil {
		n++
	}
	return n
}

// probeDrift compares the probe's Monte-Carlo spend per point with the
// records the fleet streamed for the same jobs.
func probeDrift(pr *probeReport, runs []*jobRun) []string {
	var out []string
	recs := map[int][]sweep.Record{}
	for _, p := range pr.Points {
		if p.Job >= len(runs) || runs[p.Job].stream == nil {
			out = append(out, fmt.Sprintf("probe replayed job %d, which the traced phase did not keep", p.Job))
			continue
		}
		if _, ok := recs[p.Job]; !ok {
			recs[p.Job] = decodeStream(runs[p.Job].stream)
		}
		var found bool
		for _, rec := range recs[p.Job] {
			if rec.Index != p.Index {
				continue
			}
			found = true
			if rec.BERCodewords != p.BERCodewords || rec.SimReplications != p.SimReplications {
				out = append(out, fmt.Sprintf("probe drift: job %d point %d spent (%d codewords, %d replications), fleet record (%d, %d)",
					p.Job, p.Index, p.BERCodewords, p.SimReplications, rec.BERCodewords, rec.SimReplications))
			}
		}
		if !found {
			out = append(out, fmt.Sprintf("probe drift: job %d has no record #%d", p.Job, p.Index))
		}
	}
	return out
}

func decodeStream(stream []byte) []sweep.Record {
	var out []sweep.Record
	dec := json.NewDecoder(bytes.NewReader(stream))
	for {
		var rec sweep.Record
		if err := dec.Decode(&rec); err != nil {
			return out
		}
		out = append(out, rec)
	}
}

// sortedKeys lists a metric map's names in order, for printing.
func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
