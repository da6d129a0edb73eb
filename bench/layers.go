package main

import (
	"sort"
)

// spanIv is the part of a trace span the attribution needs, in wall
// nanoseconds (worker spans cross the wire as wall-clock times, so
// every interval is compared on the wall clock).
type spanIv struct {
	name, id, parent string
	start, end       int64
}

// readSpans fetches a finished job's spans and trace coverage from the
// daemon, before later jobs push them out of the span ring.
func readSpans(f *fleet, r *jobRun) {
	spans, err := f.mgr.JobTrace(r.id)
	if err != nil {
		return
	}
	for _, s := range spans {
		r.spans = append(r.spans, spanIv{s.Name, s.SpanID, s.ParentID, s.Start.UnixNano(), s.End.UnixNano()})
	}
	if tl, err := f.mgr.JobTimeline(r.id); err == nil {
		r.coverage = tl.SpanCoverage
	}
}

// The layers a job's client-observed wall time is attributed to, in
// priority order: each instant goes to the first layer active at it.
// transport is a chunk span outside its evaluation, dispatch_wait a
// dispatch span with no chunk in flight, client whatever no daemon span
// covers (submit, poll lag, the record stream).
var shareLayers = []struct {
	name string
	span string // the span name that marks the layer active
}{
	{"evaluate", "evaluate"},
	{"transport", "chunk"},
	{"assemble", "assemble"},
	{"queued", "queued"},
	{"dispatch_wait", "dispatch"},
	{"client", ""},
}

// attribute splits the job's wall time over shareLayers; the parts sum
// to the wall time exactly.
func attribute(r *jobRun) []float64 {
	lo, hi := r.start.UnixNano(), r.end.UnixNano()
	cuts := []int64{lo, hi}
	for _, s := range r.spans {
		for _, t := range []int64{s.start, s.end} {
			if t > lo && t < hi {
				cuts = append(cuts, t)
			}
		}
	}
	sort.Slice(cuts, func(i, k int) bool { return cuts[i] < cuts[k] })
	out := make([]float64, len(shareLayers))
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if b == a {
			continue
		}
		mid := a + (b-a)/2
		layer := len(shareLayers) - 1
		for _, s := range r.spans {
			if s.start > mid || s.end < mid {
				continue
			}
			for l, sl := range shareLayers[:layer] {
				if s.name == sl.span {
					layer = l
					break
				}
			}
		}
		out[layer] += float64(b - a)
	}
	return out
}

// jobPhases are one job's daemon-side phase times and chunk breakdown.
type jobPhases struct {
	queued, dispatch, assemble      float64 // ms; assemble < 0 when absent
	turnaround, evaluate, transport []float64
}

// phasesOf reads one job's spans: phase totals, and per chunk its
// turnaround, the evaluate spans under it and the rest (transport).
func phasesOf(r *jobRun) jobPhases {
	p := jobPhases{assemble: -1}
	byID := map[string]spanIv{}
	for _, s := range r.spans {
		byID[s.id] = s
	}
	evalUnder := map[string]float64{} // chunk span id -> evaluate ms
	for _, s := range r.spans {
		d := float64(s.end-s.start) / 1e6
		switch s.name {
		case "queued":
			p.queued += d
		case "dispatch":
			p.dispatch += d
		case "assemble":
			p.assemble = max(p.assemble, 0) + d
		case "evaluate":
			// Worker evaluate spans nest under the worker span, which
			// nests under the daemon's chunk span.
			if w, ok := byID[s.parent]; ok {
				evalUnder[w.parent] += d
				p.evaluate = append(p.evaluate, d)
			}
		}
	}
	for _, s := range r.spans {
		if s.name == "chunk" {
			d := float64(s.end-s.start) / 1e6
			p.turnaround = append(p.turnaround, d)
			p.transport = append(p.transport, d-evalUnder[s.id])
		}
	}
	return p
}

// layerMetrics derives every per-layer metric: the load generator's
// HTTP timers, the worker RPC and store wrappers, the job spans, the
// wall-time shares and the Go runtime come from the traced phase; the
// model layers come from the probe; tracing overhead compares the two
// phases' throughput.
func layerMetrics(plain, traced *fleetRun, pr *probeReport) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	var submit, poll, recs, queued, dispatch, assemble, coverage samples
	var turn, eval, transport samples
	var polls, kb, points, jobs float64
	shares := make([]float64, len(shareLayers))
	var wallNS float64
	for _, r := range traced.runs {
		if r.err != nil {
			continue
		}
		jobs++
		points += float64(r.lines)
		submit.add(ms(r.submit))
		for _, d := range r.polls {
			poll.add(ms(d))
		}
		polls += float64(len(r.polls))
		recs.add(ms(r.records))
		kb += float64(r.bytes) / 1024
		ph := phasesOf(r)
		queued.add(ph.queued)
		dispatch.add(ph.dispatch)
		if ph.assemble >= 0 {
			assemble.add(ph.assemble)
		}
		for k := range ph.turnaround {
			turn.add(ph.turnaround[k])
			transport.add(ph.transport[k])
		}
		for _, d := range ph.evaluate {
			eval.add(d)
		}
		coverage.add(r.coverage)
		for l, v := range attribute(r) {
			shares[l] += v
		}
		wallNS += float64(r.end.UnixNano() - r.start.UnixNano())
	}
	put("http.submit_ms.p50", "ms", submit.quantile(0.5))
	put("http.poll_ms.p50", "ms", poll.quantile(0.5))
	put("http.polls_per_job", "count", ratio(polls, jobs))
	put("http.records_ms.p50", "ms", recs.quantile(0.5))
	put("http.records_kb_per_job", "KB", ratio(kb, jobs))

	var lease, complete samples
	var granted, empty, beats, gone, completes, posted float64
	var busy float64
	for _, s := range traced.rpc {
		for _, v := range s.lease.vals {
			lease.add(v)
		}
		for _, v := range s.complete.vals {
			complete.add(v)
		}
		granted += float64(s.granted)
		empty += float64(s.empty)
		beats += float64(s.beats)
		gone += float64(s.gone)
		completes += float64(s.completes)
		posted += float64(s.points)
		busy += s.busy.Seconds()
	}
	put("lease.granted", "count", granted)
	put("lease.empty", "count", empty)
	put("lease.useful_ratio", "ratio", ratio(granted, granted+empty))
	put("lease.rpc_ms.p50", "ms", lease.quantile(0.5))
	put("heartbeat.count", "count", beats)
	put("complete.rpc_ms.p50", "ms", complete.quantile(0.5))
	put("complete.points_per_rpc", "count", ratio(posted, completes))
	put("lease.gone", "count", gone)
	put("worker.idle_frac", "ratio", 1-ratio(busy, float64(fleetWorkers)*traced.wall.Seconds()))

	put("store.get.count", "count", float64(traced.cacheGet.n))
	put("store.get_us.p50", "us", traced.cacheGet.quantile(0.5))
	put("store.get_s.total", "s", traced.cacheGet.sum/1e6)
	put("store.put.count", "count", float64(traced.cachePut.n))
	put("store.put_us.p50", "us", traced.cachePut.quantile(0.5))
	put("store.put_s.total", "s", traced.cachePut.sum/1e6)
	put("store.hit_ratio", "ratio", ratio(float64(traced.cacheHits), float64(traced.cacheGet.n)))

	put("phase.queued_ms.p50", "ms", queued.quantile(0.5))
	put("phase.dispatch_ms.p50", "ms", dispatch.quantile(0.5))
	put("phase.assemble_ms.p50", "ms", assemble.quantile(0.5))
	put("chunk.turnaround_ms.p50", "ms", turn.quantile(0.5))
	put("chunk.evaluate_ms.p50", "ms", eval.quantile(0.5))
	put("chunk.transport_ms.p50", "ms", transport.quantile(0.5))
	put("trace.span_coverage.p50", "ratio", coverage.quantile(0.5))

	for l, sl := range shareLayers {
		put("share."+sl.name, "ratio", ratio(shares[l], wallNS))
	}

	mem0, mem1 := traced.mem0, traced.mem1
	put("gc.cycles", "count", float64(mem1.NumGC-mem0.NumGC))
	put("gc.pause_ms.total", "ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)
	put("alloc_mb_per_kpoint", "MB", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20), points/1000))

	for name, unit := range probeUnits {
		m[name] = metric{0, unit} // a failed probe still reports every name
		if pr != nil {
			if v, ok := pr.Metrics[name]; ok {
				m[name] = v
			}
		}
	}

	put("obs.trace_overhead_frac", "ratio", 1-ratio(throughput(traced), throughput(plain)))
	return m
}

// throughput is a phase's delivered records per second.
func throughput(fr *fleetRun) float64 {
	var points int
	for _, r := range fr.runs {
		if r.err == nil {
			points += r.lines
		}
	}
	return ratio(float64(points), fr.wall.Seconds())
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
