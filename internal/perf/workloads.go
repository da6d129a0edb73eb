package perf

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ldpc"
	"repro/internal/noc"
	"repro/internal/noc/analytic"
	"repro/internal/noc/sim"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// DefaultSeed roots every committed BENCH_<n>.json measurement.
const DefaultSeed = 1

// catalog is built once at init; entries with Setup state are
// singletons, so measuring one workload concurrently with itself is
// not supported (cmd/perf and the bench wrappers run serially).
var catalog []Workload

// Catalog returns the workload catalog sorted by name.
func Catalog() []Workload {
	out := make([]Workload, len(catalog))
	copy(out, catalog)
	return out
}

// Lookup returns the named catalog workload.
func Lookup(name string) (Workload, bool) {
	for _, w := range catalog {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names lists the catalog workload names in order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, w := range catalog {
		out[i] = w.Name
	}
	return out
}

func register(w Workload) {
	if w.Name == "" || w.Run == nil {
		panic("perf: workload needs a name and a Run")
	}
	for _, have := range catalog {
		if have.Name == w.Name {
			panic("perf: duplicate workload " + w.Name)
		}
	}
	catalog = append(catalog, w)
	sort.Slice(catalog, func(i, j int) bool { return catalog[i].Name < catalog[j].Name })
}

func init() {
	register(ldpcDecodePaper())
	register(ldpcWindowSmoke())
	register(nocCompiledFig8())
	register(nocCompileWide())
	register(nocsimSmoke())
	register(sweepAnalyticCold())
	register(sweepSmokeChunk())
	register(sweepWarmStore())
	register(optimizePaperSpace())
	register(serviceSubmitPoll())
	register(storeReopenCold())
	register(storeShardFanout())
	register(metricsOverhead())
	register(tracingOverhead())
}

// ldpcDecodePaper measures the LDPC-CC sliding-window sum-product
// decoder on the paper's code family — the inner loop behind every BER
// point of Fig. 10 and of Monte-Carlo sweep budgets. The fixed
// error-target overrides disable early stopping, so every iteration
// decodes exactly the same 16 codewords.
func ldpcDecodePaper() Workload {
	const codewords = 16
	return Workload{
		Name:           "ldpc-decode-paper",
		MaxAllocsPerOp: 350,
		Description:    "window-decode 16 codewords of the paper's LDPC-CC (N=25, L=12, W=5) over BPSK/AWGN",
		Units:          "codewords",
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			code := ldpc.LiftConvolutional(ldpc.PaperSpreading(), 12, 25, 3)
			r := ldpc.SimulateBER(ldpc.BERParams{
				Code:    code,
				Alg:     ldpc.SumProduct,
				MaxIter: 12,
				Window:  5,
				EbN0DB:  3,
				// Unreachable targets: the run always spends the full
				// codeword budget, keeping iterations identical.
				TargetBitErrors:   1 << 30,
				TargetFrameErrors: 1 << 30,
				MaxCodewords:      codewords,
				Seed:              seed,
				Workers:           1,
			})
			if r.Codewords != codewords {
				return 0, fmt.Errorf("decoded %d codewords, want %d", r.Codewords, codewords)
			}
			return float64(r.Codewords), nil
		},
	}
}

// ldpcWindowSmoke measures one full 64-codeword batch of the
// smoke-budget BER shape (N=40, L=16, W=5, 20 iterations at 3 dB): the
// decode every smoke sweep point spends most of its time in. A full
// batch is what lets lanes retire at scattered iterations, so this is
// the workload that shows live-lane compaction; ldpc-decode-paper's 16
// codewords fill only two 8-lane groups. Fixed error targets keep the
// codeword count identical on every iteration.
func ldpcWindowSmoke() Workload {
	const codewords = 64
	return Workload{
		Name:           "ldpc-window-smoke",
		MaxAllocsPerOp: 900,
		Description:    "window-decode one 64-codeword batch of the smoke-budget LDPC-CC (N=40, L=16, W=5, 20 iterations, 3 dB)",
		Units:          "codewords",
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			code := ldpc.LiftConvolutional(ldpc.PaperSpreading(), 16, 40, 3)
			r := ldpc.SimulateBER(ldpc.BERParams{
				Code:              code,
				Alg:               ldpc.SumProduct,
				MaxIter:           20,
				Window:            5,
				EbN0DB:            3,
				TargetBitErrors:   1 << 30,
				TargetFrameErrors: 1 << 30,
				MaxCodewords:      codewords,
				Seed:              seed,
				Workers:           1,
			})
			if r.Codewords != codewords {
				return 0, fmt.Errorf("decoded %d codewords, want %d", r.Codewords, codewords)
			}
			return float64(r.Codewords), nil
		},
	}
}

// nocCompiledFig8 measures compiling the Fig. 8 meshes (64-module 2D
// and 3D, plus the 512-module scaling mesh) and evaluating a
// 16-point latency-versus-injection curve through each Compiled
// evaluator — the per-point analytic cost of every stack choice.
func nocCompiledFig8() Workload {
	const curvePoints = 16
	return Workload{
		Name:           "noc-compiled-fig8",
		MaxAllocsPerOp: 100,
		Description:    "compile Fig. 8 meshes (8x8, 4x4x4, 8x8x8) and evaluate 16-point latency curves",
		Units:          "points",
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			meshes := []*noc.Mesh{
				noc.NewMesh2D(8, 8),
				noc.NewMesh3D(4, 4, 4),
				noc.NewMesh3D(8, 8, 8),
			}
			points := 0.0
			for _, m := range meshes {
				c := analytic.Model{Topo: m, Traffic: noc.Uniform{}}.Compile()
				sat := c.SaturationRate()
				rates := make([]float64, curvePoints)
				for i := range rates {
					rates[i] = sat * float64(i+1) / float64(curvePoints+2)
				}
				curve := c.LatencyCurve(rates)
				for _, pt := range curve {
					if pt.Saturated {
						return 0, fmt.Errorf("%s saturated at %.4f below saturation rate", m.Name(), pt.InjectionRate)
					}
				}
				points += float64(len(curve))
			}
			return points, nil
		},
	}
}

// nocCompileWide measures compiling the stack-choice contenders
// (core.CandidateTopologies: the four Fig. 7 families) at module counts
// spread across [16, 320) under uniform, bit-complement and hotspot
// traffic — what a wide StackModules grid pays whenever a module count
// misses the topology cache. Sparse bit-complement traffic rides along
// so that compile work spent on routes no traffic takes shows up here.
func nocCompileWide() Workload {
	const counts = 8
	patterns := []noc.TrafficPattern{noc.Uniform{}, noc.BitComplement{}, noc.Hotspot{Module: 0, Fraction: 0.2}}
	return Workload{
		Name:           "noc-compile-wide",
		MaxAllocsPerOp: 1100,
		Description:    "compile the Fig. 7 stack candidates at 8 module counts in [16, 320) under 3 traffic patterns",
		Units:          "compiles",
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			compiles := 0.0
			for i := 0; i < counts; i++ {
				for _, topo := range core.CandidateTopologies(16 + i*(320-16)/counts) {
					for _, traffic := range patterns {
						c := analytic.Model{Topo: topo, Traffic: traffic}.Compile()
						if sat := c.SaturationRate(); !(sat > 0) {
							return 0, fmt.Errorf("%s under %s: saturation rate %g", topo.Name(), traffic, sat)
						}
						compiles++
					}
				}
			}
			return compiles, nil
		},
	}
}

// nocsimSmoke measures one event-simulator run of the smoke-budget
// shape on the stack the default system spec chooses: uniform traffic
// at the spec's injection rate, 2000 measured cycles after the default
// warm-up. A smoke design point runs this 2–4 times under
// sweep.AdaptiveMean.
func nocsimSmoke() Workload {
	spec := core.DefaultSpec()
	var topo *noc.Mesh
	return Workload{
		Name:           "nocsim-smoke",
		MaxAllocsPerOp: 300,
		Description:    "event-simulate the default spec's chosen stack: uniform traffic at its injection rate, 2000 measured cycles",
		Units:          "packets",
		Setup: func(ctx context.Context, seed uint64) (func(), error) {
			des, err := core.DesignSystem(spec)
			if err != nil {
				return nil, err
			}
			topo = des.Stack.Topology
			return func() { topo = nil }, nil
		},
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			res := sim.Run(sim.Config{
				Topo: topo, Traffic: noc.Uniform{},
				InjectionRate: spec.StackInjectionRate,
				MeasureCycles: 2000,
				Seed:          seed,
			})
			if res.Saturated || res.Delivered == 0 {
				return 0, fmt.Errorf("%s at %g: %+v", topo.Name(), spec.StackInjectionRate, res)
			}
			return float64(res.Delivered), nil
		},
	}
}

// sweepAnalyticCold measures a full cold paper-baseline sweep: the
// per-point design pipeline (link budget, code choice, stack choice)
// with no cache in front of it.
func sweepAnalyticCold() Workload {
	return Workload{
		Name:           "sweep-analytic-cold",
		MaxAllocsPerOp: 300,
		Description:    "cold paper-baseline analytic sweep: full design pipeline per grid point",
		Units:          "points",
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			sc, err := sweep.Get("paper-baseline")
			if err != nil {
				return 0, err
			}
			res, err := sweep.Run(ctx, sc, sweep.Config{
				Workers: 1, Seed: seed, Budget: sweep.AnalyticBudget(),
			})
			if err != nil {
				return 0, err
			}
			if len(res.ParetoIndices) == 0 {
				return 0, fmt.Errorf("empty Pareto front")
			}
			return float64(len(res.Records)), nil
		},
	}
}

// sweepSmokeChunk measures one smoke-budget evaluation chunk shaped
// like the fleet benchmark's smoke spec grids: latency budget 100 or
// 150 bits times butler on or off, four points over two codes and one
// stack. EvaluatePoints runs each code's BER and the stack's
// simulation once for the chunk, so the chunk costs two BER
// measurements and one adaptive simulator validation, not four of each.
func sweepSmokeChunk() Workload {
	var pts []sweep.Point
	for _, lat := range []int{100, 150} {
		for _, butler := range []bool{true, false} {
			spec := core.DefaultSpec()
			spec.LatencyBudgetBits = lat
			spec.Butler = butler
			pts = append(pts, sweep.Point{Index: len(pts), Label: fmt.Sprintf("lat=%d butler=%t", lat, butler), Spec: spec})
		}
	}
	return Workload{
		Name:           "sweep-smoke-chunk",
		MaxAllocsPerOp: 3000,
		Description:    "smoke-budget EvaluatePoints over a 4-point chunk (latency 100/150 x butler): two BER measurements, one NoC simulation",
		Units:          "points",
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			recs, _, err := sweep.EvaluatePoints(ctx, "perf/smoke-chunk", pts, sweep.Config{
				Workers: 1, Seed: seed, Budget: sweep.SmokeBudget(),
			})
			if err != nil {
				return 0, err
			}
			for _, r := range recs {
				if r.Err != "" || r.BERCodewords == 0 || r.SimReplications == 0 {
					return 0, fmt.Errorf("point %d: %+v", r.Index, r)
				}
			}
			return float64(len(recs)), nil
		},
	}
}

// sweepWarmStore measures a fully warm store-backed sweep: every point
// served from the content-addressed index — the steady state of the
// sweep daemon, where PointKey hashing and index lookups are the whole
// cost.
func sweepWarmStore() Workload {
	var (
		st  *store.Store
		dir string
	)
	run := func(ctx context.Context, seed uint64) (*sweep.Result, error) {
		sc, err := sweep.Get("paper-baseline")
		if err != nil {
			return nil, err
		}
		return sweep.Run(ctx, sc, sweep.Config{
			Workers: 1, Seed: seed, Budget: sweep.AnalyticBudget(), Cache: st,
		})
	}
	return Workload{
		Name:           "sweep-warm-store",
		MaxAllocsPerOp: 150,
		Description:    "paper-baseline sweep with every point served from a warm result store",
		Units:          "points",
		Setup: func(ctx context.Context, seed uint64) (func(), error) {
			var err error
			dir, err = os.MkdirTemp("", "perf-warm-store-*")
			if err != nil {
				return nil, err
			}
			st, err = store.Open(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			// Fill the store; the measured iterations then hit on every
			// point.
			if _, err := run(ctx, seed); err != nil {
				st.Close()
				os.RemoveAll(dir)
				return nil, err
			}
			return func() {
				st.Close()
				os.RemoveAll(dir)
				st = nil
			}, nil
		},
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			res, err := run(ctx, seed)
			if err != nil {
				return 0, err
			}
			if res.CachedPoints != len(res.Records) {
				return 0, fmt.Errorf("warm sweep computed %d points, want 0", res.ComputedPoints)
			}
			return float64(len(res.Records)), nil
		},
	}
}

// optimizePaperSpace measures the adaptive NSGA-II optimizer over the
// paper-baseline space at analytic budget: genetics, per-individual
// design evaluation and front extraction.
func optimizePaperSpace() Workload {
	return Workload{
		Name:           "optimize-paper-space",
		MaxAllocsPerOp: 3200,
		Description:    "NSGA-II over the paper-baseline space: 4 generations x 16 individuals, analytic budget",
		Units:          "points",
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			sp, err := search.Get("paper-baseline")
			if err != nil {
				return 0, err
			}
			res, err := search.Optimize(ctx, search.Options{
				Space: sp, Seed: seed, Generations: 4, Population: 16, Workers: 1,
			})
			if err != nil {
				return 0, err
			}
			if len(res.FrontIndices) == 0 {
				return 0, fmt.Errorf("empty final front")
			}
			return float64(len(res.Records)), nil
		},
	}
}

// perfKey derives a deterministic sha-256-hex key of the same shape
// sweep.PointKey produces, so store workloads route and index exactly
// like production keys.
func perfKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("perf-point-%d", i)))
	return hex.EncodeToString(sum[:])
}

// perfRecord is a small but representative stored record.
func perfRecord(i int) sweep.Record {
	return sweep.Record{
		Scenario: "perf", Index: i, Label: fmt.Sprintf("p%d", i),
		TxPowerDBm: float64(i % 32), DecodeLatencyBits: 200,
		NoCSaturation: 0.25, Topology: "2D mesh 4x4",
	}
}

// storeReopenCold measures the cost the persisted index exists to
// bound: reopening a segmented store. Setup builds a store of several
// thousand entries across many segments and closes it cleanly; each
// measured iteration opens it cold, which must map every entry from
// index.json with zero segment replay, serve a few spot lookups, and
// close again.
func storeReopenCold() Workload {
	const entries = 2048
	var dir string
	return Workload{
		Name:           "store-reopen-cold",
		MaxAllocsPerOp: 7000,
		Description:    "reopen a 2048-entry segmented store through its persisted index (no replay)",
		Units:          "entries",
		Setup: func(ctx context.Context, seed uint64) (func(), error) {
			var err error
			dir, err = os.MkdirTemp("", "perf-reopen-cold-*")
			if err != nil {
				return nil, err
			}
			// Small segments force a multi-segment layout, the case where
			// index-less reopen cost scales with store size.
			st, err := store.OpenOptions(dir, store.Options{SegmentBytes: 64 << 10})
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			for i := 0; i < entries; i++ {
				st.Put(perfKey(i), perfRecord(i))
			}
			if err := st.Close(); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			return func() { os.RemoveAll(dir) }, nil
		},
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			st, err := store.OpenOptions(dir, store.Options{SegmentBytes: 64 << 10})
			if err != nil {
				return 0, err
			}
			defer st.Close()
			if s := st.Stats(); s.Replayed != 0 || s.IndexLoaded != entries {
				return 0, fmt.Errorf("cold reopen replayed %d and index-loaded %d entries, want 0 and %d",
					s.Replayed, s.IndexLoaded, entries)
			}
			// Spot-check a spread of entries through the fault-in path.
			for i := 0; i < entries; i += entries / 16 {
				if _, ok := st.Get(perfKey(i)); !ok {
					return 0, fmt.Errorf("entry %d missing after cold reopen", i)
				}
			}
			return entries, nil
		},
	}
}

// storeShardFanout measures concurrent lookup throughput against a
// sharded store: 8 goroutines hammering Gets (plus deduplicated
// re-Puts) over 8 shards. The single-store equivalent serializes on
// one mutex; the sharded layout is contention-free for uniformly
// distributed keys, and this workload is the trajectory's record of
// that margin.
func storeShardFanout() Workload {
	const (
		shards  = 8
		workers = 8
		keys    = 512
		rounds  = 8
	)
	var (
		dir string
		st  *store.Sharded
	)
	return Workload{
		Name:           "store-shard-fanout",
		MaxAllocsPerOp: 20000,
		Description:    "8 goroutines x 512 warm lookups against an 8-shard store, with dedup re-puts",
		Units:          "lookups",
		Setup: func(ctx context.Context, seed uint64) (func(), error) {
			var err error
			dir, err = os.MkdirTemp("", "perf-shard-fanout-*")
			if err != nil {
				return nil, err
			}
			st, err = store.OpenSharded(dir, shards, store.Options{})
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			for i := 0; i < keys; i++ {
				st.Put(perfKey(i), perfRecord(i))
			}
			return func() {
				st.Close()
				os.RemoveAll(dir)
				st = nil
			}, nil
		},
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			var wg sync.WaitGroup
			errc := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for i := 0; i < keys/workers; i++ {
							k := (w*keys/workers + i + r) % keys
							if _, ok := st.Get(perfKey(k)); !ok {
								errc <- fmt.Errorf("warm key %d missed", k)
								return
							}
							if r == 0 && i%8 == 0 {
								st.Put(perfKey(k), perfRecord(k)) // dedup no-op
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errc)
			if err := <-errc; err != nil {
				return 0, err
			}
			return float64(workers * rounds * keys / workers), nil
		},
	}
}

// metricsOverhead measures the observability tax: warm lookups and
// dedup re-puts against a store opened with Options.Metrics set — so
// every Get and Put pays one clock read plus a histogram observation —
// followed by a full Prometheus exposition of the registry each round,
// the cost a scrape adds on top. The uninstrumented store workloads
// above measure the free path (nil Metrics takes no clock reads at
// all); this workload is the trajectory's record of what turning
// observation on costs.
func metricsOverhead() Workload {
	const (
		shards = 4
		keys   = 512
		rounds = 8
	)
	var (
		dir string
		st  *store.Sharded
		reg *obs.Registry
	)
	return Workload{
		Name:           "metrics-overhead",
		MaxAllocsPerOp: 24000,
		Description:    "512 warm instrumented lookups x 8 rounds with per-op latency histograms, plus a registry exposition per round",
		Units:          "lookups",
		Setup: func(ctx context.Context, seed uint64) (func(), error) {
			var err error
			dir, err = os.MkdirTemp("", "perf-metrics-overhead-*")
			if err != nil {
				return nil, err
			}
			reg = obs.NewRegistry()
			st, err = store.OpenSharded(dir, shards, store.Options{Metrics: reg})
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			for i := 0; i < keys; i++ {
				st.Put(perfKey(i), perfRecord(i))
			}
			return func() {
				st.Close()
				os.RemoveAll(dir)
				st, reg = nil, nil
			}, nil
		},
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					if _, ok := st.Get(perfKey(i)); !ok {
						return 0, fmt.Errorf("warm key %d missed", i)
					}
					if i%16 == 0 {
						st.Put(perfKey(i), perfRecord(i)) // dedup no-op, still timed
					}
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					return 0, err
				}
			}
			return float64(rounds * keys), nil
		},
	}
}

// tracingOverhead measures the span-collection tax on the record path:
// 512 span appends into an enabled ring collector (well past capacity,
// so eviction is exercised every round), one per-job query over the
// ring, and — the number the budget really guards — the same 512
// appends against a nil collector, which is the disabled-tracing hot
// path and must not allocate at all.
func tracingOverhead() Workload {
	const (
		ringCap = 256
		appends = 512
	)
	var (
		col      *obs.Collector
		disabled *obs.Collector
		recs     []obs.SpanRecord
	)
	return Workload{
		Name:           "tracing-overhead",
		MaxAllocsPerOp: 16,
		Description:    "512 span appends into a 256-slot ring collector plus a per-job query, and 512 nil-collector (disabled) appends",
		Units:          "spans",
		Setup: func(ctx context.Context, seed uint64) (func(), error) {
			col = obs.NewCollector(ringCap)
			disabled = nil
			// Pre-minted records: the workload measures the collector, not
			// ID generation. Two alternating job IDs make JobSpans filter
			// half the ring. Timestamps are fixed offsets so every run
			// appends identical payloads.
			recs = make([]obs.SpanRecord, appends)
			for i := range recs {
				recs[i] = obs.SpanRecord{
					TraceID: fmt.Sprintf("trace-%04d", i),
					SpanID:  fmt.Sprintf("span-%04d", i),
					Name:    "chunk",
					JobID:   fmt.Sprintf("job-%d", i%2),
					Worker:  "perf-worker",
					Start:   time.Unix(0, int64(i)*1000),
					End:     time.Unix(0, int64(i)*1000+500),
				}
			}
			return func() { col, disabled, recs = nil, nil, nil }, nil
		},
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			for i := range recs {
				col.Add(recs[i])
			}
			for i := range recs {
				disabled.Add(recs[i]) // nil receiver: the zero-cost disabled path
			}
			if got := col.Len(); got != ringCap {
				return 0, fmt.Errorf("ring holds %d spans, want %d", got, ringCap)
			}
			spans := col.JobSpans("job-0")
			if len(spans) != ringCap/2 {
				return 0, fmt.Errorf("job-0 query returned %d spans, want %d", len(spans), ringCap/2)
			}
			if disabled.Len() != 0 || disabled.Total() != 0 {
				return 0, fmt.Errorf("nil collector counted spans")
			}
			return appends, nil
		},
	}
}

// serviceSubmitPoll measures the HTTP service round trip the daemon
// serves: submit a sweep job, poll it to completion, stream its
// records. Units are the records streamed back — a fixed property of
// the scenario — not the poll requests, whose count depends on
// scheduling and would make the unit figure non-reproducible.
func serviceSubmitPoll() Workload {
	var (
		mgr *service.Manager
		srv *httptest.Server
	)
	return Workload{
		Name:           "service-submit-poll",
		MaxAllocsPerOp: 900,
		Description:    "HTTP service round trip: submit an embedded-box job, poll to done, fetch records",
		Units:          "records",
		Setup: func(ctx context.Context, seed uint64) (func(), error) {
			mgr = service.New(service.Options{JobWorkers: 2})
			srv = httptest.NewServer(service.NewHandler(mgr))
			return func() {
				srv.Close()
				mgr.Shutdown(context.Background())
				mgr, srv = nil, nil
			}, nil
		},
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			body := fmt.Sprintf(`{"scenario":"embedded-box","budget":"analytic","seed":%d}`, seed)
			resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				return 0, err
			}
			var jv struct {
				ID    string `json:"id"`
				State string `json:"state"`
			}
			err = json.NewDecoder(resp.Body).Decode(&jv)
			resp.Body.Close()
			if err != nil {
				return 0, err
			}
			for jv.State != "done" {
				if jv.State == "failed" || jv.State == "cancelled" {
					return 0, fmt.Errorf("job %s ended %s", jv.ID, jv.State)
				}
				r, err := http.Get(srv.URL + "/api/v1/jobs/" + jv.ID)
				if err != nil {
					return 0, err
				}
				err = json.NewDecoder(r.Body).Decode(&jv)
				r.Body.Close()
				if err != nil {
					return 0, err
				}
			}
			r, err := http.Get(srv.URL + "/api/v1/jobs/" + jv.ID + "/records")
			if err != nil {
				return 0, err
			}
			sc := bufio.NewScanner(r.Body)
			sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
			records := 0.0
			for sc.Scan() {
				if len(sc.Bytes()) > 0 {
					records++
				}
			}
			r.Body.Close()
			if err := sc.Err(); err != nil {
				return 0, err
			}
			if records == 0 {
				return 0, fmt.Errorf("job %s returned no records", jv.ID)
			}
			return records, nil
		},
	}
}
