// Command sweep explores the wireless-interconnect design space: it
// runs named scenario grids through the parallel sweep executor, or an
// adaptive multi-objective optimization over a named search space, and
// writes structured results with a Pareto front.
//
// Usage:
//
//	sweep list
//	sweep spaces
//	sweep run {-scenario <name> | -spec file.json} [-daemon URL]
//	          [-objectives a,b,c] [-out results.json] [-csv results.csv]
//	          [-workers N] [-seed S] [-budget analytic|smoke|standard]
//	          [-timeout 10m] [-store dir]
//	sweep optimize {-space <name> | -spec file.json} [-objectives a,b,c]
//	          [-generations G] [-population P] [-out result.json]
//	          [-csv records.csv] [-workers N] [-seed S]
//	          [-budget analytic|smoke|standard] [-timeout 10m] [-store dir]
//	sweep store stats -store <dir>
//	sweep store compact -store <dir>
//	sweep trace [-daemon http://localhost:8080] [-raw] <job-id>
//	sweep fleet [-daemon http://localhost:8080]
//
// -spec replaces the registered name with a user-authored declarative
// scenario spec (JSON; see docs/specs.md): its axes define the grid (or
// the optimizer's search ranges), its objectives and constraints draw
// the Pareto front of either, and its budget and objectives apply
// unless -budget or -objectives overrides them.
//
// run and optimize turn their flags into a service.Request and resolve
// it with service.Resolve, the rule sweepd applies to every submission:
// name or spec, then request fields over spec fields over defaults. A
// local run executes the resolved Plan; run -daemon posts the same
// request to a running sweepd instead, whose worker fleet computes the
// records the CLI streams back, byte-identical to a local run.
//
// trace and fleet read a running sweepd's observability endpoints:
// trace prints a job's phase timeline (or, with -raw, its spans as
// NDJSON), and fleet prints per-worker throughput profiles with the
// straggler baseline. Every call to the daemon goes through
// service.Client, the API's one Go client, so a daemon error reads the
// same here as in a worker: status, stable code and message.
//
// Records are deterministic for a fixed seed: running with -workers 1
// and -workers N yields byte-identical files, for grids and
// optimizations alike.
//
// -store points at a content-addressed result store (the same layout
// cmd/sweepd serves from): every evaluated point is persisted there and
// rerunning any scenario — or re-running an optimization with the same
// space, objectives, seed and shape — reuses every already-computed
// point instead of evaluating it again.
//
// Output files are written atomically (temp file + rename), so a
// crashed or out-of-space run never leaves a truncated results file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/fsio"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	fail := func(err error) {
		// Package errors already carry their prefix; add ours only
		// to bare messages.
		if msg := err.Error(); strings.HasPrefix(msg, "sweep:") || strings.HasPrefix(msg, "search:") || strings.HasPrefix(msg, "service:") {
			fmt.Fprintln(os.Stderr, err)
		} else {
			fmt.Fprintln(os.Stderr, "sweep:", err)
		}
		os.Exit(1)
	}
	switch os.Args[1] {
	case "list":
		list()
	case "spaces":
		listSpaces()
	case "run":
		if err := run(os.Args[2:]); err != nil {
			fail(err)
		}
	case "optimize":
		if err := optimize(os.Args[2:]); err != nil {
			fail(err)
		}
	case "store":
		if err := storeCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	case "trace":
		if err := traceCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	case "fleet":
		if err := fleetCmd(os.Args[2:]); err != nil {
			fail(err)
		}
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func list() {
	fmt.Println("registered scenarios:")
	fmt.Print(scenarioCatalog())
}

// scenarioCatalog renders the registry one scenario per line — shared
// by 'sweep list' and the unknown-scenario error, so the user who
// mistyped a name sees exactly what they could have written.
func scenarioCatalog() string {
	var sb strings.Builder
	for _, name := range sweep.Names() {
		sc, err := sweep.Get(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&sb, "  %-20s %3d points  %s\n", name, len(sc.Points()), sc.Description)
	}
	return sb.String()
}

func listSpaces() {
	fmt.Println("registered search spaces:")
	fmt.Print(spaceCatalog())
	fmt.Println("objectives:", strings.Join(sweep.ObjectiveNames(), ", "))
}

// spaceCatalog renders the search-space registry with each space's
// parameters and bounds — shared by 'sweep spaces' and the
// unknown-space error.
func spaceCatalog() string {
	var sb strings.Builder
	for _, name := range search.Names() {
		sp, err := search.Get(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&sb, "  %-20s %d params    %s\n", name, len(sp.Params), sp.Description)
		for _, p := range sp.Params {
			fmt.Fprintf(&sb, "      %-22s %-10s [%g, %g]\n", p.Name, p.Kind, p.Min, p.Max)
		}
	}
	return sb.String()
}

// jobFlags are the flags 'sweep run' and 'sweep optimize' share. They
// fill one service.Request: -daemon posts it to sweepd, and a local run
// executes the Plan that service.Resolve makes of it, so both go
// through the daemon's own precedence rule.
type jobFlags struct {
	*flag.FlagSet
	req                                         service.Request
	specPath, objectives, out, csvOut, storeDir string
	timeout                                     time.Duration
}

func newJobFlags(name, kind string) *jobFlags {
	f := &jobFlags{FlagSet: flag.NewFlagSet(name, flag.ExitOnError), req: service.Request{Kind: kind}}
	f.StringVar(&f.specPath, "spec", "", "declarative scenario spec file (JSON; see docs/specs.md)")
	f.StringVar(&f.objectives, "objectives", "", "comma-separated objective names the Pareto front is drawn over (default: the spec's, else tx-power,decode-latency,noc-saturation)")
	f.StringVar(&f.out, "out", "", "JSON output path ('-' for stdout)")
	f.StringVar(&f.csvOut, "csv", "", "optional CSV output path (one row per evaluated point)")
	f.IntVar(&f.req.Workers, "workers", 0, "worker pool size (0 = NumCPU); results do not depend on it")
	f.Uint64Var(&f.req.Seed, "seed", 1, "root seed of the run's random sub-streams")
	f.StringVar(&f.req.Budget, "budget", "", "Monte-Carlo effort: analytic, smoke or standard (default: the spec's budget, else analytic)")
	f.DurationVar(&f.timeout, "timeout", 0, "overall deadline (0 = none)")
	f.StringVar(&f.storeDir, "store", "", "result store directory shared with sweepd (read-through cache)")
	return f
}

// parse reads the flags, and the -objectives list and the -spec
// document into the request.
func (f *jobFlags) parse(args []string) error {
	if err := f.Parse(args); err != nil {
		return err
	}
	if f.objectives != "" {
		f.req.Objectives = strings.Split(f.objectives, ",")
	}
	if f.specPath == "" {
		return nil
	}
	raw, err := os.ReadFile(f.specPath)
	if err == nil && len(raw) == 0 {
		// An empty body would read as "no spec" to the resolver.
		err = fmt.Errorf("%s: empty spec file", f.specPath)
	}
	f.req.Spec = raw
	return err
}

// resolve makes the request's Plan with service.Resolve. A name the
// registry does not know fails with the whole catalog, so the user can
// correct the invocation without a second round trip through 'sweep
// list' or 'sweep spaces'.
func (f *jobFlags) resolve() (service.Plan, error) {
	plan, err := service.Resolve(f.req)
	switch {
	case err == nil:
	case f.req.Scenario != "" && !slices.Contains(sweep.Names(), f.req.Scenario):
		err = fmt.Errorf("unknown scenario %q; known scenarios:\n%s", f.req.Scenario, scenarioCatalog())
	case f.req.Space != "" && !slices.Contains(search.Names(), f.req.Space):
		err = fmt.Errorf("unknown space %q; known spaces:\n%s", f.req.Space, spaceCatalog())
	case errors.Is(err, service.ErrBadSpec):
		err = fmt.Errorf("%s: %w", f.specPath, err)
	}
	return plan, err
}

// writeOutputs writes the -out JSON document (to stdout for "-") and
// the -csv record table.
func (f *jobFlags) writeOutputs(doc any, recs []sweep.Record) error {
	if f.out == "-" {
		if err := sweep.WriteJSON(os.Stdout, doc); err != nil {
			return err
		}
	} else if f.out != "" {
		if err := fsio.WriteFileAtomic(f.out, func(w *os.File) error { return sweep.WriteJSON(w, doc) }); err != nil {
			return err
		}
		fmt.Println("wrote", f.out)
	}
	if f.csvOut != "" {
		if err := fsio.WriteFileAtomic(f.csvOut, func(w *os.File) error { return sweep.WriteCSV(w, recs) }); err != nil {
			return err
		}
		fmt.Println("wrote", f.csvOut)
	}
	return nil
}

func run(args []string) error {
	f := newJobFlags("run", service.KindSweep)
	f.StringVar(&f.req.Scenario, "scenario", "", "scenario name (see 'sweep list')")
	daemon := f.String("daemon", "", "submit to a running sweepd at this URL instead of executing locally")
	if err := f.parse(args); err != nil {
		return err
	}
	if f.req.Scenario == "" && f.specPath == "" {
		return fmt.Errorf("missing -scenario or -spec (see 'sweep list' and docs/specs.md)")
	}
	if *daemon != "" {
		switch {
		case f.csvOut != "":
			return fmt.Errorf("-csv cannot be combined with -daemon (the records stream to -out as NDJSON)")
		case f.storeDir != "":
			return fmt.Errorf("-store cannot be combined with -daemon (the daemon reads through its own store)")
		}
		return submitAndStream(*daemon, f.req, f.out, f.timeout)
	}
	plan, err := f.resolve()
	if err != nil {
		return err
	}
	if plan.SpecName != "" {
		fmt.Printf("spec %q -> scenario %s\n", plan.SpecName, plan.Scenario.Name)
	}

	cfg := sweep.Config{Workers: f.req.Workers, Seed: f.req.Seed, Budget: plan.Budget, Pareto: plan.Pareto}
	st, err := openStore(f.storeDir)
	if err != nil {
		return err
	}
	if st != nil {
		cfg.Cache = st
	}

	ctx, cancel := runContext(f.timeout)
	defer cancel()

	start := time.Now()
	res, err := sweep.Run(ctx, plan.Scenario, cfg)
	if err = flushStore(st, err); err != nil {
		return err
	}

	fmt.Printf("scenario %s: %d points, budget %s, %.1fs\n",
		res.Scenario, len(res.Records), res.Budget, time.Since(start).Seconds())
	if st != nil {
		fmt.Printf("store %s: %d points cached, %d computed\n",
			f.storeDir, res.CachedPoints, res.ComputedPoints)
	}
	for _, r := range res.Records {
		fmt.Println(" ", r.Summary())
	}
	fmt.Printf("pareto front over %s: %d of %d points\n",
		strings.Join(plan.Pareto.Names(), ", "), len(res.ParetoIndices), len(res.Records))
	for _, i := range res.ParetoIndices {
		fmt.Println("  ", res.Records[i].Summary())
	}
	return f.writeOutputs(res, res.Records)
}

// optimize runs the adaptive multi-objective search over a registered
// space, streaming one line per generation and ending with the final
// Pareto front.
func optimize(args []string) error {
	f := newJobFlags("optimize", service.KindOptimize)
	f.StringVar(&f.req.Space, "space", "", "search space name (see 'sweep spaces')")
	f.IntVar(&f.req.Generations, "generations", 0, "generations to evolve (0 = default)")
	f.IntVar(&f.req.Population, "population", 0, "individuals per generation, even and >= 4 (0 = default)")
	if err := f.parse(args); err != nil {
		return err
	}
	if f.req.Space == "" && f.specPath == "" {
		return fmt.Errorf("missing -space or -spec (see 'sweep spaces' and docs/specs.md)")
	}
	plan, err := f.resolve()
	if err != nil {
		return err
	}

	opts := plan.Search
	opts.OnGeneration = func(g search.Generation) {
		line := fmt.Sprintf("gen %3d: front %2d, %d evaluated (%d cached)",
			g.Gen, g.FrontSize, g.Evaluated, g.Cached)
		for _, b := range g.Best {
			line += fmt.Sprintf("  %s %.4g", b.Objective, b.Value)
		}
		fmt.Println(line)
	}
	st, err := openStore(f.storeDir)
	if err != nil {
		return err
	}
	if st != nil {
		opts.Cache = st
	}

	ctx, cancel := runContext(f.timeout)
	defer cancel()

	start := time.Now()
	res, err := search.Optimize(ctx, opts)
	if err = flushStore(st, err); err != nil {
		return err
	}

	fmt.Printf("space %s: %d generations x %d, %d points (%d cached), budget %s, %.1fs\n",
		res.Space, res.Generations, res.Population,
		len(res.Records), res.CachedPoints, res.Budget, time.Since(start).Seconds())
	fmt.Printf("pareto front over %s: %d of %d evaluated points\n",
		strings.Join(res.Objectives, ", "), len(res.FrontIndices), len(res.Records))
	for _, rec := range res.Front() {
		fmt.Println("  ", rec.Summary())
	}
	return f.writeOutputs(res, res.Records)
}

// storeCmd administers the on-disk result store:
//
//	sweep store stats   -store dir   counters and per-shard layout
//	sweep store compact -store dir   drop stale-engine and shadowed entries
func storeCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: sweep store stats|compact -store <dir>")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("store "+sub, flag.ExitOnError)
	storeDir := fs.String("store", "", "result store directory")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("missing -store directory")
	}
	st, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	switch sub {
	case "stats":
		total := st.Stats()
		fmt.Printf("store %s: %d entries, %d segment(s), %d shard(s), engine %d\n",
			*storeDir, total.Entries, total.Segments, total.Shards, sweep.EngineVersion)
		fmt.Printf("  opened: %d from index, %d replayed, %d malformed line(s) skipped\n",
			total.IndexLoaded, total.Replayed, total.Skipped)
		if total.Shards > 1 {
			for i, sh := range st.ShardStats() {
				fmt.Printf("  shard %3d: %d entries, %d segment(s)\n", i, sh.Entries, sh.Segments)
			}
		}
		return flushStore(st, nil)
	case "compact":
		res, err := st.Compact()
		if err != nil {
			flushStore(st, nil) // the swap failed; still try to persist what is consistent
			return err
		}
		fmt.Printf("compacted %s: kept %d, dropped %d stale + %d shadowed, %d -> %d segment(s), %d -> %d bytes\n",
			*storeDir, res.Kept, res.DroppedStale, res.DroppedShadowed,
			res.SegmentsBefore, res.SegmentsAfter, res.BytesBefore, res.BytesAfter)
		return flushStore(st, nil)
	default:
		flushStore(st, nil)
		return fmt.Errorf("unknown store subcommand %q (want stats or compact)", sub)
	}
}

// openStore opens the shared result store with whatever shard layout
// it already has, or returns nil when no directory was requested.
func openStore(dir string) (*store.Sharded, error) {
	if dir == "" {
		return nil, nil
	}
	return store.OpenSharded(dir, 0, store.Options{})
}

// flushStore closes the store (when one is open) and merges a flush
// failure into the run's error: a store that cannot persist what the
// run computed must fail the run.
func flushStore(st *store.Sharded, err error) error {
	if st == nil {
		return err
	}
	if cerr := st.Close(); cerr != nil && err == nil {
		return cerr
	}
	return err
}

// runContext bounds a run by the -timeout flag (0 = no deadline).
func runContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

func usage() {
	fmt.Fprint(os.Stderr, `sweep — design-space exploration over wireless-interconnect scenarios

usage:
  sweep list
  sweep spaces
  sweep run {-scenario <name> | -spec file.json} [-daemon URL]
            [-objectives a,b,c] [-out results.json] [-csv results.csv]
            [-workers N] [-seed S] [-budget analytic|smoke|standard]
            [-timeout 10m] [-store dir]
  sweep optimize {-space <name> | -spec file.json} [-objectives a,b,c]
            [-generations G] [-population P] [-out result.json]
            [-csv records.csv] [-workers N] [-seed S]
            [-budget analytic|smoke|standard] [-timeout 10m] [-store dir]
  sweep store stats -store <dir>
  sweep store compact -store <dir>
  sweep trace [-daemon http://localhost:8080] [-raw] <job-id>
  sweep fleet [-daemon http://localhost:8080]

run enumerates a fixed scenario grid; optimize runs the adaptive
NSGA-II multi-objective search over a declared parameter space and
reports the Pareto front it converged to. Both accept -spec, a
user-authored declarative scenario file (docs/specs.md has the
authoring guide), in place of the registered name; run additionally
accepts -daemon to submit the job to a running sweepd and stream the
records back.

-store shares cmd/sweepd's content-addressed result store: reruns reuse
every already-computed point instead of evaluating it again. store
stats prints its counters and shard layout; store compact reclaims the
space held by stale-engine entries and shadowed duplicate keys.

trace and fleet talk to a running sweepd: trace prints one job's phase
timeline and per-chunk turnarounds (-raw dumps its spans as NDJSON);
fleet prints per-worker throughput profiles and straggler counts.
`)
}
