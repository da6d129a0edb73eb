package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/rng"
	"repro/internal/service"
)

// A workload is one traffic mix: the job list two closed-loop clients
// walk, plus (warm-resubmit only) the jobs set-up runs to fill the
// store. Both are pure functions of the run seed, so two runs with one
// seed submit byte-identical requests.
type workload struct {
	name string
	why  string
	// fill lists the set-up jobs whose records the measured jobs reuse.
	fill func(seed uint64) []jobSpec
	// job returns the i-th job of the measured list.
	job func(seed uint64, i int) jobSpec
	// think bounds the pause a client takes before each job after its
	// first, drawn uniformly from [0, think) (0 = none). See thinkTime.
	think time.Duration
}

// jobSpec is one submission: the exact POST /api/v1/jobs body.
type jobSpec struct {
	body []byte
	// fill is the index of the set-up job whose record stream this job
	// must reproduce byte for byte, or -1 for a fresh job.
	fill int
}

// request decodes the submission the way the daemon does, for the
// record check and the probe, which need its seed, budget and target.
func (js jobSpec) request() (service.Request, error) {
	var req service.Request
	if err := json.Unmarshal(js.body, &req); err != nil {
		return req, fmt.Errorf("job request: %w", err)
	}
	return req, nil
}

var workloads = []*workload{
	{
		name: "smoke-cold",
		why:  "smoke-budget Monte-Carlo (LDPC BER, NoC simulation) does nearly all the work; dispatch, store and HTTP cost little",
		job:  smokeColdJob,
	},
	{
		name: "noc-wide",
		why:  "analytic grids over hundreds of distinct stack sizes overflow core's 32-entry topology cache, so NoC compile dominates",
		job:  nocWideJob,
	},
	{
		name: "warm-resubmit",
		why:  "resubmitted studies are all store hits: canonicalisation, cache pre-pass, assembly and NDJSON streaming are the whole cost",
		fill: warmFill,
		job:  warmJob,
	},
	{
		name:  "optimize-waves",
		why:   "microsecond evaluations behind per-generation lease waves: dispatch barrier, lease RPCs and store puts are the cost",
		job:   optimizeJob,
		think: fleetPoll,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Stream tags keep the seed's uses apart: job seeds, spec draws, fill
// draws and the record check's point choice never share a sub-stream.
const (
	tagJobSeed = iota + 1
	tagDraw
	tagFill
	tagCheck
	tagThink
)

// jobSeed is job i's sweep seed. Every job gets its own, so cold
// workloads miss the store on every point.
func jobSeed(seed uint64, i int) uint64 {
	return rng.New(seed).Split(tagJobSeed).Split(uint64(i)).Uint64()
}

// thinkTime is the pause before job i: uniform over one worker poll
// period. Without it, jobs as short as optimize-waves' lock into
// whatever phase the run starts with against the idle workers' lease
// polls, and the run reports that phase instead of the fleet; a random
// pause samples every phase.
func thinkTime(seed uint64, i int, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rng.New(seed).Split(tagThink).Split(uint64(i)).Float64() * float64(max))
}

// draws is job i's private stream for drawing spec values.
func draws(seed uint64, i int) *rng.Stream {
	return rng.New(seed).Split(tagDraw).Split(uint64(i))
}

// smokeRegistry is the rotation of registered scenarios every fourth
// smoke-cold job runs.
var smokeRegistry = []string{"paper-baseline", "embedded-box", "dense-rack", "butler-vs-steered"}

// smokeColdJob: three in four jobs are 4-point spec grids whose base
// (boards, spacing, rate) is drawn from the seed; the axes are fixed so
// every such job costs the same Monte-Carlo work. Every fourth job is
// a registered scenario.
func smokeColdJob(seed uint64, i int) jobSpec {
	if i%4 == 3 {
		return jobSpec{fill: -1, body: render(doc{
			{"scenario", smokeRegistry[(i/4)%len(smokeRegistry)]},
			{"budget", "smoke"},
			{"seed", jobSeed(seed, i)},
		}, plain)}
	}
	d := draws(seed, i)
	spec := doc{
		{"name", fmt.Sprintf("smoke-grid-%d", i)},
		{"base", doc{
			{"boards", float64(2 + d.Intn(7))},
			{"board-spacing-m", 0.05 + 0.01*float64(d.Intn(16))},
			{"link-rate-gbps", 25 * float64(1+d.Intn(8))},
		}},
		{"axes", []any{
			doc{{"name", "latency-budget-bits"}, {"kind", "enum"}, {"values", []any{100.0, 150.0}}},
			doc{{"name", "butler"}, {"kind", "bool"}},
		}},
		{"budget", "smoke"},
	}
	return jobSpec{fill: -1, body: render(doc{
		{"spec", spec},
		{"budget", "smoke"},
		{"seed", jobSeed(seed, i)},
	}, plain)}
}

// nocPatterns rotate by job so every run has the same pattern mix
// (bit-complement compiles far faster than the other two).
var nocPatterns = []string{"uniform", "bit-complement", "hotspot"}

// nocWideJob is a 16-point analytic grid: 8 stack sizes, one drawn from
// each eighth of [16, 320) so every job carries the same compile load,
// times 2 injection rates. The 320 ceiling keeps the topology cache's
// resident meshes, and so the run's peak memory, well under 1 GB while
// the run still meets about 900 distinct (size, pattern) pairs. The
// rates stay low enough that hotspot traffic remains sustainable.
func nocWideJob(seed uint64, i int) jobSpec {
	d := draws(seed, i)
	modules := make([]any, 8)
	for k := range modules {
		modules[k] = float64(16 + 38*k + d.Intn(38))
	}
	pattern := nocPatterns[i%len(nocPatterns)]
	base := doc{{"traffic-pattern", pattern}}
	if pattern == "hotspot" {
		base = append(base, field{"traffic-hotspot-module", 0.0}, field{"traffic-hotspot-fraction", 0.02})
	}
	spec := doc{
		{"name", fmt.Sprintf("noc-wide-%d", i)},
		{"base", base},
		{"axes", []any{
			doc{{"name", "stack-modules"}, {"kind", "enum"}, {"values", modules}},
			doc{{"name", "stack-injection-rate"}, {"kind", "enum"}, {"values", []any{0.01, 0.02}}},
		}},
		{"budget", "analytic"},
	}
	return jobSpec{fill: -1, body: render(doc{
		{"spec", spec},
		{"budget", "analytic"},
		{"seed", jobSeed(seed, i)},
	}, plain)}
}

// warmRegistry are the registered scenarios the warm-resubmit fill runs
// at analytic budget next to its spec grids.
var warmRegistry = []string{"paper-baseline", "dense-rack", "embedded-box", "manycore", "butler-vs-steered"}

// warmGridShapes fix each fill grid's size as (boards values, link-rate
// values); every grid also crosses 4 latency budgets and butler, so the
// sizes are 8x these products: 128 to 1024 points.
var warmGridShapes = [][2]int{{2, 8}, {4, 6}, {4, 8}, {6, 8}, {8, 8}, {8, 10}, {8, 12}, {8, 16}}

// warmSpec is fill grid k: its shape is fixed, the base spacing and the
// grid offsets are drawn from the seed.
func warmSpec(seed uint64, k int) doc {
	d := rng.New(seed).Split(tagFill).Split(uint64(k))
	shape := warmGridShapes[k]
	boards0 := float64(2 + d.Intn(4))
	rate0 := float64(10 + 5*d.Intn(4))
	return doc{
		{"name", fmt.Sprintf("warm-grid-%d", k)},
		{"base", doc{
			{"board-spacing-m", 0.05 + 0.01*float64(d.Intn(16))},
			{"stack-injection-rate", 0.1},
		}},
		{"axes", []any{
			doc{{"name", "boards"}, {"kind", "integer"}, {"min", boards0}, {"max", boards0 + float64(shape[0]-1)}},
			doc{{"name", "link-rate-gbps"}, {"kind", "continuous"}, {"min", rate0}, {"max", rate0 + 5*float64(shape[1]-1)}, {"step", 5.0}},
			doc{{"name", "latency-budget-bits"}, {"kind", "enum"}, {"values", []any{100.0, 200.0, 300.0, 400.0}}},
			doc{{"name", "butler"}, {"kind", "bool"}},
		}},
		{"budget", "analytic"},
	}
}

// warmFillSeed is the one sweep seed every fill job, and therefore
// every resubmission, runs at.
func warmFillSeed(seed uint64) uint64 { return rng.New(seed).Split(tagFill).Uint64() }

// warmFill is set-up for warm-resubmit: the 8 spec grids plus the 5
// registered scenarios, each computed once into the store.
func warmFill(seed uint64) []jobSpec {
	var out []jobSpec
	for k := range warmGridShapes {
		out = append(out, jobSpec{fill: -1, body: render(doc{
			{"spec", warmSpec(seed, k)},
			{"budget", "analytic"},
			{"seed", warmFillSeed(seed)},
		}, plain)})
	}
	for _, name := range warmRegistry {
		out = append(out, jobSpec{fill: -1, body: render(doc{
			{"scenario", name},
			{"budget", "analytic"},
			{"seed", warmFillSeed(seed)},
		}, plain)})
	}
	return out
}

// warmJob resubmits fill job i mod 13. Spec studies alternate between a
// key-reordered document and one with every number in exponent form:
// both canonicalise to the fill's study, so every point is a hit.
func warmJob(seed uint64, i int) jobSpec {
	n := len(warmGridShapes) + len(warmRegistry)
	k := i % n
	style := reordered
	if (i/n)%2 == 1 {
		style = exponent
	}
	if k >= len(warmGridShapes) {
		return jobSpec{fill: k, body: render(doc{
			{"scenario", warmRegistry[k-len(warmGridShapes)]},
			{"budget", "analytic"},
			{"seed", warmFillSeed(seed)},
		}, style)}
	}
	return jobSpec{fill: k, body: render(doc{
		{"spec", warmSpec(seed, k)},
		{"budget", "analytic"},
		{"seed", warmFillSeed(seed)},
	}, style)}
}

// optimizeSpaces rotate by job.
var optimizeSpaces = []string{"paper-baseline", "embedded-box", "butler-vs-steered"}

// optimizeJob is an analytic NSGA-II run: 6 generations of 16.
func optimizeJob(seed uint64, i int) jobSpec {
	return jobSpec{fill: -1, body: render(doc{
		{"kind", "optimize"},
		{"space", optimizeSpaces[i%len(optimizeSpaces)]},
		{"budget", "analytic"},
		{"seed", jobSeed(seed, i)},
		{"population", 16.0},
		{"generations", 6.0},
	}, plain)}
}

// doc is a JSON object whose keys render in declaration order, so one
// study can be written as differently ordered documents.
type doc []field

type field struct {
	k string
	v any
}

// style selects how render writes a document.
type style int

const (
	plain     style = iota // declared key order, shortest numbers
	reordered              // every object's keys reversed
	exponent               // numbers in exponent form: 100 as 1e+02
)

// render writes v as JSON. Values are doc, []any, string, float64 and
// uint64 (seeds, always written as exact integers).
func render(v any, s style) []byte {
	return appendJSON(nil, v, s)
}

func appendJSON(b []byte, v any, s style) []byte {
	switch x := v.(type) {
	case doc:
		b = append(b, '{')
		for n := range x {
			f := x[n]
			if s == reordered {
				f = x[len(x)-1-n]
			}
			if n > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, f.k)
			b = append(b, ':')
			b = appendJSON(b, f.v, s)
		}
		return append(b, '}')
	case []any:
		b = append(b, '[')
		for n, e := range x {
			if n > 0 {
				b = append(b, ',')
			}
			b = appendJSON(b, e, s)
		}
		return append(b, ']')
	case string:
		return strconv.AppendQuote(b, x)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case float64:
		if s == exponent {
			return strconv.AppendFloat(b, x, 'e', -1, 64)
		}
		return strconv.AppendFloat(b, x, 'f', -1, 64)
	}
	panic(fmt.Sprintf("render: unsupported value %T", v))
}
