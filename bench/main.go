// Command bench is the fleet end-to-end benchmark of the design-space
// service. In one process it starts the production fleet shape — the
// sweepd HTTP API in distributed mode over a 4-shard result store, and
// two sweepworker loops talking to it over HTTP — and drives it with two
// closed-loop clients through the public API only. It prints every
// end-to-end metric by name with its unit (or, traced, every per-layer
// metric), after checking the records the clients received.
//
// Usage:
//
//	bench run [-workload W|all] [-seed S] [-seconds N] [-trace 0|1] [-runs K] [-out F]
//	bench probe -workload W [-seed S] [-jobs N] [-seconds N]
//	bench compare [-spec BENCHMARK.json] A.ndjson B.ndjson
//
// run measures one workload in this process and ends with one JSON line
// {"correct","attempted","failed","metrics"}; -workload all measures
// each workload -runs times, each in a fresh child process, and appends
// one NDJSON line per run to -out. probe replays a workload's first jobs
// single-threaded through the model layers. compare reads two such
// NDJSON files and judges every (workload, metric) pair against the
// bounds in BENCHMARK.json. README.md has the workload and metric
// catalogue.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "probe":
		err = cmdProbe(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run|probe|compare [flags] (see -h of each)")
	os.Exit(2)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLine is one run in a results file: which workload, seed and mode
// produced the result.
type runLine struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to measure, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the job list is a pure function of it")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	runs := fs.Int("runs", 1, "with -workload all: runs per workload, seeds seed..seed+runs-1")
	out := fs.String("out", "", "append one NDJSON line per run to this file")
	workdir := fs.String("workdir", ".bench_build", "directory for the runs' result stores")
	fs.Parse(args)
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be positive, got %d", *seconds)
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *runs, *out, *workdir)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	rep, err := measure(config{
		w: w, seed: *seed, length: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		repeat: *trace == 0, workdir: *workdir, probe: probeChild,
	})
	if err != nil {
		return err
	}
	res := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.e2e}
	if *trace == 1 {
		res.Metrics = rep.layers
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("# %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if *out != "" {
		if err := appendRun(*out, runLine{w.name, *seed, *trace, res}); err != nil {
			return err
		}
	}
	if !res.Correct {
		return errors.New("the records failed their check")
	}
	return nil
}

// runAll measures every workload runs times, each run in a fresh child
// process so the compiled-topology cache, the heap and the peak RSS of
// one never carry into another. The workload order alternates between
// rounds; each child appends its own line to out.
func runAll(seed uint64, seconds, trace, runs int, out, workdir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for r := 0; r < runs; r++ {
		for k := range workloads {
			w := workloads[k]
			if r%2 == 1 {
				w = workloads[len(workloads)-1-k]
			}
			s := seed + uint64(r)
			fmt.Printf("## %s seed %d\n", w.name, s)
			cmd := exec.Command(self, "run", "-workload", w.name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-workdir", workdir, "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.name, s, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed", failed)
	}
	return nil
}

// lastLine is the final non-empty line of a child's standard output.
func lastLine(stdout []byte) []byte {
	stdout = bytes.TrimSpace(stdout)
	return stdout[bytes.LastIndexByte(stdout, '\n')+1:]
}

func appendRun(path string, rl runLine) error {
	line, err := json.Marshal(rl)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeChild runs the probe in a fresh child process, so the
// compiled-topology cache starts cold, as the fleet's did.
func probeChild(w *workload, seed uint64, jobs int, budget time.Duration) (*probeReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "probe", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-jobs", strconv.Itoa(jobs), "-seconds", strconv.FormatFloat(budget.Seconds(), 'f', -1, 64))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, runErr := cmd.Output()
	var pr probeReport
	if err := json.Unmarshal(lastLine(stdout), &pr); err != nil {
		return nil, fmt.Errorf("probe: %v: %s", runErr, bytes.TrimSpace(stderr.Bytes()))
	}
	if runErr != nil {
		return &pr, fmt.Errorf("probe: %v: %s", runErr, bytes.TrimSpace(stderr.Bytes()))
	}
	return &pr, nil
}

func cmdProbe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	name := fs.String("workload", "", "workload whose jobs to replay")
	seed := fs.Uint64("seed", 1, "workload seed")
	jobs := fs.Int("jobs", keepStreams, "how many leading jobs to replay")
	seconds := fs.Float64("seconds", 10, "stop starting jobs after this many seconds")
	fs.Parse(args)
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	// One thread: no second core hides the stages' cost.
	runtime.GOMAXPROCS(1)
	pr, perr := probe(w, *seed, *jobs, time.Duration(*seconds*float64(time.Second)))
	if pr == nil {
		return perr
	}
	out := bufio.NewWriter(os.Stdout)
	for _, k := range sortedKeys(pr.Metrics) {
		fmt.Fprintf(out, "# %-28s %14.6g %s\n", k, pr.Metrics[k].Value, pr.Metrics[k].Unit)
	}
	line, err := json.Marshal(pr)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		return err
	}
	return perr
}
