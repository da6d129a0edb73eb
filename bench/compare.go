package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare judges against.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// cmdCompare judges run set B against run set A, pair by pair: for every
// workload and end-to-end metric it prints both sides' median and
// quartiles and a verdict. "unresolved" means A's own spread (quartile
// distance over median) exceeds the metric's bound, so the bound cannot
// separate a change from noise; "worse" means B's median is worse than
// A's by more than the bound. Any "worse" makes compare exit non-zero.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return errors.New("compare needs two results files: A.ndjson B.ndjson")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	a, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)
	worse := 0
	fmt.Printf("%-15s %-17s %5s %32s %32s %8s %8s  %s\n",
		"workload", "metric", "bound", "A  q1 / median / q3", "B  q1 / median / q3", "spreadA", "change", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			av, bv := a[w][m.Name], b[w][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Printf("%-15s %-17s missing on one side\n", w, m.Name)
				continue
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			spread := ratio(a3-a1, math.Abs(am))
			change := ratio(bm-am, math.Abs(am))
			if m.Better == "higher" {
				change = -change // positive change is always "worse"
			}
			verdict := "within-bound"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-15s %-17s %5.2f %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %8.4f %+8.4f  %s\n",
				w, m.Name, m.Bound, a1, am, a3, b1, bm, b3, spread, change, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pair(s) worse than their bound", worse)
	}
	return nil
}

// readRuns loads a results file into workload -> metric -> values,
// keeping untraced runs only (they carry the end-to-end metrics).
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		var rl runLine
		if err := json.Unmarshal(sc.Bytes(), &rl); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rl.Trace != 0 {
			continue
		}
		if out[rl.Workload] == nil {
			out[rl.Workload] = map[string][]float64{}
		}
		for name, m := range rl.Result.Metrics {
			out[rl.Workload][name] = append(out[rl.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}
