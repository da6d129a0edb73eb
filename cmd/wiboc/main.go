// Command wiboc (WIreless BOard and Chip interconnect) regenerates the
// tables and figures of "Wireless Interconnect for Board and Chip Level"
// (Fettweis et al., DATE 2013).
//
// Usage:
//
//	wiboc [-quality smoke|standard|full] <experiment> [...]
//
// Experiments: table1, fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8a,
// fig8b, fig10, ablations, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
)

var runners = map[string]func(experiments.Quality) string{
	"table1": experiments.Table1,
	"fig1":   experiments.Fig1,
	"fig2":   experiments.Fig2,
	"fig3":   experiments.Fig3,
	"fig4":   experiments.Fig4,
	"fig5":   experiments.Fig5,
	"fig6":   experiments.Fig6,
	"fig7":   experiments.Fig7,
	"fig8a":  experiments.Fig8a,
	"fig8b":  experiments.Fig8b,
	"fig10":  experiments.Fig10,
}

var ablations = map[string]func(experiments.Quality) string{
	"ablation-oversampling": experiments.AblationOversampling,
	"ablation-service":      experiments.AblationServiceModel,
	"ablation-pillars":      experiments.AblationPillars,
	"ablation-vertical":     experiments.AblationVerticalBandwidth,
	"ablation-decoder":      experiments.AblationDecoderAlgo,
	"ablation-schedule":     experiments.AblationBPSchedule,
	"ablation-window-iters": experiments.AblationWindowIterations,
}

// order fixes the execution sequence of "all".
var order = []string{
	"table1", "fig1", "fig2", "fig3", "fig4",
	"fig5", "fig6", "fig7", "fig8a", "fig8b", "fig10",
}

var ablationOrder = []string{
	"ablation-oversampling", "ablation-service", "ablation-pillars",
	"ablation-vertical", "ablation-decoder", "ablation-schedule",
	"ablation-window-iters",
}

func main() {
	qualityFlag := flag.String("quality", "smoke",
		"Monte-Carlo fidelity: smoke, standard or full")
	flag.Usage = usage
	flag.Parse()

	q, err := experiments.ParseQuality(*qualityFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	for _, name := range args {
		switch name {
		case "all":
			for _, n := range order {
				run(os.Stdout, os.Stderr, n, runners[n], q)
			}
		case "ablations":
			for _, n := range ablationOrder {
				run(os.Stdout, os.Stderr, n, ablations[n], q)
			}
		default:
			fn, err := resolve(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wiboc:", err)
				usage()
				os.Exit(2)
			}
			run(os.Stdout, os.Stderr, name, fn, q)
		}
	}
}

// resolve maps an experiment name to its runner, searching the figure
// runners first and the ablations second.
func resolve(name string) (func(experiments.Quality) string, error) {
	if fn, ok := runners[name]; ok {
		return fn, nil
	}
	if fn, ok := ablations[name]; ok {
		return fn, nil
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// run prints one experiment's tables to stdout and its wall time to
// stderr, so the same command always prints the same stdout.
func run(stdout, stderr io.Writer, name string, fn func(experiments.Quality) string, q experiments.Quality) {
	start := time.Now()
	fmt.Fprint(stdout, fn(q))
	fmt.Fprintln(stdout)
	fmt.Fprintf(stderr, "[%s completed in %.1fs]\n", name, time.Since(start).Seconds())
}

func usage() {
	fmt.Fprintf(os.Stderr, `wiboc — regenerate the DATE'13 wireless-interconnect experiments

usage: wiboc [-quality smoke|standard|full] <experiment> [...]

experiments:
`)
	for _, n := range order {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	fmt.Fprintf(os.Stderr, "  all        (everything above, in order)\n\nablations:\n")
	for _, n := range ablationOrder {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	fmt.Fprintf(os.Stderr, "  ablations  (all ablations)\n")
}
