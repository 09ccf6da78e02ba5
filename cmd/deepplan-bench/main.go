// deepplan-bench regenerates the paper's evaluation tables and figures on
// the simulated platform.
//
// Usage:
//
//	deepplan-bench -list
//	deepplan-bench -exp fig11
//	deepplan-bench -exp all [-quick]
//
// Independent experiments — and the independent sweep points inside the
// serving and batching sweeps — run concurrently on a pool of GOMAXPROCS
// workers, each simulation still single-threaded on its own sim.Simulator
// (GOMAXPROCS=1 runs them serially). The tables on stdout are byte-identical
// for every pool size; only wall-clock changes.
// Timing lines go to stderr, keeping stdout a pure function of the
// experiment set.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"deepplan/internal/experiments"
	"deepplan/internal/experiments/runner"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	quick := flag.Bool("quick", false, "shrink serving experiments for a fast pass")
	metricsPath := flag.String("metrics", "", "write the representative run's OpenMetrics exposition (fig-slo only)")
	telemetry := flag.Bool("telemetry", false, "append per-window resource telemetry to fig13/fig15 output")
	flag.Parse()

	// Check every flag before the first experiment: a flag the experiment
	// does not read would be silently ignored.
	if *telemetry && *exp != "fig13" && *exp != "fig15" {
		usage("-telemetry needs -exp fig13 or -exp fig15")
	}
	if *metricsPath != "" && *exp != "fig-slo" {
		usage("-metrics needs -exp fig-slo")
	}
	pool := runtime.GOMAXPROCS(0)
	opts := experiments.Options{Quick: *quick, Workers: pool, MetricsPath: *metricsPath, Telemetry: *telemetry}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var exps []experiments.Experiment
	if *exp == "all" {
		exps = experiments.All()
	} else {
		e, ok := experiments.ByID(*exp)
		if !ok {
			usage(fmt.Sprintf("unknown experiment %q; known: %v", *exp, experiments.IDs()))
		}
		exps = []experiments.Experiment{e}
	}

	units := make([]runner.Unit, len(exps))
	for i, e := range exps {
		e := e
		units[i] = runner.Unit{Label: e.ID, Run: func(w io.Writer) error {
			start := time.Now()
			if err := e.Run(w, opts); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintln(w)
			fmt.Fprintf(os.Stderr, "[%s completed in %s]\n", e.ID, time.Since(start).Round(time.Millisecond))
			return nil
		}}
	}
	start := time.Now()
	if err := runner.Execute(os.Stdout, pool, units); err != nil {
		fmt.Fprintf(os.Stderr, "deepplan-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[%d experiment(s) in %s, %d worker(s)]\n",
		len(units), time.Since(start).Round(time.Millisecond), pool)
}

// usage reports a command-line error and exits with status 2.
func usage(msg string) {
	fmt.Fprintf(os.Stderr, "deepplan-bench: %s\n", msg)
	os.Exit(2)
}
