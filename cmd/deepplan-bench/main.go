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
	tracePath := flag.String("trace", "", "write a Chrome trace of the representative serving run (fig13/fig15 only)")
	metricsPath := flag.String("metrics", "", "write the representative run's OpenMetrics exposition (fig-slo only)")
	telemetry := flag.Bool("telemetry", false, "append per-window resource telemetry to fig13/fig15 output")
	zoo := flag.Int("zoo", 0, "fig-zoo: run a single zoo of exactly N variants instead of the size sweep")
	zooPolicy := flag.String("zoo-policy", "", "fig-zoo: host-cache policy (lru | cost); empty compares both")
	llm := flag.String("llm", "", "fig-llm: batching discipline (continuous | static); empty compares both")
	prefillDecode := flag.Bool("prefill-decode", false, "fig-llm: disaggregate prefill and decode GPUs")
	autoscalePolicy := flag.String("autoscale-policy", "", "fig-forecast: controller (reactive | predictive); empty compares both")
	flag.Parse()

	// Check every flag before the first experiment: a flag the experiment
	// does not read would be silently ignored, and a bad pin fail late.
	if (*tracePath != "" || *telemetry) && *exp != "fig13" && *exp != "fig15" {
		usage("-trace and -telemetry need -exp fig13 or -exp fig15")
	}
	if *metricsPath != "" && *exp != "fig-slo" {
		usage("-metrics needs -exp fig-slo")
	}
	pool := runtime.GOMAXPROCS(0)
	opts := experiments.Options{Quick: *quick, Workers: pool, TracePath: *tracePath, MetricsPath: *metricsPath,
		Telemetry: *telemetry, ZooN: *zoo, ZooPolicy: *zooPolicy,
		LLMBatching: *llm, PrefillDecode: *prefillDecode, AutoscalePolicy: *autoscalePolicy}
	if err := opts.Validate(); err != nil {
		usage(err.Error())
	}

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
