// deepplan-capacity is the SLO-driven capacity planner: it saturation-
// searches every cluster configuration in a grid (topology preset x node
// count x cold-start plan policy x autoscaling) for the maximum request
// rate it sustains inside the latency SLO, prices each configuration in
// dollars per hour, and prints the cost-vs-capacity Pareto frontier, the
// cheapest configuration sustaining -target-rps inside -budget, and the
// DeepPlan-vs-PipeSwitch capacity gap.
//
// Usage:
//
//	deepplan-capacity [-slo 300ms] [-target-rps 100] [-budget 15]
//	                  [-workload poisson|maf] [-skew 1.0]
//	                  [-autoscale [-autoscale-policy reactive|predictive]]
//	                  [-json] [-quick]
//	                  [-metrics out.prom]
//
// -autoscale adds autoscaled variants of every grid entry, one per replica
// controller (reactive and forecast-driven predictive, billed by
// replica-seconds); -autoscale-policy pins that axis to one controller.
//
// -metrics re-runs the recommended configuration at its sustained rate with
// the monitoring stack attached (dimensional registry + SLO burn-rate
// monitor) and writes the final OpenMetrics exposition to the given file;
// the confirmation's alert log goes to stderr. A recommendation that pages
// its own SLO monitor during confirmation is not a recommendation.
//
// Independent grid points saturate concurrently on a pool of GOMAXPROCS
// workers (GOMAXPROCS=1 runs them serially). Stdout is a pure function of
// the flags: the table (or, with -json, the plan document) is byte-identical
// for every pool size and across reruns.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"deepplan/internal/capacity"
	"deepplan/internal/cluster"
	"deepplan/internal/monitor"
	"deepplan/internal/sim"
)

func main() {
	full := capacity.SearchSpec{}.WithWindow(false)
	slo := flag.Duration("slo", 300*time.Millisecond, "latency SLO for cold and warm p99")
	targetRPS := flag.Int("target-rps", 100, "target sustained rate the recommendation must meet (0 disables)")
	budget := flag.Float64("budget", 0, "max $/hr for the recommendation (0 = unlimited)")
	goodput := flag.Float64("goodput", 0.95, "minimum fraction of requests inside the SLO")
	workloadKind := flag.String("workload", capacity.WorkloadPoisson, "arrival process: poisson or maf")
	skew := flag.Float64("skew", 0, "Zipf exponent for instance popularity (poisson only, 0 = uniform)")
	seed := flag.Int64("seed", 42, "workload seed")
	model := flag.String("model", "bert-base", "model deployed on every node")
	replicas := flag.Int("replicas", 150, "model replicas per node")
	window := flag.Duration("duration", time.Duration(full.Duration), "offered-load window per probe")
	maxRate := flag.Int("max-rate", full.MaxRate, "upper bound of the saturation search (rps)")
	step := flag.Int("step", full.Step, "saturation search resolution (rps)")
	autoscale := flag.Bool("autoscale", false, "also search autoscaled variants (replica-second billing)")
	autoscalePolicy := flag.String("autoscale-policy", "", "with -autoscale: pin the controller to reactive or predictive (empty searches both)")
	jsonOut := flag.Bool("json", false, "emit the plan as JSON instead of the table")
	quick := flag.Bool("quick", false, "shrink the search for a fast smoke pass")
	metricsPath := flag.String("metrics", "", "re-run the recommended configuration with full monitoring and write its OpenMetrics exposition here")
	zoo := flag.Int("zoo", 0, "plan for an N-variant model zoo instead of -model/-replicas (dense packing + host cache)")
	zooPolicy := flag.String("zoo-policy", "", "host-memory cache policy for -zoo: lru | cost (default lru)")
	flag.Parse()

	spec := capacity.SearchSpec{
		SLO:           sim.Duration(*slo),
		GoodputTarget: *goodput,
		Workload:      *workloadKind,
		Seed:          *seed,
		Skew:          *skew,
		Duration:      sim.Duration(*window),
		Model:         *model,
		Replicas:      *replicas,
		MinRate:       full.MinRate,
		MaxRate:       *maxRate,
		Step:          *step,
		Zoo:           *zoo,
		ZooPolicy:     *zooPolicy,
	}
	if *quick {
		// -quick fixes the search window; an explicit one would be ignored.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "duration", "max-rate", "step":
				usage("-%s has no effect with -quick", f.Name)
			}
		})
		spec = spec.WithWindow(true)
	}
	if *targetRPS < 0 {
		usage("-target-rps must not be negative, got %d", *targetRPS)
	}
	if !(*budget >= 0) {
		usage("-budget must be a non-negative $/hr, got %g", *budget)
	}
	if err := spec.Validate(); err != nil {
		usage("%v", err)
	}

	space := capacity.DefaultSpace()
	if *autoscale {
		// Each autoscaled grid entry is probed once per controller.
		space.Autoscale = []bool{false, true}
		space.AutoscalePolicies = []cluster.AutoscalePolicy{
			cluster.AutoscaleReactive, cluster.AutoscalePredictive,
		}
	}
	if *autoscalePolicy != "" {
		// Pin the controller axis to one algorithm; Sweep rejects an unknown
		// policy, a policy without -autoscale, and -zoo with -autoscale.
		space.AutoscalePolicies = []cluster.AutoscalePolicy{cluster.AutoscalePolicy(*autoscalePolicy)}
	}

	// The -metrics file is opened before the sweep, so a path that cannot be
	// written is a command-line error found before the first probe.
	var metricsFile *os.File
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			usage("%v", err)
		}
		metricsFile = f
	}

	results, err := capacity.Sweep(space, spec, capacity.DefaultPricing(), runtime.GOMAXPROCS(0))
	if err != nil {
		fail("%v", err)
	}
	plan := capacity.Analyze(spec, results, *targetRPS, *budget)
	if *jsonOut {
		if err := plan.WriteJSON(os.Stdout); err != nil {
			fail("%v", err)
		}
	} else {
		plan.WriteTable(os.Stdout)
	}

	// Confirmation pass: re-run the recommendation (or, with no feasible
	// recommendation, the frontier's best point) with full monitoring and
	// export the registry. The alert log goes to stderr so stdout stays a
	// pure function of the flags in both output modes.
	if metricsFile != nil {
		rec := plan.Recommendation
		if rec == nil {
			for i := range plan.Results {
				r := &plan.Results[i]
				if r.OnFrontier && (rec == nil || r.SustainedRPS > rec.SustainedRPS) {
					rec = r
				}
			}
		}
		if rec == nil {
			fail("-metrics: no configuration to confirm")
		}
		conf, err := capacity.Confirm(*rec, spec)
		if err != nil {
			fail("confirm: %v", err)
		}
		if err := conf.Registry.WriteOpenMetrics(metricsFile); err == nil {
			err = metricsFile.Close()
		} else {
			metricsFile.Close()
		}
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "[confirmation at %d rps: %s; OpenMetrics written to %s]\n",
			conf.Rate, describeAlerts(conf.Alerts), *metricsPath)
		for _, a := range conf.Alerts {
			fmt.Fprintf(os.Stderr, "  %s\n", a)
		}
	}
}

func describeAlerts(alerts []monitor.Alert) string {
	if len(alerts) == 0 {
		return "every error budget held"
	}
	return fmt.Sprintf("%d alert(s)", len(alerts))
}

// usage reports a command-line error and exits with status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deepplan-capacity: "+format+"\n", args...)
	os.Exit(2)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deepplan-capacity: "+format+"\n", args...)
	os.Exit(1)
}
