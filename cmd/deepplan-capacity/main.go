// deepplan-capacity is the SLO-driven capacity planner: it saturation-
// searches every cluster configuration in a grid (topology preset x node
// count x cold-start plan policy x batching x routing x autoscaling) for
// the maximum request rate it sustains inside the latency SLO, prices each
// configuration in dollars per hour, and prints the cost-vs-capacity Pareto
// frontier, the cheapest configuration sustaining -target-rps inside
// -budget, and the DeepPlan-vs-PipeSwitch capacity gap.
//
// Usage:
//
//	deepplan-capacity [-slo 300ms] [-target-rps 100] [-budget 15]
//	                  [-workload poisson|maf] [-skew 1.0]
//	                  [-autoscale [-autoscale-policy reactive|predictive]]
//	                  [-json] [-quick] [-parallel [-workers N]]
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
// Stdout is a pure function of the flags: the table (or, with -json, the
// plan document) is byte-identical serially, with -parallel, and across
// reruns. -parallel fans independent grid points across a worker pool.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"deepplan/internal/capacity"
	"deepplan/internal/cluster"
	"deepplan/internal/experiments/runner"
	"deepplan/internal/monitor"
	"deepplan/internal/sim"
)

func main() {
	slo := flag.Duration("slo", 300*time.Millisecond, "latency SLO for cold and warm p99")
	targetRPS := flag.Int("target-rps", 100, "target sustained rate the recommendation must meet (0 disables)")
	budget := flag.Float64("budget", 0, "max $/hr for the recommendation (0 = unlimited)")
	goodput := flag.Float64("goodput", 0.95, "minimum fraction of requests inside the SLO")
	workloadKind := flag.String("workload", capacity.WorkloadPoisson, "arrival process: poisson or maf")
	skew := flag.Float64("skew", 0, "Zipf exponent for instance popularity (poisson only, 0 = uniform)")
	seed := flag.Int64("seed", 42, "workload seed")
	model := flag.String("model", "bert-base", "model deployed on every node")
	replicas := flag.Int("replicas", 150, "model replicas per node")
	window := flag.Duration("duration", 6*time.Second, "offered-load window per probe")
	maxRate := flag.Int("max-rate", 640, "upper bound of the saturation search (rps)")
	step := flag.Int("step", 20, "saturation search resolution (rps)")
	autoscale := flag.Bool("autoscale", false, "also search autoscaled variants (replica-second billing)")
	autoscalePolicy := flag.String("autoscale-policy", "", "with -autoscale: pin the controller to reactive or predictive (empty searches both)")
	jsonOut := flag.Bool("json", false, "emit the plan as JSON instead of the table")
	quick := flag.Bool("quick", false, "shrink the search for a fast smoke pass")
	parallel := flag.Bool("parallel", false, "saturate independent grid points concurrently")
	workers := flag.Int("workers", 0, "worker pool size for -parallel (default GOMAXPROCS)")
	metricsPath := flag.String("metrics", "", "re-run the recommended configuration with full monitoring and write its OpenMetrics exposition here")
	zoo := flag.Int("zoo", 0, "plan for an N-variant model zoo instead of -model/-replicas (dense packing + host cache)")
	zooPolicy := flag.String("zoo-policy", "", "host-memory cache policy for -zoo: lru | cost (default lru)")
	flag.Parse()

	if err := checkFlags(*zoo, *autoscale, *autoscalePolicy); err != nil {
		fmt.Fprintf(os.Stderr, "deepplan-capacity: %v\n", err)
		os.Exit(1)
	}

	spec := capacity.SearchSpec{
		SLO:           sim.Duration(*slo),
		GoodputTarget: *goodput,
		Workload:      *workloadKind,
		Seed:          *seed,
		Skew:          *skew,
		Duration:      sim.Duration(*window),
		Model:         *model,
		Replicas:      *replicas,
		MaxRate:       *maxRate,
		Step:          *step,
		Zoo:           *zoo,
		ZooPolicy:     *zooPolicy,
	}
	if *quick {
		spec.Duration = 2 * sim.Second
		spec.MinRate = 20
		spec.MaxRate = 180
		spec.Step = 40
	}

	space := capacity.DefaultSpace()
	if *autoscale {
		space.Autoscale = []bool{false, true}
		// Each autoscaled grid entry is probed once per controller; -autoscale-policy
		// pins the list to a single algorithm.
		space.AutoscalePolicies = []cluster.AutoscalePolicy{
			cluster.AutoscaleReactive, cluster.AutoscalePredictive,
		}
		if *autoscalePolicy != "" {
			pol, err := cluster.ParseAutoscalePolicy(*autoscalePolicy)
			if err != nil {
				fmt.Fprintf(os.Stderr, "deepplan-capacity: %v\n", err)
				os.Exit(1)
			}
			space.AutoscalePolicies = []cluster.AutoscalePolicy{pol}
		}
	}

	pool := 1
	if *parallel {
		pool = runner.Workers(*workers)
	}

	results, err := capacity.Sweep(space, spec, capacity.DefaultPricing(), pool)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepplan-capacity: %v\n", err)
		os.Exit(1)
	}
	plan := capacity.Analyze(spec, results, *targetRPS, *budget)
	if *jsonOut {
		if err := plan.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "deepplan-capacity: %v\n", err)
			os.Exit(1)
		}
	} else {
		plan.WriteTable(os.Stdout)
	}

	// Confirmation pass: re-run the recommendation (or, with no feasible
	// recommendation, the frontier's best point) with full monitoring and
	// export the registry. The alert log goes to stderr so stdout stays a
	// pure function of the flags in both output modes.
	if *metricsPath != "" {
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
			fmt.Fprintln(os.Stderr, "deepplan-capacity: -metrics: no configuration to confirm")
			os.Exit(1)
		}
		conf, err := capacity.Confirm(*rec, spec, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepplan-capacity: confirm: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepplan-capacity: %v\n", err)
			os.Exit(1)
		}
		if err := conf.Registry.WriteOpenMetrics(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepplan-capacity: %v\n", err)
			os.Exit(1)
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

// checkFlags rejects flag combinations the planner cannot search: a zoo's
// tenants are fixed identities, so the autoscaled half of the grid would
// probe configurations that cannot exist, and an autoscale policy pins a
// controller that must actually be in the grid. Fail fast before the sweep
// instead of wasting the whole saturation search.
func checkFlags(zoo int, autoscale bool, autoscalePolicy string) error {
	if zoo > 0 && autoscale {
		return fmt.Errorf("-zoo tenants are fixed identities; the autoscaler does not apply (drop -autoscale)")
	}
	if _, err := cluster.ParseAutoscalePolicy(autoscalePolicy); err != nil {
		return err
	}
	if autoscalePolicy != "" && !autoscale {
		return fmt.Errorf("-autoscale-policy %s pins the autoscaled grid entries; it needs -autoscale", autoscalePolicy)
	}
	return nil
}
