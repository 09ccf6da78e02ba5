package cluster

import (
	"reflect"
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/hostmem"
	"deepplan/internal/monitor"
	"deepplan/internal/registry"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/workload"
)

// counterSeries names the monitor family each Report counter is exported
// as. noSeries lists the counters deliberately exported nowhere but the
// Report. Together they must cover every serving.Counters field.
var (
	counterSeries = map[string]string{
		"ColdStarts":    "deepplan_cold_starts",
		"Relocations":   "deepplan_relocations",
		"Evictions":     "deepplan_evictions",
		"Deferred":      "deepplan_deferred",
		"Sleeps":        "deepplan_sleeps",
		"Wakes":         "deepplan_wakes",
		"Prewarms":      "deepplan_prewarms",
		"SwapIns":       "deepplan_swap_ins",
		"HostFetches":   "deepplan_host_fetches",
		"HostEvictions": "deepplan_host_evictions",
		"Shed":          monitor.MetricShed,
		"Retried":       "deepplan_retried",
		"GPUFailures":   "deepplan_gpu_failures",
	}
	noSeries = []string{
		"PTFallbacks", "BatchedRuns", "BatchedRequests", "SwapOuts",
		"HostHits", "HostMisses", "Degraded",
		"TokensGenerated", "DecodeIters", "DecodeSeqSum", "KVDeferred", "KVTransfers",
	}
)

// TestReportMatchesExports checks that a cluster Report, its OpenMetrics
// counters and the telemetry columns of its Windows are views of one event
// stream: on three runs that exercise most counters, every Report counter
// with a monitor series equals that series' cluster-wide total, and the
// telemetry column sums equal the Report.
func TestReportMatchesExports(t *testing.T) {
	ft := reflect.TypeOf(serving.Counters{})
	covered := map[string]bool{}
	for _, f := range noSeries {
		covered[f] = true
	}
	for f := range counterSeries {
		if covered[f] {
			t.Fatalf("%s is listed both with and without a series", f)
		}
		covered[f] = true
	}
	for i := 0; i < ft.NumField(); i++ {
		if name := ft.Field(i).Name; !covered[name] {
			t.Errorf("Counters.%s is neither mapped to a series nor listed as having none", name)
		}
	}
	if len(covered) != ft.NumField() {
		t.Errorf("%d counters listed, Counters has %d fields", len(covered), ft.NumField())
	}

	sched, err := faults.Parse(monitorFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	gpt2 := func(c *Cluster, seed int64, requests int, rate float64) []Request {
		m := c.models["GPT-2"]
		base := workload.WithTokens(workload.Poisson(seed, rate, requests, len(m.insts)), seed, 192, 24)
		reqs := make([]Request, len(base))
		for i, r := range base {
			reqs[i] = Request{At: r.At, Model: "GPT-2", Key: r.Instance,
				PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
		}
		return reqs
	}
	deployGPT2 := func(replicas int) func(*testing.T, *Cluster) {
		return func(t *testing.T, c *Cluster) {
			m, err := dnn.ByName("gpt2")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Deploy(m, replicas); err != nil {
				t.Fatal(err)
			}
		}
	}
	zoo, err := registry.New(registry.Spec{N: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		deploy  func(*testing.T, *Cluster)
		reqs    func(*Cluster) []Request
		nonzero []string // counters the run must exercise
	}{
		{
			name: "zoo-faults-admit",
			cfg: Config{Nodes: 2, Route: RouteAffinity, Faults: sched, AdmitFactor: 3,
				Pack: serving.PackDense, HostPolicy: hostmem.PolicyCostAware, HostMemory: 16e9},
			deploy: func(t *testing.T, c *Cluster) {
				if err := c.DeployZoo(zoo); err != nil {
					t.Fatal(err)
				}
			},
			reqs: func(*Cluster) []Request { return ZooRequests(zoo, zoo.Requests(42, 300, 1500)) },
			nonzero: []string{"Shed", "Relocations", "Retried", "GPUFailures", "Evictions",
				"HostFetches", "HostEvictions", "Degraded"},
		},
		{
			name: "predictive-gpt2-cost-cache",
			cfg: Config{Nodes: 2, MaxBatch: 4,
				HostPolicy: hostmem.PolicyCostAware, HostMemory: 4e9,
				Autoscale: AutoscaleConfig{Enabled: true, Interval: sim.Second, Policy: AutoscalePredictive}},
			deploy: deployGPT2(24),
			reqs: func(*Cluster) []Request {
				return burstTrain("GPT-2", 8, 300, 5*sim.Second, 500*sim.Millisecond, 24)
			},
			nonzero: []string{"Deferred", "SwapIns", "HostEvictions", "Sleeps", "Wakes", "Prewarms"},
		},
		{
			name: "llm-prefill-decode-faults",
			cfg: Config{Nodes: 2, Faults: sched,
				LLM: serving.LLMConfig{Enabled: true, PrefillDecode: true}},
			deploy:  deployGPT2(24),
			reqs:    func(c *Cluster) []Request { return gpt2(c, 17, 600, 150) },
			nonzero: []string{"Retried", "GPUFailures", "TokensGenerated", "KVTransfers"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := monitor.New()
			cfg := tc.cfg
			cfg.Monitor, cfg.Telemetry = reg, true
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.deploy(t, c)
			c.Warmup()
			rep, err := c.Run(tc.reqs(c))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			counters := reflect.ValueOf(rep.Counters)
			for _, f := range tc.nonzero {
				if counters.FieldByName(f).Int() == 0 {
					t.Errorf("test premise broken: %s is zero", f)
				}
			}
			for f, family := range counterSeries {
				if got, want := reg.Total(family), float64(counters.FieldByName(f).Int()); got != want {
					t.Errorf("%s = %v but %s totals %v", f, want, family, got)
				}
			}
			if got := reg.Total(monitor.MetricArrivals); got != float64(rep.Requests) {
				t.Errorf("Requests = %d but %s totals %v", rep.Requests, monitor.MetricArrivals, got)
			}
			// In LLM mode the request counters count first tokens, and a
			// request shed during decode already had its first token.
			if got, want := reg.Total(monitor.MetricRequests), float64(rep.Requests-rep.Shed); !cfg.LLM.Enabled && got != want {
				t.Errorf("completed = %v but %s totals %v", want, monitor.MetricRequests, got)
			}

			// The telemetry columns that have a Report counterpart.
			var sum [7]int
			for _, w := range c.Windows() {
				for i, v := range [7]int{w.Arrivals, w.ColdLaunches, w.Evictions, w.Relocations,
					w.Deferred, w.Shed, w.Retried} {
					sum[i] += v
				}
			}
			want := [7]int{rep.Requests, rep.ColdStarts, rep.Evictions, rep.Relocations,
				rep.Deferred, rep.Shed, rep.Retried}
			if sum != want {
				t.Errorf("telemetry columns sum to %v (arrivals, cold launches, evictions, relocations, deferred, shed, retried), report says %v",
					sum, want)
			}
		})
	}
}
