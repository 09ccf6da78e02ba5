package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

// runTraced builds a cluster from cfg with a fresh trace recorder, deploys
// replicas of model, warms up, replays the requests reqs builds for the
// warmed cluster, checks invariants, and returns the report plus the Chrome
// trace bytes.
func runTraced(t *testing.T, cfg Config, model string, replicas int, reqs func(*Cluster) []Request) (*Report, []byte) {
	t.Helper()
	rec := trace.New()
	cfg.Trace = rec
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := dnn.ByName(model)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if err := c.Deploy(m, replicas); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	c.Warmup()
	rep, err := c.Run(reqs(c))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, rec, nil); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return rep, buf.Bytes()
}

// TestClusterDeterminism: two identical cold-heavy cluster runs produce a
// field-for-field identical report.
func TestClusterDeterminism(t *testing.T) {
	run := func() *Report {
		c := newBERTCluster(t, Config{Nodes: 2, Route: RouteLeastOutstanding, Telemetry: true}, 0)
		reqs := toCluster("BERT-Base", workload.Poisson(11, 120, 600, c.models["BERT-Base"].active))
		rep, err := c.Run(reqs)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical cluster runs diverged:\n%+v\n%+v", a, b)
	}
}

// rerunCase is one configuration of the rerun contract; long cases are
// skipped under -short.
type rerunCase struct {
	name string
	long bool
	run  func(*testing.T) (*Report, []byte)
}

// checkReruns runs every case twice, each time on a fresh cluster, and
// requires a field-for-field identical report and a byte-identical Chrome
// trace.
func checkReruns(t *testing.T, cases []rerunCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("16-node run in -short mode")
			}
			wantRep, wantTrace := tc.run(t)
			gotRep, gotTrace := tc.run(t)
			if !reflect.DeepEqual(wantRep, gotRep) {
				t.Fatalf("rerun report diverged:\nfirst: %+v\nrerun: %+v", wantRep, gotRep)
			}
			if !bytes.Equal(wantTrace, gotTrace) {
				t.Fatalf("rerun trace diverged (%d vs %d bytes)", len(wantTrace), len(gotTrace))
			}
		})
	}
}

// bertRun replays a BERT-Base Poisson workload on a cluster built from cfg.
func bertRun(cfg Config, replicas, requests int, rate float64) func(*testing.T) (*Report, []byte) {
	return func(t *testing.T) (*Report, []byte) {
		return runTraced(t, cfg, "bert-base", replicas, func(c *Cluster) []Request {
			return toCluster("BERT-Base", workload.Poisson(17, rate, requests, c.models["BERT-Base"].active))
		})
	}
}

// TestClusterRerunIdentical extends the determinism contract to the trace
// and to every routing policy, batching, telemetry, both autoscaling
// controllers, and a 16-node cluster, where MergeViews interleaves the most
// per-node trace buffers.
func TestClusterRerunIdentical(t *testing.T) {
	predictive := func(t *testing.T) (*Report, []byte) {
		// The run TestPredictivePrewarmsBeforeBursts pins: it prewarms,
		// sleeps and wakes replicas between bursts.
		cfg := Config{
			Nodes:       2,
			WindowWidth: 10 * sim.Second,
			Telemetry:   true,
			Autoscale:   AutoscaleConfig{Enabled: true, Interval: sim.Second, Policy: AutoscalePredictive},
		}
		rep, tr := runTraced(t, cfg, "bert-base", 16, func(*Cluster) []Request {
			return burstTrain("BERT-Base", 6, 300, 5*sim.Second, 500*sim.Millisecond, 16)
		})
		if rep.Prewarms == 0 {
			t.Fatal("test premise broken: no prewarms")
		}
		return rep, tr
	}
	checkReruns(t, []rerunCase{
		{"round-robin-2", false, bertRun(Config{Nodes: 2, Route: RouteRoundRobin}, 24, 400, 120)},
		{"least-outstanding-4", false, bertRun(Config{Nodes: 4, Route: RouteLeastOutstanding, Telemetry: true}, 24, 400, 120)},
		{"affinity-4", false, bertRun(Config{Nodes: 4, Route: RouteAffinity}, 24, 400, 120)},
		{"single-node", false, bertRun(Config{Nodes: 1}, 24, 400, 120)},
		{"batching-2", false, bertRun(Config{Nodes: 2, MaxBatch: 4}, 24, 400, 120)},
		{"autoscale-4", false, bertRun(Config{
			Nodes:       4,
			WindowWidth: 10 * sim.Second,
			Autoscale:   AutoscaleConfig{Enabled: true, Interval: sim.Second},
			Telemetry:   true,
		}, 24, 400, 120)},
		{"pipeswitch-2", false, bertRun(Config{Nodes: 2, Policy: serving.PolicyPipeSwitch}, 24, 400, 120)},
		{"predictive-2", false, predictive},
		{"sixteen-nodes", true, bertRun(Config{Nodes: 16, Route: RouteLeastOutstanding, Telemetry: true}, 12, 600, 200)},
	})
}

// TestClusterRerunIdenticalLLM is the rerun contract on the decode path:
// continuous and static batching, prefill/decode disaggregation, faults
// mid-decode, and 16 nodes decoding at once.
func TestClusterRerunIdenticalLLM(t *testing.T) {
	faultSched, err := faults.Parse("gpu=1@30ms+150ms")
	if err != nil {
		t.Fatal(err)
	}
	llm := func(cfg Config, requests int, rate float64) func(*testing.T) (*Report, []byte) {
		return func(t *testing.T) (*Report, []byte) { return llmRunOnce(t, cfg, 12, requests, rate) }
	}
	checkReruns(t, []rerunCase{
		{"continuous-4", false, llm(Config{Nodes: 4,
			LLM: serving.LLMConfig{Enabled: true, TokenBudget: 8}}, 300, 150)},
		{"static-2", false, llm(Config{Nodes: 2,
			LLM: serving.LLMConfig{Enabled: true, Batching: serving.LLMBatchStatic, TokenBudget: 8}}, 300, 150)},
		{"prefill-decode-4", false, llm(Config{Nodes: 4,
			LLM: serving.LLMConfig{Enabled: true, PrefillDecode: true}}, 300, 150)},
		{"faults-2", false, llm(Config{Nodes: 2, Faults: faultSched,
			LLM: serving.LLMConfig{Enabled: true, TokenBudget: 8}}, 300, 150)},
		{"sixteen-nodes", true, llm(Config{Nodes: 16, Route: RouteLeastOutstanding,
			LLM: serving.LLMConfig{Enabled: true, TokenBudget: 8}}, 400, 200)},
	})
}

// TestDeterminismAcrossInstances: two distinct affinity-routed cluster
// instances, each with its own simulator, agree on the report.
func TestDeterminismAcrossInstances(t *testing.T) {
	run := bertRun(Config{Nodes: 4, Route: RouteAffinity}, 16, 300, 100)
	a, _ := run(t)
	b, _ := run(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two cluster instances diverged:\n%+v\n%+v", a, b)
	}
}

// TestHorizonCoversNodeDrain: the report horizon runs to quiescence, past
// the last arrival, so it covers the nodes draining their queues.
func TestHorizonCoversNodeDrain(t *testing.T) {
	var last sim.Duration
	rep, _ := runTraced(t, Config{Nodes: 2}, "bert-base", 8, func(c *Cluster) []Request {
		reqs := toCluster("BERT-Base", workload.Poisson(17, 80, 100, c.models["BERT-Base"].active))
		last = reqs[len(reqs)-1].At.Sub(0)
		return reqs
	})
	if rep.Horizon <= last {
		t.Fatalf("horizon %v does not cover the drain after the last arrival at %v", rep.Horizon, last)
	}
	if rep.Requests != 100 {
		t.Fatalf("Requests = %d, want 100", rep.Requests)
	}
}

// TestRejectedRunLeavesClusterUsable: a run rejected for an unknown model
// schedules nothing, so the next run on the same cluster succeeds.
func TestRejectedRunLeavesClusterUsable(t *testing.T) {
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := c.Deploy(m, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run([]Request{{Model: "nope"}}); err == nil {
		t.Fatal("want unknown-model error")
	}
	if _, err := c.Run(toCluster("BERT-Base", workload.Poisson(3, 50, 50, 4))); err != nil {
		t.Fatalf("cluster unusable after rejected run: %v", err)
	}
}
