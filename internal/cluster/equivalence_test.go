package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/hostmem"
	"deepplan/internal/registry"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

// deployer is the deployment surface a serving.Server and a Cluster share.
type deployer interface {
	Deploy(*dnn.Model, int) error
	DeployZoo(*registry.Zoo) error
}

// equivWorkload is one deployment plus the arrivals that drive it, in the
// bare server's instance addressing and in the cluster's (model, key) form.
type equivWorkload struct {
	name    string
	llm     serving.LLMConfig
	zoo     bool
	deploy  func(d deployer) error
	reqs    []workload.Request
	cluster []Request
}

// equivFaults is a schedule that strikes inside every workload's horizon:
// a GPU failure, a degraded PCIe lane and straggling copies.
const equivFaults = "gpu=1@400ms+1s; link=gpu0-lane*0.4@200ms+2s; straggler=copy/3@1s+1s"

// equivWorkloads builds the workload dimension of the equivalence
// cross-product: one model past warm capacity, a host-cached zoo, LLM
// decode with and without prefill/decode disaggregation, and a
// multi-model MAF replay addressed the way deepplan-server's -mix does it.
func equivWorkloads(t *testing.T) []equivWorkload {
	t.Helper()
	model := func(name string) *dnn.Model {
		m, err := dnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	bert, gpt2 := model("bert-base"), model("gpt2")

	var out []equivWorkload
	poisson := workload.Poisson(7, 100, 300, 140)
	out = append(out, equivWorkload{
		name:    "bert",
		deploy:  func(d deployer) error { return d.Deploy(bert, 140) },
		reqs:    poisson,
		cluster: toCluster(bert.Name, poisson),
	})

	z, err := registry.New(registry.Spec{N: 40})
	if err != nil {
		t.Fatal(err)
	}
	zreqs := z.Requests(7, 100, 300)
	out = append(out, equivWorkload{
		name:    "zoo",
		zoo:     true,
		deploy:  func(d deployer) error { return d.DeployZoo(z) },
		reqs:    zreqs,
		cluster: ZooRequests(z, zreqs),
	})

	tokens := workload.WithTokens(workload.Poisson(7, 100, 200, 24), 7, 64, 16)
	var ctokens []Request
	for _, r := range tokens {
		ctokens = append(ctokens, Request{At: r.At, Model: gpt2.Name, Key: r.Instance,
			PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens})
	}
	for _, llm := range []serving.LLMConfig{
		{Enabled: true, Batching: serving.LLMBatchContinuous},
		{Enabled: true, Batching: serving.LLMBatchStatic, PrefillDecode: true},
	} {
		name := "llm-" + llm.Batching
		if llm.PrefillDecode {
			name += "-pd"
		}
		out = append(out, equivWorkload{
			name:    name,
			llm:     llm,
			deploy:  func(d deployer) error { return d.Deploy(gpt2, 24) },
			reqs:    tokens,
			cluster: ctokens,
		})
	}

	// MAF mix: instances are numbered in deploy order, so an arrival for
	// instance i belongs to the model whose block holds i and keys that
	// model's replica i - base.
	mix := []struct {
		m *dnn.Model
		n int
	}{{bert, 60}, {model("roberta-base"), 60}, {gpt2, 12}}
	total := 0
	for _, e := range mix {
		total += e.n
	}
	tr, err := workload.MAFLike(workload.TraceSpec{Seed: 7, Duration: 120 * sim.Second, TotalRate: 3, NumFunctions: total})
	if err != nil {
		t.Fatal(err)
	}
	var cmaf []Request
	for _, r := range tr.Requests {
		base := 0
		for _, e := range mix {
			if r.Instance < base+e.n {
				cmaf = append(cmaf, Request{At: r.At, Model: e.m.Name, Key: r.Instance - base})
				break
			}
			base += e.n
		}
	}
	out = append(out, equivWorkload{
		name: "maf-mix",
		deploy: func(d deployer) error {
			for _, e := range mix {
				if err := d.Deploy(e.m, e.n); err != nil {
					return err
				}
			}
			return nil
		},
		reqs:    tr.Requests,
		cluster: cmaf,
	})
	return out
}

// TestOneNodeClusterMatchesServer checks that a one-node cluster is a bare
// serving.Server: across policy × MaxBatch × faults × admission × workload,
// the cluster report's Summary (percentiles, goodput, counters, host and
// packing totals, LLM rates, telemetry) equals the server's, and so do
// their per-window latency stats.
func TestOneNodeClusterMatchesServer(t *testing.T) {
	policies := []serving.Policy{serving.PolicyBaseline, serving.PolicyPipeSwitch, serving.PolicyDHA, serving.PolicyPTDHA}
	for _, w := range equivWorkloads(t) {
		for _, policy := range policies {
			for _, maxBatch := range []int{1, 4} {
				for _, faulted := range []bool{false, true} {
					for _, admit := range []float64{0, 2} {
						name := fmt.Sprintf("%s/%s/batch%d/faults=%v/admit%g", w.name, policy, maxBatch, faulted, admit)
						checkOneNode(t, name, w, policy, maxBatch, faulted, admit)
					}
				}
			}
		}
	}
}

func checkOneNode(t *testing.T, name string, w equivWorkload, policy serving.Policy, maxBatch int, faulted bool, admit float64) {
	t.Helper()
	schedule := func() *faults.Schedule {
		if !faulted {
			return nil
		}
		s, err := faults.Parse(equivFaults)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var hostPolicy hostmem.Policy
	var pack serving.PackMode
	var hostMemory int64
	if w.zoo {
		// Host memory below the zoo's footprint, so the cache fetches and
		// evicts.
		hostPolicy, pack, hostMemory = hostmem.PolicyLRU, serving.PackDense, 10e9
	}

	srv, err := serving.New(serving.Config{
		Topo: topology.P38xlarge(), Cost: costmodel.Default(), Policy: policy,
		MaxBatch: maxBatch, Faults: schedule(), AdmitFactor: admit, Telemetry: true,
		HostPolicy: hostPolicy, HostMemory: hostMemory, Pack: pack, LLM: w.llm,
	})
	if err != nil {
		t.Fatalf("%s: serving.New: %v", name, err)
	}
	c, err := New(Config{
		Nodes: 1, Policy: policy,
		MaxBatch: maxBatch, Faults: schedule(), AdmitFactor: admit, Telemetry: true,
		HostPolicy: hostPolicy, HostMemory: hostMemory, Pack: pack, LLM: w.llm,
	})
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	if err := w.deploy(srv); err != nil {
		t.Fatalf("%s: server deploy: %v", name, err)
	}
	if err := w.deploy(c); err != nil {
		t.Fatalf("%s: cluster deploy: %v", name, err)
	}
	if got, want := c.Warmup(), srv.Warmup(); got != want {
		t.Fatalf("%s: cluster warmed %d instances, server %d", name, got, want)
	}
	want, err := srv.Run(w.reqs)
	if err != nil {
		t.Fatalf("%s: server run: %v", name, err)
	}
	got, err := c.Run(w.cluster)
	if err != nil {
		t.Fatalf("%s: cluster run: %v", name, err)
	}

	if got.Policy != want.Policy {
		t.Errorf("%s: policy: cluster %v, server %v", name, got.Policy, want.Policy)
	}
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Errorf("%s: summary:\ncluster %+v\nserver  %+v", name, got.Summary, want.Summary)
	}
	if g, w := c.Windows(), serving.Windows(srv); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: windows:\ncluster %+v\nserver  %+v", name, g, w)
	}
	if len(got.PerNode) != 1 || got.PerNode[0].Routed != want.Requests {
		t.Errorf("%s: per-node %+v does not route all %d requests to node 0", name, got.PerNode, want.Requests)
	}
}
