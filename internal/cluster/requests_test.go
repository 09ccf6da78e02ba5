package cluster

import (
	"strings"
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/registry"
	"deepplan/internal/sim"
	"deepplan/internal/workload"
)

// TestRequestsAddressesDeployBlocks deploys a -mix-style three-model
// deployment (BERT-Base:3, RoBERTa-Base:2, GPT-2:1, instances 0-5) followed
// by a zoo (instances 6 on), and maps instance-addressed arrivals through
// Cluster.Requests: the first and last instance of each block land on its
// model at offsets 0 and count-1 with their tokens copied, while an
// out-of-range instance and a zoo tenant are refused, naming the arrival.
func TestRequestsAddressesDeployBlocks(t *testing.T) {
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name  string
		count int
	}{{"bert-base", 3}, {"roberta-base", 2}, {"gpt2", 1}} {
		m, err := dnn.ByName(d.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Deploy(m, d.count); err != nil {
			t.Fatal(err)
		}
	}
	z, err := registry.New(registry.Spec{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeployZoo(z); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		instance int
		model    string
		key      int
		err      string // substring of the expected error; "" maps
	}{
		{instance: 0, model: "BERT-Base", key: 0},
		{instance: 2, model: "BERT-Base", key: 2},
		{instance: 3, model: "RoBERTa-Base", key: 0},
		{instance: 4, model: "RoBERTa-Base", key: 1},
		{instance: 5, model: "GPT-2", key: 0},
		{instance: 6, err: "zoo shape"},
		{instance: 9, err: "zoo shape"},
		{instance: 10, err: "out of range"},
		{instance: -1, err: "out of range"},
	} {
		at := sim.Time(0).Add(sim.Duration(tc.instance+2) * sim.Millisecond)
		reqs := []workload.Request{
			{At: 0, Instance: 0},
			{At: at, Instance: tc.instance, PromptTokens: 17, OutputTokens: 5},
		}
		got, err := c.Requests(reqs)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) || !strings.Contains(err.Error(), "arrival 1 ") {
				t.Errorf("instance %d: err %v, want one naming arrival 1 and %q", tc.instance, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("instance %d: %v", tc.instance, err)
		}
		want := Request{At: at, Model: tc.model, Key: tc.key, PromptTokens: 17, OutputTokens: 5}
		if len(got) != 2 || got[1] != want {
			t.Errorf("instance %d: mapped to %+v, want %+v", tc.instance, got, want)
		}
	}
}

// TestInstanceTable deploys a model, a zoo and another model on three nodes
// and checks the router's one instance table: every model holds one id per
// replica, each id names an instance of that model (or of that shape) on
// every node, and the ids partition the nodes' instance range.
func TestInstanceTable(t *testing.T) {
	c, err := New(Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	bert, _ := dnn.ByName("bert-base")
	gpt2, _ := dnn.ByName("gpt2")
	z, err := registry.New(registry.Spec{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(bert, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.DeployZoo(z); err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(gpt2, 2); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{bert.Name: 3, gpt2.Name: 2}
	for _, v := range z.Variants {
		want[v.Model.Name]++
	}
	if len(c.models) != len(want) {
		t.Fatalf("%d models registered, want %d", len(c.models), len(want))
	}
	total := c.nodes[0].srv.NumInstances()
	seen := make([]bool, total)
	for name, replicas := range want {
		m := c.models[name]
		if m == nil {
			t.Fatalf("model %s not registered", name)
		}
		if len(m.insts) != replicas {
			t.Errorf("%s: %d instances in the table, want %d", name, len(m.insts), replicas)
		}
		for r, id := range m.insts {
			if id < 0 || id >= total || seen[id] {
				t.Fatalf("%s replica %d: id %d out of range or shared", name, r, id)
			}
			seen[id] = true
			for _, n := range c.nodes {
				if got := n.srv.Instances()[id].Model(); got != name {
					t.Errorf("node %d: %s replica %d is instance %d of %s", n.id, name, r, id, got)
				}
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Errorf("instance %d belongs to no model", id)
		}
	}
	for _, n := range c.nodes {
		if n.srv.NumInstances() != total {
			t.Errorf("node %d has %d instances, node 0 has %d", n.id, n.srv.NumInstances(), total)
		}
	}
}
