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
