package engine

import (
	"testing"

	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
)

// StartTask occupies the execution stream FIFO like any inference run: two
// tasks on one GPU serialize; tasks on different GPUs overlap.
func TestStartTaskSerializesPerGPU(t *testing.T) {
	f := fix(t, "bert-base")
	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
	var done []sim.Time
	for i := 0; i < 2; i++ {
		if err := e.StartTask(0, "decode", 5*sim.Millisecond, func(res *Result) {
			done = append(done, res.Finish)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var other sim.Time
	if err := e.StartTask(1, "decode", 5*sim.Millisecond, func(res *Result) {
		other = res.Finish
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
	if done[0] != sim.Time(5*sim.Millisecond) || done[1] != sim.Time(10*sim.Millisecond) {
		t.Fatalf("same-GPU tasks did not serialize: %v", done)
	}
	if other != sim.Time(5*sim.Millisecond) {
		t.Fatalf("cross-GPU task did not overlap: finished at %v", other)
	}
}

func TestStartTaskValidation(t *testing.T) {
	f := fix(t, "bert-base")
	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
	if err := e.StartTask(99, "decode", sim.Millisecond, nil); err == nil {
		t.Error("out-of-range GPU accepted")
	}
}

// FailGPU aborts an in-flight task (Aborted result, delivered at failure
// time) and rejects new tasks while the GPU is down.
func TestStartTaskAbortsOnGPUFailure(t *testing.T) {
	f := fix(t, "bert-base")
	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
	var res *Result
	if err := e.StartTask(0, "decode", 50*sim.Millisecond, func(r *Result) {
		res = r
	}); err != nil {
		t.Fatal(err)
	}
	s.At(sim.Time(10*sim.Millisecond), func() { e.FailGPU(0) })
	s.At(sim.Time(20*sim.Millisecond), func() {
		if err := e.StartTask(0, "decode", sim.Millisecond, nil); err == nil {
			t.Error("task accepted on a failed GPU")
		}
	})
	s.Run()
	if res == nil {
		t.Fatal("aborted task never delivered its result")
	}
	if !res.Aborted {
		t.Fatal("task result not marked aborted")
	}
	if res.Finish != sim.Time(10*sim.Millisecond) {
		t.Fatalf("abort delivered at %v, want the failure instant", res.Finish)
	}
}
