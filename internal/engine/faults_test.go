package engine

import (
	"testing"

	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
)

// engineFixture builds an engine over a fresh substrate.
func engineFixture(t *testing.T, name string) (*fixture, *sim.Simulator, *Engine) {
	t.Helper()
	f := fix(t, name)
	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
	return f, s, e
}

func TestFailGPUAbortsColdRunMidLoad(t *testing.T) {
	f, s, e := engineFixture(t, "bert-base")
	var res *Result
	err := e.Start(Spec{
		Model: f.model, Plan: f.pl.PlanPipeSwitch(f.prof), Primary: 1,
		OnDone: func(r *Result) { res = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	// BERT-Base cold loads take tens of milliseconds; fail 5 ms in.
	s.At(sim.Time(5*sim.Millisecond), func() { e.FailGPU(1) })
	s.Run()
	if res == nil {
		t.Fatal("OnDone never fired for the aborted run")
	}
	if !res.Aborted {
		t.Fatal("run on the failed GPU completed normally")
	}
	if res.Finish != sim.Time(5*sim.Millisecond) {
		t.Fatalf("abort finished at %v, want the failure instant 5ms", res.Finish)
	}
	if !e.ExecIdle(1) {
		t.Fatal("failed GPU's exec stream did not drain")
	}
	if !e.GPUFailed(1) {
		t.Fatal("GPUFailed(1) = false after FailGPU")
	}
}

func TestFailSecondaryAbortsParallelRunAndPrimaryDrains(t *testing.T) {
	f, s, e := engineFixture(t, "bert-base")
	p := f.pl.PlanPTDHA(f.prof, 2)
	if p.NumParts != 2 {
		t.Skip("model does not plan to two partitions")
	}
	var res *Result
	err := e.Start(Spec{
		Model: f.model, Plan: p, Primary: 0, Secondaries: []int{2},
		OnDone: func(r *Result) { res = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.At(sim.Time(2*sim.Millisecond), func() { e.FailGPU(2) })
	s.Run()
	if res == nil || !res.Aborted {
		t.Fatal("run using the failed secondary did not abort")
	}
	if !e.ExecIdle(0) {
		t.Fatal("primary exec stream did not drain after the secondary failed")
	}
	// The surviving primary must accept and complete new work.
	var again *Result
	if err := e.Start(Spec{
		Model: f.model, Plan: f.pl.PlanDHA(f.prof), Primary: 0,
		OnDone: func(r *Result) { again = r },
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if again == nil || again.Aborted {
		t.Fatal("post-failure run on the surviving GPU did not complete")
	}
}

func TestFailGPUAbortsWarmRun(t *testing.T) {
	f, s, e := engineFixture(t, "bert-base")
	var res *Result
	if err := e.Start(Spec{
		Model: f.model, Plan: f.pl.PlanDHA(f.prof), Primary: 3, Warm: true,
		OnDone: func(r *Result) { res = r },
	}); err != nil {
		t.Fatal(err)
	}
	s.At(sim.Time(sim.Millisecond), func() { e.FailGPU(3) })
	s.Run()
	if res == nil || !res.Aborted {
		t.Fatal("warm run on the failed GPU did not abort")
	}
	if !e.ExecIdle(3) {
		t.Fatal("streams did not drain")
	}
}

func TestStartRejectsFailedGPUUntilRecovery(t *testing.T) {
	f, s, e := engineFixture(t, "bert-base")
	e.FailGPU(1)
	spec := Spec{Model: f.model, Plan: f.pl.PlanDHA(f.prof), Primary: 1}
	if err := e.Start(spec); err == nil {
		t.Fatal("Start accepted a failed primary")
	}
	pt := f.pl.PlanPTDHA(f.prof, 2)
	if pt.NumParts == 2 {
		if err := e.Start(Spec{
			Model: f.model, Plan: pt, Primary: 0, Secondaries: []int{1},
		}); err == nil {
			t.Fatal("Start accepted a failed secondary")
		}
	}
	e.RecoverGPU(1)
	if e.GPUFailed(1) {
		t.Fatal("GPU still failed after recovery")
	}
	var res *Result
	spec.OnDone = func(r *Result) { res = r }
	if err := e.Start(spec); err != nil {
		t.Fatalf("Start after recovery: %v", err)
	}
	s.Run()
	if res == nil || res.Aborted {
		t.Fatal("run after recovery did not complete")
	}
}
