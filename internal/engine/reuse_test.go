package engine

import (
	"reflect"
	"testing"

	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
)

// shifted returns a copy of r with every instant moved d later. Load fields
// stay zero on layers that were not loaded.
func shifted(r *Result, d sim.Duration) *Result {
	c := r.Clone()
	c.Submitted = c.Submitted.Add(d)
	c.ExecBegin = c.ExecBegin.Add(d)
	c.Finish = c.Finish.Add(d)
	for i := range c.Timings {
		t := &c.Timings[i]
		t.ExecStart = t.ExecStart.Add(d)
		t.ExecDone = t.ExecDone.Add(d)
		if t.LoadDone > 0 {
			t.LoadStart = t.LoadStart.Add(d)
			t.LoadDone = t.LoadDone.Add(d)
			t.AvailAt = t.AvailAt.Add(d)
		}
	}
	return c
}

// A run on a reused state must be indistinguishable from the same run on a
// fresh engine. One engine runs, one after another, a BERT-Large PT+DHA cold
// start (sizing the state's slices), a BERT-Base warm run and a decode task
// (leaving the first run's fired events behind the slices' lengths), and a
// BERT-Base PT+DHA cold start, which reuses those events. It then runs that
// cold start at batch 4, 1 and 4 again, so the model's template serves a
// new cost table, an existing one and the new one reused. Each result,
// copied inside OnDone, must equal its fresh-engine reference shifted in
// time.
func TestReusedRunStateMatchesFreshEngine(t *testing.T) {
	large, base := fix(t, "bert-large"), fix(t, "bert-base")
	cold := func(f *fixture) Spec {
		return Spec{Model: f.model, Plan: f.pl.PlanPTDHA(f.prof, 2), Primary: 0, Secondaries: []int{2}}
	}
	batched := func(b int) Spec {
		spec := cold(base)
		spec.Batch = b
		return spec
	}
	warm := Spec{Model: base.model, Plan: base.pl.PlanPipeSwitch(base.prof), Primary: 0, Warm: true}
	const task = 3 * sim.Millisecond

	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: base.cost})
	var got *Result
	var first *runState
	keep := func(r *Result) { got = r.Clone() }
	for i, spec := range []Spec{cold(large), warm, {}, cold(base), batched(4), batched(1), batched(4)} {
		var want *Result
		got = nil
		if spec.Model == nil {
			ts := sim.New()
			te := New(Config{Sim: ts, Net: simnet.New(ts), Topo: topology.P38xlarge(), Cost: base.cost})
			if err := te.StartTask(0, "decode", task, func(r *Result) { want = r.Clone() }); err != nil {
				t.Fatal(err)
			}
			ts.Run()
			if err := e.StartTask(0, "decode", task, keep); err != nil {
				t.Fatal(err)
			}
		} else {
			var err error
			if want, err = RunOnce(topology.P38xlarge(), base.cost, spec); err != nil {
				t.Fatal(err)
			}
			spec.OnDone = keep
			if err := e.Start(spec); err != nil {
				t.Fatal(err)
			}
		}
		if rs := e.active[0]; first == nil {
			first = rs
		} else if rs != first {
			t.Fatalf("run %d did not reuse the first run's state", i)
		}
		s.Run()
		if got == nil || got.Aborted {
			t.Fatalf("run %d did not complete", i)
		}
		want = shifted(want, sim.Duration(got.Submitted))
		if len(got.Timings) != len(want.Timings) {
			t.Fatalf("run %d (%s) has %d layer timings, want %d", i, got.Model, len(got.Timings), len(want.Timings))
		}
		for j := range want.Timings {
			if got.Timings[j] != want.Timings[j] {
				t.Fatalf("run %d (%s) layer %d timing %+v, want %+v",
					i, got.Model, j, got.Timings[j], want.Timings[j])
			}
		}
		// A reused state hands a task an empty Timings slice, a fresh one nil.
		got.Timings, want.Timings = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%s) result %+v, want %+v", i, got.Model, *got, *want)
		}
	}
}

// After a burst of concurrent runs drains, the free list is back to one
// parked state, and no parked state keeps anything alive beyond its own
// slices: no callback, no secondaries, no op record's run, stream callback,
// timer or flow.
func TestFreeListBoundedAfterBurst(t *testing.T) {
	f := fix(t, "bert-base")
	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
	pt := f.pl.PlanPTDHA(f.prof, 2)
	warm := f.pl.PlanPipeSwitch(f.prof)
	done, peak := 0, 0
	onDone := func(r *Result) {
		if r.Aborted {
			t.Fatal("run aborted without a failure")
		}
		done++
		peak = max(peak, len(e.free))
	}
	specs := []Spec{
		{Model: f.model, Plan: pt, Primary: 0, Secondaries: []int{2}, OnDone: onDone},
		{Model: f.model, Plan: pt, Primary: 2, Secondaries: []int{0}, OnDone: onDone},
	}
	for _, g := range []int{1, 3, 1, 3} {
		specs = append(specs, Spec{Model: f.model, Plan: warm, Primary: g, Warm: true, OnDone: onDone})
	}
	for _, spec := range specs {
		if err := e.Start(spec); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 4; g++ {
		if err := e.StartTask(g, "decode", sim.Duration(g+1)*sim.Millisecond, onDone); err != nil {
			t.Fatal(err)
		}
	}
	runs := len(e.active)
	if runs < 8 {
		t.Fatalf("%d concurrent runs; want at least 8", runs)
	}
	s.Run()
	if done != runs {
		t.Fatalf("%d of %d runs completed", done, runs)
	}
	if peak < 2 {
		t.Fatalf("free list peaked at %d during the burst; the burst recycled nothing to trim", peak)
	}
	if len(e.free) > 1 {
		t.Fatalf("%d run states parked on an idle engine; want at most 1", len(e.free))
	}
	for _, rs := range e.free {
		if rs.onDone != nil || rs.Secondaries != nil || rs.tmpl != nil || rs.costs != nil {
			t.Fatal("parked run state keeps its callback, secondaries, template or cost table")
		}
		for i, o := range rs.ops[:cap(rs.ops)] {
			if o.rs != nil || o.done != nil || o.timer != nil || o.flow != nil {
				t.Fatalf("parked op record %d keeps a pointer: %+v", i, o)
			}
		}
	}
}
