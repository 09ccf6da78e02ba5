package stream

import (
	"testing"

	"deepplan/internal/sim"
)

// delay submits a task that occupies st for d of virtual time.
func delay(s *sim.Simulator, st *Stream, name string, d sim.Duration) {
	st.Submit(name, func(done func()) { s.After(d, done) })
}

// mark submits an instantaneous task that runs fn when st reaches it.
func mark(st *Stream, name string, fn func()) {
	st.Submit(name, func(done func()) {
		fn()
		done()
	})
}

func TestTasksRunInOrder(t *testing.T) {
	s := sim.New()
	st := New(s, "exec")
	var got []int
	delay(s, st, "a", 10*sim.Nanosecond)
	mark(st, "mark1", func() { got = append(got, 1) })
	delay(s, st, "b", 10*sim.Nanosecond)
	mark(st, "mark2", func() { got = append(got, 2) })
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 20 {
		t.Fatalf("final time = %v, want 20ns", s.Now())
	}
	if !st.Idle() {
		t.Fatal("stream should be idle after Run")
	}
}

func TestEventRecordWait(t *testing.T) {
	s := sim.New()
	load := New(s, "load")
	exec := New(s, "exec")
	e := &Event{}
	var execAt sim.Time

	delay(s, load, "copy-layer", 10*sim.Millisecond)
	load.Record(e)
	exec.Wait(e)
	mark(exec, "run-layer", func() { execAt = s.Now() })
	s.Run()
	if execAt != sim.Time(10*sim.Millisecond) {
		t.Fatalf("exec ran at %v, want 10ms", execAt)
	}
	if !e.Fired() || e.FiredAt() != sim.Time(10*sim.Millisecond) {
		t.Fatalf("event fired=%v at=%v", e.Fired(), e.FiredAt())
	}
}

func TestWaitOnAlreadyFiredEventPassesThrough(t *testing.T) {
	s := sim.New()
	a := New(s, "a")
	b := New(s, "b")
	e := &Event{}
	a.Record(e)
	s.Run()
	var at sim.Time = -1
	b.Wait(e)
	mark(b, "x", func() { at = s.Now() })
	s.Run()
	if at != 0 {
		t.Fatalf("pass-through wait consumed time: %v", at)
	}
}

func TestOnFireAfterFiredRunsImmediately(t *testing.T) {
	e := &Event{}
	e.fire(5)
	ran := false
	e.OnFire(func() { ran = true })
	if !ran {
		t.Fatal("OnFire on fired event did not run immediately")
	}
}

func TestDoubleFireIsNoop(t *testing.T) {
	e := &Event{}
	n := 0
	e.OnFire(func() { n++ })
	e.fire(1)
	e.fire(2)
	if n != 1 {
		t.Fatalf("waiter ran %d times", n)
	}
	if e.FiredAt() != 1 {
		t.Fatalf("FiredAt = %v, want 1", e.FiredAt())
	}
}

func TestDoubleDonePanics(t *testing.T) {
	s := sim.New()
	st := New(s, "bad")
	defer func() {
		if recover() == nil {
			t.Fatal("double done did not panic")
		}
	}()
	st.Submit("t", func(done func()) {
		done()
		done()
	})
	s.Run()
}

func TestAsyncTaskCompletion(t *testing.T) {
	s := sim.New()
	st := New(s, "x")
	var order []string
	st.Submit("async", func(done func()) {
		s.After(7*sim.Millisecond, func() {
			order = append(order, "async")
			done()
		})
	})
	mark(st, "next", func() { order = append(order, "next") })
	if len(order) != 0 || st.Idle() {
		t.Fatalf("before Run: order = %v, idle = %v; want the async task running and next queued", order, st.Idle())
	}
	s.Run()
	if len(order) != 2 || order[0] != "async" || order[1] != "next" {
		t.Fatalf("order = %v", order)
	}
}

func TestPipelinedLoadExecPattern(t *testing.T) {
	// The paper's pipelining: load layer i while executing layer i-1.
	// Three layers, each loads in 10ms and executes in 4ms: exec of layer i
	// starts at load-done(i) since loading is the bottleneck. Total =
	// 30ms + 4ms tail.
	s := sim.New()
	load := New(s, "load")
	exec := New(s, "exec")
	var finish sim.Time
	for i := 0; i < 3; i++ {
		e := &Event{}
		delay(s, load, "copy", 10*sim.Millisecond)
		load.Record(e)
		exec.Wait(e)
		delay(s, exec, "run", 4*sim.Millisecond)
	}
	mark(exec, "fin", func() { finish = s.Now() })
	s.Run()
	if finish != sim.Time(34*sim.Millisecond) {
		t.Fatalf("pipelined finish = %v, want 34ms", finish)
	}
}
