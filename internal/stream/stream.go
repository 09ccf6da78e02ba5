// Package stream provides CUDA-like streams and events on top of the
// discrete-event simulator.
//
// A Stream executes submitted tasks strictly in order; a task may complete
// asynchronously (e.g. when a simnet flow finishes). Events reproduce the
// cudaEventRecord / cudaStreamWaitEvent synchronization the paper's engine
// uses to couple its load, migration, and execution streams (§4.3.4).
//
// A stream runs three task forms: a Handler (SubmitHandler) or Task closure
// (Submit), Record and Wait. The package sits on the serving hot path —
// every inference submits a handful of tasks per layer — so the queue
// machinery is allocation-free in steady state: the task queue is a reusable
// ring, Record and Wait are tagged entries rather than closures, each
// stream's completion callback is allocated once at construction, and an
// event's first waiter is stored inline instead of growing a slice. Callers
// that issue many tasks from one long-lived object submit it as a Handler
// instead of a fresh Task closure, and can hold their Events by value.
package stream

import (
	"deepplan/internal/sim"
)

// Event is a one-shot synchronization point, analogous to a CUDA event.
// It fires when a stream reaches the Record task that owns it. The zero
// value is an unfired event, so Events can be held by value.
type Event struct {
	fired   bool
	firedAt sim.Time
	// waiter0 inlines the common single-waiter case; waiters carries any
	// overflow in registration order.
	waiter0 func()
	waiters []func()
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// FiredAt returns the instant the event fired; valid only if Fired.
func (e *Event) FiredAt() sim.Time { return e.firedAt }

// OnFire registers fn to run when the event fires. If the event already
// fired, fn runs immediately.
func (e *Event) OnFire(fn func()) {
	if e.fired {
		fn()
		return
	}
	if e.waiter0 == nil {
		e.waiter0 = fn
		return
	}
	e.waiters = append(e.waiters, fn)
}

// fire marks the event fired at the given instant and runs its waiters.
// Firing twice is a no-op.
func (e *Event) fire(at sim.Time) {
	if e.fired {
		return
	}
	e.fired = true
	e.firedAt = at
	w0, ws := e.waiter0, e.waiters
	e.waiter0, e.waiters = nil, nil
	if w0 != nil {
		w0()
	}
	for _, w := range ws {
		w()
	}
}

// Task is a unit of in-order stream work. The task begins when the stream
// reaches it and must call done exactly once (synchronously or later) to let
// the stream advance.
type Task func(done func())

// Start runs the task; it makes Task a Handler.
func (t Task) Start(done func()) { t(done) }

// Handler is the one-method form of a Task: Start begins the work when the
// stream reaches it and must arrange for done to be called exactly once.
type Handler interface {
	Start(done func())
}

// Task kinds. kindTask runs a caller-provided Handler; Record and Wait are
// interpreted by the stream loop directly so they never allocate a closure
// per call.
type taskKind uint8

const (
	kindTask taskKind = iota
	kindRecord
	kindWait
)

// queued is one ring entry. Its payload shares one field, which keeps the
// entry at 40 bytes: a stream's ring holds its high-water mark of queued
// tasks for the life of the simulation.
type queued struct {
	name string
	kind taskKind
	arg  any // Handler (kindTask), *Event (kindRecord, kindWait)
}

// Stream executes tasks in FIFO order, one at a time.
type Stream struct {
	sim     *sim.Simulator
	name    string
	queue   []queued
	head    int // index of the next task to start; queue[:head] is spent
	running bool
	// done is the completion callback handed to every task, allocated once.
	// curName and completed track the task it currently belongs to.
	done      func()
	curName   string
	completed bool
}

// New returns an idle stream driven by s.
func New(s *sim.Simulator, name string) *Stream {
	st := &Stream{sim: s, name: name}
	st.done = st.complete
	return st
}

// Idle reports whether the stream has no running or queued work.
func (st *Stream) Idle() bool { return !st.running && st.head == len(st.queue) }

// push appends an entry and starts it immediately if the stream is idle.
func (st *Stream) push(q queued) {
	st.queue = append(st.queue, q)
	if !st.running {
		st.advance()
	}
}

// Submit enqueues a task.
func (st *Stream) Submit(name string, run Task) {
	st.SubmitHandler(name, run)
}

// SubmitHandler enqueues h as a task: h.Start runs when the stream reaches
// it, exactly as a Task submitted at the same point would.
func (st *Stream) SubmitHandler(name string, h Handler) {
	st.push(queued{name: name, kind: kindTask, arg: h})
}

// complete is the shared completion callback: it finishes the task the
// stream is currently running and advances to the next. Completing the same
// task twice is the classic stream-corruption bug, so it panics while the
// task is still current (a stale second call after the stream has moved on
// to other asynchronous work is indistinguishable from a fresh completion
// and corrupts ordering — callers must call done exactly once).
func (st *Stream) complete() {
	if st.completed {
		panic("stream: task " + st.curName + " on " + st.name + " completed twice")
	}
	st.completed = true
	st.advance()
}

// advance starts queued tasks until one completes asynchronously (or the
// queue drains). Record and Wait are interpreted inline, so chains of them
// run iteratively rather than recursing through a completion callback per
// task.
func (st *Stream) advance() {
	for {
		if st.head == len(st.queue) {
			// Drained: recycle the ring in place.
			st.queue = st.queue[:0]
			st.head = 0
			st.running = false
			return
		}
		next := &st.queue[st.head]
		st.head++
		st.running = true
		kind := next.kind
		switch kind {
		case kindRecord:
			ev := next.arg.(*Event)
			*next = queued{}
			ev.fire(st.sim.Now())
		case kindWait:
			ev := next.arg.(*Event)
			*next = queued{}
			if ev.fired {
				continue
			}
			st.curName, st.completed = "wait", false
			ev.OnFire(st.done)
			return
		default: // kindTask
			st.curName, st.completed = next.name, false
			run := next.arg.(Handler)
			*next = queued{}
			run.Start(st.done)
			return
		}
	}
}

// Record enqueues a task that fires e when the stream reaches it,
// mirroring cudaEventRecord.
func (st *Stream) Record(e *Event) {
	st.push(queued{name: "record", kind: kindRecord, arg: e})
}

// Wait enqueues a task that blocks the stream until e fires, mirroring
// cudaStreamWaitEvent. If e already fired the stream passes through without
// consuming time.
func (st *Stream) Wait(e *Event) {
	st.push(queued{name: "wait", kind: kindWait, arg: e})
}
