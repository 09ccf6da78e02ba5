// Package sim provides a deterministic discrete-event simulation engine.
//
// All hardware substrates in this repository (PCIe/NVLink transfers, GPU
// streams, the serving system) are driven by a single Simulator instance.
// Time is virtual: scheduling an event never blocks, and Run advances the
// clock from event to event. Two events scheduled for the same instant fire
// in submission order, which makes every simulation in this repository fully
// deterministic and therefore testable.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts directly
// to and from time.Duration.
type Duration = time.Duration

// Common durations, re-exported for call-site brevity.
const (
	Nanosecond  = Duration(1)
	Microsecond = 1000 * Nanosecond
	Millisecond = 1000 * Microsecond
	Second      = 1000 * Millisecond
)

// MaxTime is the largest representable instant.
const MaxTime = Time(math.MaxInt64)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds returns the instant as a float64 number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Microseconds returns the instant as a float64 number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// String formats the instant as a duration since the virtual epoch.
func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel it before it fires.
//
// Event objects are recycled: once an event has fired or been cancelled, the
// simulator may reuse the object for a later scheduling call. Retaining a
// pointer past that moment and calling Cancel or Scheduled on it observes the
// recycled event, so drop (or overwrite) the pointer when the event fires or
// immediately after cancelling it — exactly what every caller in this
// repository already does. Recycling is what keeps million-event serving
// traces from churning the garbage collector. The free list is bounded
// (maxFree), so a burst of pre-scheduled events — a whole arrival trace
// queued up front — is not kept alive for the rest of the run once it fires.
type Event struct {
	at    Time
	seq   uint64
	h     Handler
	index int // heap index, -1 when not queued
}

// Handler is the one-method form of an event callback. Long-lived objects
// that schedule many events (the engine's per-run op records) implement it
// so that scheduling allocates no closure; At and After wrap a plain func in
// the same form, so both share one queue path.
type Handler interface {
	// Fire runs when the event fires, with the clock at the event's instant.
	Fire()
}

// funcHandler adapts a plain callback to Handler. A func value is pointer
// shaped, so the conversion itself allocates nothing.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// At returns the instant the event is (or was) scheduled to fire.
func (e *Event) At() Time { return e.at }

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e.index >= 0 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// maxFree bounds the recycled-event free list. Steady-state demand is the
// number of events pending at once apart from pre-scheduled arrivals, which
// stays in the hundreds even on the busiest serving runs.
const maxFree = 1024

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call New.
type Simulator struct {
	now    Time
	events eventHeap
	seq    uint64
	fired  uint64
	free   []*Event // recycled Event objects (see Event)
}

// New returns a Simulator with the clock at zero and no pending events.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// EventsFired returns the number of events executed so far. It is useful for
// instrumentation and loop-bound assertions in tests.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending returns the number of events waiting to fire.
func (s *Simulator) Pending() int { return len(s.events) }

// At schedules fn to run at instant t. Scheduling in the past panics: it is
// always a logic error in the layers above, and silently reordering time
// would corrupt every timeline built on top of the simulator.
func (s *Simulator) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return s.AtHandler(t, funcHandler(fn))
}

// After schedules fn to run d from now. Negative d panics via At.
func (s *Simulator) After(d Duration, fn func()) *Event {
	return s.At(s.now.Add(d), fn)
}

// AtHandler schedules h.Fire to run at instant t, with the same ordering and
// past-time panic as At.
func (s *Simulator) AtHandler(t Time, h Handler) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if h == nil {
		panic("sim: nil event callback")
	}
	var e *Event
	if k := len(s.free) - 1; k >= 0 {
		e = s.free[k]
		s.free[k] = nil
		s.free = s.free[:k]
		e.at, e.seq, e.h, e.index = t, s.seq, h, -1
	} else {
		e = &Event{at: t, seq: s.seq, h: h, index: -1}
	}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// AfterHandler schedules h.Fire to run d from now.
func (s *Simulator) AfterHandler(d Duration, h Handler) *Event {
	return s.AtHandler(s.now.Add(d), h)
}

// Cancel removes a pending event and recycles it. Cancelling an event that
// already fired or was already cancelled is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&s.events, e.index)
	s.recycle(e)
}

// Step fires the earliest pending event and advances the clock to it.
// It reports whether an event was fired.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*Event)
	s.now = e.at
	s.fired++
	e.h.Fire()
	// Recycle after the callback so nothing scheduled inside it can alias
	// the event that is still conceptually "firing".
	s.recycle(e)
	return true
}

// recycle drops e's handler and returns it to the free list if there is
// room; otherwise e is left to the garbage collector.
func (s *Simulator) recycle(e *Event) {
	e.h = nil
	if len(s.free) < maxFree {
		s.free = append(s.free, e)
	}
}

// Run fires events until none remain.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
// Events scheduled for after t remain pending.
func (s *Simulator) RunUntil(t Time) {
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// AdvanceTo fires every event scheduled strictly before t, then sets the
// clock to t. Events at exactly t remain pending, which is the boundary a
// conservative parallel driver needs: an external event injected at t (with
// a fresh, higher sequence number) still fires before any internal event
// already pending at t would in a shared-clock run, because pre-scheduled
// external events always carry lower sequence numbers than runtime-scheduled
// internal ones. A t at or before Now fires nothing and leaves the clock
// unchanged.
func (s *Simulator) AdvanceTo(t Time) {
	for len(s.events) > 0 && s.events[0].at < t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// PeekTime returns the timestamp of the earliest pending event. ok is false
// when no events are pending.
func (s *Simulator) PeekTime() (t Time, ok bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}
