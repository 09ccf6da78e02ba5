// Package sim provides a deterministic discrete-event simulation engine.
//
// All hardware substrates in this repository (PCIe/NVLink transfers, GPU
// streams, the serving system) are driven by a single Simulator instance.
// Time is virtual: scheduling an event never blocks, and Run advances the
// clock from event to event. Two events scheduled for the same instant fire
// in submission order, which makes every simulation in this repository fully
// deterministic and therefore testable.
//
// Pending events sit in a hand-written 4-ary min-heap ordered by (instant,
// submission sequence), compared directly rather than through
// container/heap's interface, and fired events are recycled through a
// bounded free list, so scheduling, firing and cancelling allocate nothing
// in steady state.
package sim

import (
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

// maxFree bounds the recycled-event free list. Steady-state demand is the
// number of events pending at once apart from pre-scheduled arrivals, which
// stays in the hundreds even on the busiest serving runs.
const maxFree = 1024

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call New.
type Simulator struct {
	now    Time
	events []*Event // 4-ary min-heap ordered by (at, seq)
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
	s.events = append(s.events, nil)
	s.siftUp(e, len(s.events)-1)
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
	s.remove(e.index)
	s.recycle(e)
}

// Step fires the earliest pending event and advances the clock to it.
// It reports whether an event was fired.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.events[0]
	s.remove(0)
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

// The pending events form a 4-ary min-heap on (at, seq): the children of
// slot i are 4i+1 … 4i+4. A 4-ary heap is half as deep as a binary one, and
// the four siblings it compares on the way down sit next to each other in
// the backing array. Each event keeps its slot in index so Cancel can
// remove it directly. Both sifts move a hole rather than swapping: each
// displaced event is written once, and the moving event only at its final
// slot.

// before reports whether a fires before b: earlier instant first, then
// submission order. seq is unique, so this is a strict total order and the
// firing sequence does not depend on the heap's shape.
func before(a, b *Event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// siftUp moves e from the hole at slot i towards the root until its parent
// fires before it, then stores it there.
func (s *Simulator) siftUp(e *Event, i int) {
	h := s.events
	for i > 0 {
		p := (i - 1) / 4
		q := h[p]
		if !before(e, q) {
			break
		}
		h[i], q.index = q, i
		i = p
	}
	h[i], e.index = e, i
}

// siftDown moves e from the hole at slot i towards the leaves until it fires
// before all of its children, then stores it there.
func (s *Simulator) siftDown(e *Event, i int) {
	h := s.events
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if before(h[j], h[m]) {
				m = j
			}
		}
		q := h[m]
		if !before(q, e) {
			break
		}
		h[i], q.index = q, i
		i = m
	}
	h[i], e.index = e, i
}

// remove takes the event at slot i out of the heap and marks it unqueued.
// The last event fills the hole and sifts whichever way restores order.
func (s *Simulator) remove(i int) {
	h := s.events
	e := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.events = h[:n]
	e.index = -1
	if i == n {
		return
	}
	if i > 0 && before(last, h[(i-1)/4]) {
		s.siftUp(last, i)
	} else {
		s.siftDown(last, i)
	}
}
