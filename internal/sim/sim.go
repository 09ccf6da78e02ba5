// Package sim provides a deterministic discrete-event simulation engine.
//
// All hardware substrates in this repository (PCIe/NVLink transfers, GPU
// streams, the serving system) are driven by a single Simulator instance.
// Time is virtual: scheduling an event never blocks, and Run advances the
// clock from event to event. Two events scheduled for the same instant fire
// in submission order, which makes every simulation in this repository fully
// deterministic and therefore testable.
//
// Pending events sit in one of two sources that share one total order on
// (instant, submission sequence). An event scheduled outside any callback,
// at or after the last event already in the lane, joins the lane: a FIFO
// that is sorted by construction, which is where an arrival trace queued up
// front with one At call per arrival lands. Every other event goes into a
// hand-written 4-ary min-heap, compared directly rather than through
// container/heap's interface, so the events that callbacks schedule pay for
// the depth of what is in flight, not of the trace. Step fires the earlier
// of the two heads. Arrivals streams a sorted trace from one cursor instead:
// it reserves the trace's sequence numbers up front and keeps only the next
// arrival in the heap, so a trace costs one event and no closure per
// arrival. Fired events are recycled through a bounded free list, so
// scheduling, firing and cancelling allocate nothing in steady state.
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
// (maxFree), and a drained lane gives up a backing array longer than that,
// so an arrival trace queued up front with At is not kept alive for the rest
// of the run once it fires. A trace streamed through Arrivals never fills
// the lane: its arrivals are never handed out, and only the next one is
// queued.
//
// Cancelling a heap event takes it out of the heap and recycles it at once.
// Cancelling a lane event cannot take it out of the middle of the FIFO, so
// it leaves a tombstone: the handler is dropped, Scheduled reports false and
// Pending stops counting it at once, and Step recycles the object when it
// reaches it. Either way a second Cancel is a no-op.
type Event struct {
	at    Time
	seq   uint64
	h     Handler // nil once fired or cancelled
	index int     // heap slot, inLane in the lane, -1 when not queued
}

// inLane is the index of an event that waits in the lane rather than the
// heap. It is non-negative, so Scheduled needs no second test.
const inLane = math.MaxInt

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
// number of heap events pending at once, which stays in the hundreds even on
// the busiest serving runs; a pre-scheduled arrival trace sits in the lane
// and is recycled only as far as the list has room. maxFree also bounds the
// backing array a drained lane keeps: a trace-sized one is released, while a
// short one is kept so that scheduling one event at a time from outside a
// callback does not grow a new one for every event.
const maxFree = 1024

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call New.
type Simulator struct {
	now      Time
	events   []*Event // 4-ary min-heap ordered by (at, seq)
	lane     []*Event // FIFO sorted by (at, seq); lane[:laneHead] is spent
	laneHead int
	laneLive int  // lane entries that are not tombstones
	firing   bool // inside a callback, whose events go into the heap
	seq      uint64
	fired    uint64
	free     []*Event // recycled Event objects (see Event)
}

// New returns a Simulator with the clock at zero and no pending events.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// EventsFired returns the number of events executed so far. It is useful for
// instrumentation and loop-bound assertions in tests.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending returns the number of events waiting to fire. An Arrivals stream
// counts as at most one: only its next arrival is queued.
func (s *Simulator) Pending() int { return len(s.events) + s.laneLive }

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
	e := s.newEvent(t, s.seq, h)
	s.seq++
	// Outside any callback, an event at or after the lane's tail keeps the
	// lane sorted by (at, seq), since its seq is the largest yet.
	if n := len(s.lane); !s.firing && (n == 0 || t >= s.lane[n-1].at) {
		s.pushLane(e)
		return e
	}
	s.events = append(s.events, nil)
	s.siftUp(e, len(s.events)-1)
	return e
}

// newEvent returns an unqueued event for h at (t, seq), recycled from the
// free list when it has one.
func (s *Simulator) newEvent(t Time, seq uint64, h Handler) *Event {
	k := len(s.free) - 1
	if k < 0 {
		return &Event{at: t, seq: seq, h: h, index: -1}
	}
	e := s.free[k]
	s.free[k] = nil
	s.free = s.free[:k]
	e.at, e.seq, e.h, e.index = t, seq, h, -1
	return e
}

// Arrivals schedules a stream of n events from one cursor: event i runs
// fire(i) at instant at(i). The call reserves the next n submission
// sequence numbers, so each arrival fires in exactly the order, relative to
// every other event, that n At calls made at this point would give it: after
// the events already scheduled for the same instant, and before those
// scheduled later, callbacks included. Each arrival counts once in
// EventsFired.
//
// Only one arrival is pending at a time: when arrival i fires, the stream
// schedules arrival i+1 and then calls fire(i). So at(i) is evaluated no
// earlier than that, and a trace of any length occupies one event, not one
// per arrival; Pending counts at most one arrival per stream. The instants
// must be sorted, from now on: an at(0) before the clock, or an at(i)
// before at(i-1), panics naming i, as At's past-time panic does (arrival i
// is scheduled while arrival i-1 fires, so both are that check). n <= 0
// schedules nothing.
func (s *Simulator) Arrivals(n int, at func(i int) Time, fire func(i int)) {
	if at == nil || fire == nil {
		panic("sim: nil arrival callback")
	}
	if n <= 0 {
		return
	}
	a := &arrivals{s: s, n: n, base: s.seq, at: at, fire: fire}
	s.seq += uint64(n)
	a.schedule(0)
}

// arrivals is one Arrivals stream: the Handler of its pending arrival.
type arrivals struct {
	s    *Simulator
	n    int    // arrivals in the stream
	next int    // index of the pending arrival
	base uint64 // seq of arrival 0; arrival i has base+i
	at   func(i int) Time
	fire func(i int)
}

// schedule queues arrival i with its reserved seq. Its seq is not the
// largest yet, so it always goes into the heap, never the lane. The heap
// push is spelled out here and in AtHandler: as a helper it is over the
// compiler's inlining budget, and AtHandler is the hot path.
func (a *arrivals) schedule(i int) {
	s := a.s
	t := a.at(i)
	if t < s.now {
		panic(fmt.Sprintf("sim: arrival %d at %v before now %v", i, t, s.now))
	}
	a.next = i
	e := s.newEvent(t, a.base+uint64(i), a)
	s.events = append(s.events, nil)
	s.siftUp(e, len(s.events)-1)
}

// Fire schedules the stream's next arrival, then runs the one firing now.
func (a *arrivals) Fire() {
	i := a.next
	if i+1 < a.n {
		a.schedule(i + 1)
	}
	a.fire(i)
}

// AfterHandler schedules h.Fire to run d from now.
func (s *Simulator) AfterHandler(d Duration, h Handler) *Event {
	return s.AtHandler(s.now.Add(d), h)
}

// Cancel removes a pending event: a heap event is recycled at once, a lane
// event leaves a tombstone (see Event). Cancelling an event that already
// fired or was already cancelled is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	if e.index == inLane {
		e.h, e.index = nil, -1
		s.laneLive--
		return
	}
	s.remove(e.index)
	s.recycle(e)
}

// Step fires the earliest pending event and advances the clock to it.
// It reports whether an event was fired.
func (s *Simulator) Step() bool {
	e := s.next()
	if e == nil {
		return false
	}
	if e.index == inLane {
		s.popLane()
		e.index = -1
		s.laneLive--
	} else {
		s.remove(0)
	}
	s.now = e.at
	s.fired++
	firing := s.firing
	s.firing = true
	e.h.Fire()
	s.firing = firing
	// Recycle after the callback so nothing scheduled inside it can alias
	// the event that is still conceptually "firing".
	s.recycle(e)
	return true
}

// next returns the earliest pending event, the earlier of the heap head and
// the first live lane entry, or nil if nothing is pending. Tombstones at the
// front of the lane are recycled on the way.
func (s *Simulator) next() *Event {
	var l *Event
	for s.laneHead < len(s.lane) {
		if l = s.lane[s.laneHead]; l.h != nil {
			break
		}
		s.popLane()
		s.recycle(l)
		l = nil
	}
	if len(s.events) > 0 && (l == nil || before(s.events[0], l)) {
		return s.events[0]
	}
	return l
}

// pushLane appends e to the lane. A full backing array of which at least
// half is spent prefix or tombstones is compacted in place, recycling the
// tombstones, rather than grown. So the lane stays proportional to its live
// events even if it never drains, or if events are cancelled and
// rescheduled from outside callbacks with nothing firing in between.
func (s *Simulator) pushLane(e *Event) {
	if n := len(s.lane); n == cap(s.lane) && 2*(n-s.laneLive) >= n {
		k := 0
		for _, l := range s.lane[s.laneHead:] {
			if l.h == nil {
				s.recycle(l)
				continue
			}
			s.lane[k] = l
			k++
		}
		clear(s.lane[k:])
		s.lane, s.laneHead = s.lane[:k], 0
	}
	e.index = inLane
	s.lane = append(s.lane, e)
	s.laneLive++
}

// popLane drops the lane's front entry. A drained lane releases a backing
// array longer than maxFree and keeps a shorter one for reuse.
func (s *Simulator) popLane() {
	s.lane[s.laneHead] = nil
	s.laneHead++
	if s.laneHead < len(s.lane) {
		return
	}
	if cap(s.lane) > maxFree {
		s.lane = nil
	} else {
		s.lane = s.lane[:0]
	}
	s.laneHead = 0
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
	for e := s.next(); e != nil && e.at <= t; e = s.next() {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// The heap is a 4-ary min-heap on (at, seq): the children of slot i are
// 4i+1 … 4i+4. A 4-ary heap is half as deep as a binary one, and
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
