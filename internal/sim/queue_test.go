package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refEvent is the reference model's view of one pending event. An
// Arrivals stream's events are never handed out: for those ev is nil, and
// src and idx name the stream and the arrival's index in it.
type refEvent struct {
	at       Time
	seq      uint64
	id       int
	ev       *Event
	src, idx int
}

// refQueue is the reference model: every pending event, kept sorted by
// (at, seq), the order the simulator promises to fire them in.
type refQueue []refEvent

func (q *refQueue) add(r refEvent) {
	i := sort.Search(len(*q), func(i int) bool {
		p := (*q)[i]
		return p.at > r.at || p.at == r.at && p.seq > r.seq
	})
	*q = append(*q, refEvent{})
	copy((*q)[i+1:], (*q)[i:])
	(*q)[i] = r
}

func (q *refQueue) drop(i int) refEvent {
	r := (*q)[i]
	*q = append((*q)[:i], (*q)[i+1:]...)
	return r
}

// checkHeap verifies both sources' structure directly: every heap slot's
// index matches its position, no heap event fires before its parent and
// none carries the lane marker; the lane's spent prefix holds nothing, its
// entries are sorted by (at, seq), every live entry carries the lane marker,
// every tombstone is unqueued, and laneLive counts the live entries.
func checkHeap(t *testing.T, s *Simulator) {
	t.Helper()
	for i, e := range s.events {
		if e.index == inLane {
			t.Fatalf("heap slot %d holds an event with the lane marker", i)
		}
		if e.index != i {
			t.Fatalf("slot %d holds an event with index %d", i, e.index)
		}
		if i > 0 && before(e, s.events[(i-1)/4]) {
			t.Fatalf("slot %d fires before its parent", i)
		}
	}
	if s.laneHead == len(s.lane) && s.laneHead != 0 {
		t.Fatalf("drained lane kept its head at %d", s.laneHead)
	}
	live := 0
	for i, e := range s.lane {
		if i < s.laneHead {
			if e != nil {
				t.Fatalf("spent lane slot %d still holds an event", i)
			}
			continue
		}
		switch {
		case e.h != nil && e.index != inLane:
			t.Fatalf("live lane slot %d has index %d, want the lane marker", i, e.index)
		case e.h == nil && e.index != -1:
			t.Fatalf("lane tombstone at slot %d has index %d, want -1", i, e.index)
		case i > s.laneHead && !before(s.lane[i-1], e):
			t.Fatalf("lane slot %d fires before slot %d", i, i-1)
		}
		if e.h != nil {
			live++
		}
	}
	if live != s.laneLive {
		t.Fatalf("lane holds %d live events, laneLive = %d", live, s.laneLive)
	}
}

// laneFront returns the first live lane entry without recycling the
// tombstones before it, or nil.
func laneFront(s *Simulator) *Event {
	for _, e := range s.lane[s.laneHead:] {
		if e.h != nil {
			return e
		}
	}
	return nil
}

// opReader decodes a queue run's operations from a byte slice. Reads past
// the end return 0, so every input decodes to a valid run.
type opReader struct {
	b []byte
	i int
}

func (r *opReader) more() bool { return r.i < len(r.b) }

func (r *opReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

// runQueueOps drives a simulator through the operations decoded from data
// and checks it against a sorted reference model: At, After, scheduling from
// outside a callback at or after the lane's tail and before it, Arrivals
// streams (with same-instant ties inside them), Cancel (of the head, the
// last heap slot, the lane's head, middle and tail entries, any pending
// event, and events that already fired or were cancelled), Step and
// RunUntil, including events scheduled from inside firing callbacks. The
// simulator must fire exactly what the reference says; an event must join
// the lane exactly when it is scheduled outside a callback at or after the
// lane's tail; and Pending (counting one arrival per unfinished stream),
// the earlier of the two heads and every pending event's Scheduled and At
// must agree with the reference after every operation. Once the data is
// used up, the run drains the queue one Step at a time under the same
// checks.
func runQueueOps(t *testing.T, label string, data []byte) {
	t.Helper()
	r := &opReader{b: data}
	s := New()
	var ref refQueue
	var seq uint64 // mirrors the simulator's submission counter
	nextID := 0
	fired := 0      // events fired by the current operation
	var last *Event // the event fired last
	// streamNext[src] is the index of stream src's pending arrival.
	var streamNext []int
	var schedule func(at Time, after, inside bool)
	// fire checks that event id, scheduled for at, is the reference head
	// and drops it; sp is its callback's follow-up, as every substrate
	// schedules one.
	fire := func(id int, at Time, sp int) {
		if len(ref) == 0 || ref[0].id != id {
			t.Fatalf("%s: event %d fired before the reference head", label, id)
		}
		head := ref.drop(0)
		fired++
		last = head.ev
		if s.Now() != at {
			t.Fatalf("%s: event %d fired at %v, scheduled for %v", label, id, s.Now(), at)
		}
		if head.ev != nil && head.ev.Scheduled() {
			t.Fatalf("%s: event %d still scheduled while firing", label, id)
		}
		s.Cancel(head.ev) // cancelling the firing event is a no-op
		if sp&7 == 7 {
			schedule(s.Now().Add(Duration(sp>>3)*32), false, true)
		}
	}
	schedule = func(at Time, after, inside bool) {
		id := nextID
		nextID++
		sp := r.next()
		fn := func() { fire(id, at, sp) }
		n := len(s.lane)
		wantLane := !inside && (n == s.laneHead || at >= s.lane[n-1].at)
		var e *Event
		if after {
			e = s.After(at.Sub(s.Now()), fn)
		} else {
			e = s.At(at, fn)
		}
		if (e.index == inLane) != wantLane {
			t.Fatalf("%s: event %d at %v (inside a callback: %v) in the lane: %v, want %v",
				label, id, at, inside, e.index == inLane, wantLane)
		}
		ref.add(refEvent{at: at, seq: seq, id: id, ev: e})
		seq++
	}
	// stream sends n arrivals through one Arrivals call, each a tie
	// with the one before it or up to 127 ns after it.
	stream := func(n int) {
		src := len(streamNext)
		streamNext = append(streamNext, 0)
		ats, sps, ids := make([]Time, n), make([]int, n), make([]int, n)
		at := s.Now()
		for i := range ats {
			b := r.next()
			if b&1 == 1 {
				at = at.Add(Duration(b >> 1))
			}
			ats[i], sps[i], ids[i] = at, r.next(), nextID
			ref.add(refEvent{at: at, seq: seq + uint64(i), id: nextID, src: src, idx: i})
			nextID++
		}
		seq += uint64(n)
		s.Arrivals(n, func(i int) Time { return ats[i] }, func(i int) {
			streamNext[src] = i + 1
			fire(ids[i], ats[i], sps[i])
		})
	}
	cancel := func(i int) {
		if ref[i].ev == nil {
			return // an arrival is never handed out, so it cannot be cancelled
		}
		r := ref.drop(i)
		s.Cancel(r.ev)
		if r.ev.Scheduled() {
			t.Fatalf("%s: event %d still scheduled after Cancel", label, r.id)
		}
		s.Cancel(r.ev) // cancelling a cancelled event is a no-op
	}
	// cancelEvent cancels e, which is pending or a lane tombstone; cancelling
	// a tombstone is a no-op that the checks after the operation verify.
	cancelEvent := func(e *Event) {
		if _, ok := e.h.(*arrivals); ok {
			return
		}
		for i := range ref {
			if ref[i].ev == e {
				cancel(i)
				return
			}
		}
		s.Cancel(e)
	}
	// Each callback checks that it is the reference head and drops it, so
	// Step and RunUntil only need to check how many events fired.
	step := func(op int) {
		want := min(len(ref), 1)
		fired = 0
		if s.Step() != (want == 1) || fired != want {
			t.Fatalf("%s op %d: Step fired %d events, want %d", label, op, fired, want)
		}
		if want == 1 {
			s.Cancel(last) // cancelling an event that already fired is a no-op
		}
	}
	runUntil := func(op int, until Time) {
		now := max(s.Now(), until)
		s.RunUntil(until)
		if s.Now() != now || len(ref) > 0 && ref[0].at <= until {
			t.Fatalf("%s op %d: RunUntil(%v) left the clock at %v with the reference head pending", label, op, until, s.Now())
		}
	}
	check := func(op int) {
		checkHeap(t, s)
		pending := 0
		for _, r := range ref {
			if r.ev != nil || r.idx == streamNext[r.src] {
				pending++
			}
		}
		if s.Pending() != pending {
			t.Fatalf("%s op %d: Pending() = %d, want %d", label, op, s.Pending(), pending)
		}
		head := laneFront(s)
		if len(s.events) > 0 && (head == nil || before(s.events[0], head)) {
			head = s.events[0]
		}
		if len(ref) == 0 && head != nil || len(ref) > 0 && (head == nil ||
			head.at != ref[0].at || head.seq != ref[0].seq || ref[0].ev != nil && head != ref[0].ev) {
			t.Fatalf("%s op %d: the earlier of the two heads is not the reference head", label, op)
		}
		for _, r := range ref {
			if r.ev == nil {
				continue
			}
			if !r.ev.Scheduled() || r.ev.At() != r.at {
				t.Fatalf("%s op %d: pending event %d reports scheduled=%v at %v, want true at %v",
					label, op, r.id, r.ev.Scheduled(), r.ev.At(), r.at)
			}
		}
	}
	op := 0
	for ; r.more(); op++ {
		d := Duration(r.next())
		switch k := r.next() * 100 / 256; {
		case k < 22:
			schedule(s.Now().Add(d), false, false)
		case k < 34:
			schedule(s.Now().Add(d), true, false)
		case k < 40: // at or after the lane's tail
			at := s.Now()
			if n := len(s.lane); n > s.laneHead {
				at = s.lane[n-1].at
			}
			schedule(at.Add(d), false, false)
		case k < 46: // before the lane's tail, where there is room
			at := s.Now()
			if n := len(s.lane); n > s.laneHead && s.lane[n-1].at > at {
				at = at.Add(d % s.lane[n-1].at.Sub(at))
			}
			schedule(at, false, false)
		case k < 50 && len(ref) > 0: // the head
			cancel(0)
		case k < 54 && len(s.events) > 0: // whatever sits in the last heap slot
			cancelEvent(s.events[len(s.events)-1])
		case k < 57 && len(s.lane) > s.laneHead: // the lane's head entry
			cancelEvent(s.lane[s.laneHead])
		case k < 60 && len(s.lane) > s.laneHead: // a middle lane entry
			cancelEvent(s.lane[(s.laneHead+len(s.lane))/2])
		case k < 63 && len(s.lane) > s.laneHead: // the lane's tail entry
			cancelEvent(s.lane[len(s.lane)-1])
		case k < 68 && len(ref) > 0:
			cancel((int(d)<<8 | r.next()) % len(ref))
		case k < 73:
			runUntil(op, s.Now().Add(d))
		case k < 78:
			stream(int(d) % 9)
		default:
			step(op)
		}
		check(op)
	}
	for ; len(ref) > 0; op++ {
		step(op)
		check(op)
	}
	if s.Step() || s.Pending() != 0 || len(s.lane) != 0 || len(s.events) != 0 {
		t.Fatalf("%s: drained simulator still holds events", label)
	}
}

// Property: the simulator matches the sorted reference model of runQueueOps
// on long random runs. FuzzSimQueue explores the same oracle from arbitrary
// inputs.
func TestPropertyQueueMatchesSortedReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		data := make([]byte, 12000)
		rand.New(rand.NewSource(seed)).Read(data)
		runQueueOps(t, fmt.Sprintf("seed %d", seed), data)
	}
}

// FuzzSimQueue checks the simulator against the sorted reference model on
// operations decoded from arbitrary bytes. The seed corpus lives in
// testdata/fuzz/FuzzSimQueue.
func FuzzSimQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runQueueOps(t, "fuzz", data)
	})
}

// Scheduling an event from outside a callback and firing it allocates
// nothing once the lane's backing array and the free list are warm, also
// when a cancelled lane event leaves a tombstone in front of it.
func TestLaneSchedulingAllocatesNothing(t *testing.T) {
	s := New()
	fn := func() {}
	if n := testing.AllocsPerRun(100, func() {
		s.After(1, fn)
		s.Step()
	}); n != 0 {
		t.Fatalf("schedule + Step allocated %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		e := s.After(1, fn)
		s.After(2, fn)
		s.Cancel(e)
		s.Step()
	}); n != 0 {
		t.Fatalf("schedule, cancel + Step allocated %v times per run, want 0", n)
	}
	if s.Pending() != 0 || s.EventsFired() != 202 {
		t.Fatalf("Pending() = %d, EventsFired() = %d, want 0 and 202", s.Pending(), s.EventsFired())
	}
}

// A drained lane releases a backing array longer than maxFree, so a trace
// queued up front is not kept alive for the rest of the run, and keeps a
// shorter one for reuse.
func TestDrainedLaneReleasesLargeArray(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i <= maxFree; i++ {
		s.At(Time(i), fn)
	}
	if len(s.lane) != maxFree+1 || len(s.events) != 0 {
		t.Fatalf("sorted trace: lane %d, heap %d, want all %d in the lane", len(s.lane), len(s.events), maxFree+1)
	}
	s.Run()
	if s.lane != nil {
		t.Fatalf("drained lane still holds a backing array of %d", cap(s.lane))
	}
	for i := 0; i < 8; i++ {
		s.After(Duration(i), fn)
	}
	s.Run()
	if cap(s.lane) == 0 || cap(s.lane) > maxFree {
		t.Fatalf("drained short lane kept a backing array of %d, want one of 1 to %d", cap(s.lane), maxFree)
	}
}

// A lane that never drains stays proportional to what it holds: a steady
// trickle scheduled at its tail while its head fires reuses the spent
// prefix instead of growing the array.
func TestLaneThatNeverDrainsStaysBounded(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 100; i++ {
		s.At(Time(i), fn)
	}
	for i := 100; i < 100_000; i++ {
		s.At(Time(i), fn)
		s.Step()
	}
	if s.Pending() != 100 || cap(s.lane) > 400 {
		t.Fatalf("Pending() = %d with a lane array of %d, want 100 within 400", s.Pending(), cap(s.lane))
	}
}

// Cancelling and rescheduling a lane event from outside callbacks with
// nothing firing in between, as a driver that starts and aborts flows
// before running the clock does, recycles the tombstones when the lane
// compacts: it allocates nothing and the lane stays small.
func TestLaneTombstonesRecycledWithoutStepping(t *testing.T) {
	s := New()
	fn := func() {}
	s.At(1000, fn) // a live event that never fires
	e := s.At(1000, fn)
	if n := testing.AllocsPerRun(1000, func() {
		s.Cancel(e)
		e = s.At(1000, fn)
	}); n != 0 {
		t.Fatalf("cancel + reschedule allocated %v times per run, want 0", n)
	}
	if s.Pending() != 2 || cap(s.lane) > 8 {
		t.Fatalf("Pending() = %d with a lane array of %d, want 2 within 8", s.Pending(), cap(s.lane))
	}
}

// queueBench is BenchmarkSimQueue's state. All of its scheduling and
// cancelling happens inside callbacks, so every event goes through the heap.
type queueBench struct {
	s       *Simulator
	tokens  []queueToken
	deltas  []Duration
	victims []int
	next    int // deltas drawn so far
	fired   int
}

// queueToken owns at most one pending event of BenchmarkSimQueue and
// reschedules itself whenever that event fires.
type queueToken struct {
	q  *queueBench
	ev *Event
}

func (k *queueToken) Fire() {
	q := k.q
	k.reschedule()
	if q.fired&3 == 3 {
		v := &q.tokens[q.victims[(q.fired>>2)&(len(q.victims)-1)]]
		q.s.Cancel(v.ev)
		v.reschedule()
	}
	q.fired++
}

func (k *queueToken) reschedule() {
	q := k.q
	q.next++
	k.ev = q.s.AfterHandler(q.deltas[q.next&(len(q.deltas)-1)], k)
}

// BenchmarkSimQueue measures the event queue alone on a 20k-deep heap: 20k
// tokens, scheduled from inside a callback and each rescheduling itself from
// inside its own, so every event goes through the heap. That is a run with
// 20k events in flight at once, which no serving run reaches now that its
// pre-scheduled arrival trace sits in the lane (BenchmarkSimArrivals
// measures that shape). Each event fired reschedules its token, and every
// fourth event also cancels a random pending event and schedules a
// replacement. One op is a batch of queueBatch events, so that the
// two-iteration snapshots of scripts/bench.sh still time thousands of them;
// ns/event is the per-event figure. Steady state allocates nothing.
func BenchmarkSimQueue(b *testing.B) {
	const depth = 20000
	rng := rand.New(rand.NewSource(1))
	q := &queueBench{s: New(), tokens: make([]queueToken, depth),
		deltas: make([]Duration, 4096), victims: make([]int, 4096)}
	for i := range q.deltas {
		q.deltas[i] = Duration(1 + rng.Intn(1_000_000))
	}
	for i := range q.victims {
		q.victims[i] = rng.Intn(depth)
	}
	q.s.At(0, func() {
		for i := range q.tokens {
			q.tokens[i].q = q
			q.tokens[i].reschedule()
		}
	})
	q.s.Step()
	for i := 0; i < queueBatch; i++ { // fill the free list
		q.s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < queueBatch; i++ {
			q.s.Step()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*queueBatch), "ns/event")
}

// queueBatch is the number of events in one op of BenchmarkSimQueue and
// BenchmarkSimArrivals.
const queueBatch = 4096

// arrivalTrace is BenchmarkSimArrivals' arrival handler: every arrival
// schedules three short events from inside its callback and every fourth
// one also cancels one of them, as a request's first engine and flow events
// do.
type arrivalTrace struct {
	s     *Simulator
	n     int
	due   int  // arrivals fired and not yet replaced at the trace's end
	last  Time // instant of the trace's last arrival
	short []shortToken
}

// shortToken owns at most one pending short event.
type shortToken struct{ ev *Event }

func (k *shortToken) Fire() { k.ev = nil }

func (a *arrivalTrace) Fire() {
	a.n++
	a.due++
	for j := 0; j < 3; j++ {
		k := &a.short[(3*a.n+j)&(len(a.short)-1)]
		if k.ev == nil {
			k.ev = a.s.AfterHandler(Duration(1+(a.n*7919+j*104729)%5000), k)
		}
	}
	if a.n&3 == 0 {
		k := &a.short[(3*a.n+1)&(len(a.short)-1)]
		a.s.Cancel(k.ev)
		k.ev = nil
	}
}

// BenchmarkSimArrivals measures the event queue under a serving run's
// shape: a sorted trace of 20k arrivals, 1 µs apart, scheduled up front,
// where each arrival schedules and sometimes cancels a few short events
// from inside its callback. After every step the loop schedules a
// replacement for each arrival that fired at the trace's end, from outside
// any callback, so the trace stays 20k deep. One op is a batch of
// queueBatch events; ns/event is the per-event figure. Steady state
// allocates nothing.
func BenchmarkSimArrivals(b *testing.B) {
	const depth = 20000
	s := New()
	a := &arrivalTrace{s: s, short: make([]shortToken, 4096)}
	for i := 0; i < depth; i++ {
		a.last = Time(i) * Time(Microsecond)
		s.AtHandler(a.last, a)
	}
	step := func() {
		s.Step()
		for ; a.due > 0; a.due-- {
			a.last = a.last.Add(Microsecond)
			s.AtHandler(a.last, a)
		}
	}
	// Warm up until the free list is full and the lane has settled on the
	// backing array it compacts in place rather than grows.
	for a.n < 2*depth {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < queueBatch; i++ {
			step()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*queueBatch), "ns/event")
}
