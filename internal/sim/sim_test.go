package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestAtFiresInOrder(t *testing.T) {
	s := New()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("final Now() = %v, want 30", s.Now())
	}
}

func TestSameInstantFiresInSubmissionOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want ascending", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New()
	var fired Time
	s.At(50, func() {
		s.After(25, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 75 {
		t.Fatalf("nested After fired at %v, want 75", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(100, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(50, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	s.At(1, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(10, func() { fired = true })
	if !e.Scheduled() {
		t.Fatal("event not scheduled after At")
	}
	s.Cancel(e)
	if e.Scheduled() {
		t.Fatal("event still scheduled after Cancel")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and nil cancel are no-ops.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	s := New()
	var got []int
	var events []*Event
	for i := 0; i < 5; i++ {
		i := i
		events = append(events, s.At(Time(i*10), func() { got = append(got, i) }))
	}
	s.Cancel(events[2])
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []Time
	var lane, heap []*Event
	for _, at := range []Time{10, 20, 30, 40} { // sorted, so into the lane
		at := at
		lane = append(lane, s.At(at, func() {
			got = append(got, at)
			if at == 20 { // scheduled inside a callback, so into the heap
				heap = append(heap, s.At(25, func() { got = append(got, 25) }))
			}
		}))
	}
	for _, at := range []Time{15, 35} { // before the lane's tail, so into the heap
		at := at
		heap = append(heap, s.At(at, func() { got = append(got, at) }))
	}
	for _, e := range lane {
		if e.index != inLane {
			t.Fatalf("event at %v is not in the lane", e.At())
		}
	}
	for _, e := range heap {
		if e.index == inLane {
			t.Fatalf("event at %v is in the lane", e.At())
		}
	}
	s.RunUntil(25)
	if want := []Time{10, 15, 20, 25}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("RunUntil(25) fired %v, want %v", got, want)
	}
	if s.Now() != 25 {
		t.Fatalf("Now() = %v, want 25", s.Now())
	}
	if s.Pending() != 3 {
		t.Fatalf("Pending() = %d after RunUntil(25), want 3", s.Pending())
	}
	s.RunUntil(100)
	if want := []Time{10, 15, 20, 25, 30, 35, 40}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after RunUntil(100) fired %v, want %v", got, want)
	}
	if s.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", s.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	var got []string
	a := s.At(25, func() { got = append(got, "lane") })
	s.At(30, func() { got = append(got, "after") })
	b := s.At(25, func() { got = append(got, "heap") }) // before the lane's tail at 30
	if a.index != inLane || b.index == inLane {
		t.Fatalf("lane event index %d, heap event index %d", a.index, b.index)
	}
	s.RunUntil(25)
	if fmt.Sprint(got) != "[lane heap]" {
		t.Fatalf("RunUntil(25) fired %v, want both events at the boundary in submission order", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the event after the boundary", s.Pending())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty simulator returned true")
	}
}

func TestEventsFired(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.EventsFired() != 7 {
		t.Fatalf("EventsFired = %d, want 7", s.EventsFired())
	}
}

func TestEventAt(t *testing.T) {
	s := New()
	e := s.At(42, func() {})
	if e.At() != 42 {
		t.Fatalf("At() = %v, want 42", e.At())
	}
}

func TestTimeConversions(t *testing.T) {
	tm := Time(1_500_000_000) // 1.5s
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if tm.Milliseconds() != 1500 {
		t.Fatalf("Milliseconds = %v", tm.Milliseconds())
	}
	if tm.Microseconds() != 1.5e6 {
		t.Fatalf("Microseconds = %v", tm.Microseconds())
	}
	if tm.Add(500*Millisecond) != Time(2_000_000_000) {
		t.Fatalf("Add = %v", tm.Add(500*Millisecond))
	}
	if tm.Sub(Time(500_000_000)) != Duration(1_000_000_000) {
		t.Fatalf("Sub = %v", tm.Sub(Time(500_000_000)))
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// insertion order.
func TestPropertyFiringOrderIsSorted(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		var fired []Time
		for _, off := range offsets {
			at := Time(off)
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := New()
		n := 1 + rng.Intn(40)
		fired := make([]bool, n)
		events := make([]*Event, n)
		cancel := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = s.At(Time(rng.Intn(1000)), func() { fired[i] = true })
			cancel[i] = rng.Intn(2) == 0
		}
		for i, c := range cancel {
			if c {
				s.Cancel(events[i])
			}
		}
		s.Run()
		for i := 0; i < n; i++ {
			if fired[i] == cancel[i] {
				t.Fatalf("trial %d event %d: fired=%v cancelled=%v", trial, i, fired[i], cancel[i])
			}
		}
	}
}

// arrivalsLog replays one trace on a fresh simulator and returns what fired,
// in order, with the instant each fired at. Events are scheduled before and
// after the trace, outside any callback; the trace goes in through one At
// call per arrival or, with stream, one Arrivals call; and every callback
// draws from rng, in firing order, to schedule same-instant and later
// events and to cancel pending ones.
func arrivalsLog(t *testing.T, seed int64, trace, before, after []Time, stream bool) ([]string, uint64) {
	s := New()
	rng := rand.New(rand.NewSource(seed))
	var log []string
	type spawned struct {
		ev   *Event
		done bool
	}
	var pending []*spawned
	var react func()
	note := func(name string, want Time) {
		if s.Now() != want {
			t.Fatalf("%s fired at %v, scheduled for %v", name, s.Now(), want)
		}
		log = append(log, fmt.Sprintf("%s@%v", name, s.Now()))
		react()
	}
	react = func() {
		switch k := rng.Intn(10); {
		case k < 4: // same instant, or a little later
			sp := &spawned{}
			name, at := fmt.Sprintf("s%d", len(pending)), s.Now().Add(Duration(k%2*rng.Intn(5)))
			sp.ev = s.At(at, func() { sp.done = true; note(name, at) })
			pending = append(pending, sp)
		case k < 7 && len(pending) > 0:
			if sp := pending[rng.Intn(len(pending))]; !sp.done {
				s.Cancel(sp.ev)
				sp.done = true
			}
		}
	}
	outside := func(prefix string, ats []Time) {
		for i, at := range ats {
			name := fmt.Sprintf("%s%d", prefix, i)
			s.At(at, func() { note(name, at) })
		}
	}
	outside("b", before)
	if stream {
		s.Arrivals(len(trace), func(i int) Time { return trace[i] }, func(i int) {
			note(fmt.Sprintf("a%d", i), trace[i])
		})
	} else {
		outside("a", trace)
	}
	outside("p", after)
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run", s.Pending())
	}
	return log, s.EventsFired()
}

// A trace streamed through Arrivals fires exactly as the same trace
// scheduled with one At call per arrival: same events, same order, same
// instants and the same EventsFired, whatever same-instant ties it has with
// events scheduled before and after it and with everything its callbacks
// schedule and cancel. An instant that goes back in time panics naming the
// arrival, and an empty trace schedules nothing.
func TestArrivalsMatchAt(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]Time, rng.Intn(300))
		var at Time
		for i := range trace {
			at = at.Add(Duration([]int{0, 0, 0, 1, 2, 7}[rng.Intn(6)]))
			trace[i] = at
		}
		// Events outside the trace, half of them on one of its instants.
		extra := func() []Time {
			out := make([]Time, rng.Intn(40))
			for i := range out {
				out[i] = Time(rng.Int63n(int64(at) + 2))
				if len(trace) > 0 && rng.Intn(2) == 0 {
					out[i] = trace[rng.Intn(len(trace))]
				}
			}
			return out
		}
		before, after := extra(), extra()
		want, wantFired := arrivalsLog(t, seed, trace, before, after, false)
		got, gotFired := arrivalsLog(t, seed, trace, before, after, true)
		if fmt.Sprint(got) != fmt.Sprint(want) || gotFired != wantFired {
			t.Fatalf("seed %d: Arrivals fired %d events\n %v\nn At calls fired %d\n %v",
				seed, gotFired, got, wantFired, want)
		}
	}

	panics := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, want) {
				t.Fatalf("%s: recovered %v, want a panic naming %q", name, r, want)
			}
		}()
		f()
	}
	s := New()
	ats := []Time{10, 20, 20, 15}
	s.Arrivals(len(ats), func(i int) Time { return ats[i] }, func(int) {})
	panics("decreasing instant", "arrival 3 ", s.Run)
	s = New()
	s.At(100, func() {})
	s.Run()
	panics("instant before now", "arrival 0 ", func() {
		s.Arrivals(1, func(int) Time { return 50 }, func(int) {})
	})

	s = New()
	s.Arrivals(0, func(int) Time {
		t.Fatal("empty trace asked for an instant")
		return 0
	}, func(int) { t.Fatal("empty trace fired") })
	if s.Pending() != 0 || s.Step() || s.EventsFired() != 0 {
		t.Fatalf("empty trace left Pending() = %d, EventsFired() = %d", s.Pending(), s.EventsFired())
	}
}
