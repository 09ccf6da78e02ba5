package sim

import (
	"fmt"
	"math/rand"
	"sort"
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
