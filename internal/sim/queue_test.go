package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent is the reference model's view of one pending event.
type refEvent struct {
	at  Time
	seq uint64
	id  int
	ev  *Event
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

// checkHeap verifies the 4-ary heap's structure directly: every slot's index
// matches its position and no event fires before its parent.
func checkHeap(t *testing.T, s *Simulator) {
	t.Helper()
	for i, e := range s.events {
		if e.index != i {
			t.Fatalf("slot %d holds an event with index %d", i, e.index)
		}
		if i > 0 && before(e, s.events[(i-1)/4]) {
			t.Fatalf("slot %d fires before its parent", i)
		}
	}
}

// Property: under a random interleaving of At, After, Cancel (of the head,
// the last heap slot, any pending event, and events that already fired or
// were cancelled) and Step, including events scheduled from inside firing
// callbacks, the simulator fires exactly what a sorted reference model
// says, and Pending, the heap head's time and every pending event's
// Scheduled and At agree with it after every operation.
func TestPropertyQueueMatchesSortedReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var ref refQueue
		var seq uint64 // mirrors the simulator's submission counter
		nextID := 0
		firedID := -1
		var schedule func(at Time, after bool) *Event
		schedule = func(at Time, after bool) *Event {
			id := nextID
			nextID++
			spawn := rng.Intn(8) == 0
			fn := func() {
				firedID = id
				if s.Now() != at {
					t.Fatalf("seed %d: event %d fired at %v, scheduled for %v", seed, id, s.Now(), at)
				}
				if spawn { // a callback scheduling a follow-up, as every substrate does
					schedule(s.Now().Add(Duration(rng.Intn(50))), false)
				}
			}
			var e *Event
			if after {
				e = s.After(at.Sub(s.Now()), fn)
			} else {
				e = s.At(at, fn)
			}
			ref.add(refEvent{at: at, seq: seq, id: id, ev: e})
			seq++
			return e
		}
		cancel := func(i int) {
			r := ref.drop(i)
			s.Cancel(r.ev)
			if r.ev.Scheduled() {
				t.Fatalf("seed %d: event %d still scheduled after Cancel", seed, r.id)
			}
			s.Cancel(r.ev) // cancelling a cancelled event is a no-op
		}
		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(100); {
			case k < 30:
				schedule(s.Now().Add(Duration(rng.Intn(200))), false)
			case k < 45:
				schedule(s.Now().Add(Duration(rng.Intn(200))), true)
			case k < 50 && len(ref) > 0: // the head
				cancel(0)
			case k < 55 && len(ref) > 0: // whatever sits in the last heap slot
				last := s.events[len(s.events)-1]
				for i := range ref {
					if ref[i].ev == last {
						cancel(i)
						break
					}
				}
			case k < 62 && len(ref) > 0:
				cancel(rng.Intn(len(ref)))
			default:
				want := -1
				if len(ref) > 0 {
					want = ref[0].id
				}
				var head refEvent
				if len(ref) > 0 {
					head = ref.drop(0)
				}
				firedID = -1
				if s.Step() != (want >= 0) || firedID != want {
					t.Fatalf("seed %d op %d: fired event %d, want %d", seed, op, firedID, want)
				}
				if want >= 0 {
					if head.ev.Scheduled() {
						t.Fatalf("seed %d: event %d still scheduled after firing", seed, want)
					}
					// Cancelling an event that already fired is a no-op.
					s.Cancel(head.ev)
				}
			}
			checkHeap(t, s)
			if s.Pending() != len(ref) {
				t.Fatalf("seed %d op %d: Pending() = %d, want %d", seed, op, s.Pending(), len(ref))
			}
			if len(ref) > 0 && s.events[0].at != ref[0].at {
				t.Fatalf("seed %d op %d: heap head at %v, want %v", seed, op, s.events[0].at, ref[0].at)
			}
			for _, r := range ref {
				if !r.ev.Scheduled() || r.ev.At() != r.at {
					t.Fatalf("seed %d op %d: pending event %d reports scheduled=%v at %v, want true at %v",
						seed, op, r.id, r.ev.Scheduled(), r.ev.At(), r.at)
				}
			}
		}
	}
}

// queueToken owns at most one pending event of BenchmarkSimQueue and
// reschedules itself whenever that event fires.
type queueToken struct {
	s      *Simulator
	ev     *Event
	deltas []Duration
	next   *int
}

func (k *queueToken) Fire() { k.reschedule() }

func (k *queueToken) reschedule() {
	*k.next++
	k.ev = k.s.AfterHandler(k.deltas[*k.next&(len(k.deltas)-1)], k)
}

// BenchmarkSimQueue measures the event queue alone on a 20k-deep heap, the
// depth a cold-start serving run reaches with its arrivals scheduled up
// front. Each event fired reschedules its token, and every fourth event also
// cancels a random pending event and schedules a replacement. One op is a
// batch of queueBatch events, so that the two-iteration snapshots of
// scripts/bench.sh still time thousands of them; ns/event is the per-event
// figure. Steady state allocates nothing.
func BenchmarkSimQueue(b *testing.B) {
	const depth = 20000
	rng := rand.New(rand.NewSource(1))
	deltas := make([]Duration, 4096)
	for i := range deltas {
		deltas[i] = Duration(1 + rng.Intn(1_000_000))
	}
	victims := make([]int, 4096)
	for i := range victims {
		victims[i] = rng.Intn(depth)
	}
	s := New()
	next := 0
	tokens := make([]queueToken, depth)
	for i := range tokens {
		tokens[i] = queueToken{s: s, deltas: deltas, next: &next}
		tokens[i].reschedule()
	}
	step := func(i int) {
		s.Step()
		if i&3 == 3 {
			k := &tokens[victims[(i>>2)&(len(victims)-1)]]
			s.Cancel(k.ev)
			k.reschedule()
		}
	}
	for i := 0; i < queueBatch; i++ { // fill the free list
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < queueBatch; i++ {
			step(n*queueBatch + i)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*queueBatch), "ns/event")
}

// queueBatch is the number of events in one BenchmarkSimQueue op.
const queueBatch = 4096
