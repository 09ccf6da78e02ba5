package main

// The reference job is the yardstick host times are divided by. It imports
// nothing from the simulator, so no change to the program can move it: it
// moves only with the host (CPU frequency, a noisy neighbour, cache
// pressure). Its shape mimics the simulator's hot path — a binary heap of
// timed events with small heap-allocated payloads, a map keyed by event id,
// and steady allocation that keeps the garbage collector busy — so the same
// host disturbances slow both by a similar factor.

import "container/heap"

const (
	// refLive is the number of events kept live in the heap and the map.
	refLive = 200_000
	// refOps is the fixed number of pop-and-reschedule operations.
	refOps = 120_000
	// refChecksum is refRun's result; any other value means the job did
	// different work and its time is not comparable.
	refChecksum = 2430803098014323090
)

type refEvent struct {
	at      uint64
	id      uint64
	payload []byte
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].id < h[j].id)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// refRun runs the reference job and returns its checksum.
func refRun() uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 { // xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545F4914F6CDD1D
	}
	newEvent := func(at, id uint64) *refEvent {
		r := rnd()
		p := make([]byte, 16+16*(r%13)) // 16..208 bytes
		p[0], p[len(p)-1] = byte(r>>8), byte(r>>16)
		return &refEvent{at: at, id: id, payload: p}
	}
	h := make(refHeap, 0, refLive)
	live := make(map[uint64]*refEvent, refLive)
	for id := uint64(0); id < refLive; id++ {
		e := newEvent(rnd()%1_000_000, id)
		h = append(h, e)
		live[id] = e
	}
	heap.Init(&h)
	var sum uint64
	next := uint64(refLive)
	for op := 0; op < refOps; op++ {
		e := heap.Pop(&h).(*refEvent)
		delete(live, e.id)
		sum = sum*1_000_003 + e.at + uint64(e.payload[0]) + uint64(e.payload[len(e.payload)-1])
		n := newEvent(e.at+1+rnd()%1000, next)
		next++
		heap.Push(&h, n)
		live[n.id] = n
	}
	return sum + uint64(len(live))
}
