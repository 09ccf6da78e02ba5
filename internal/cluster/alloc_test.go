package cluster

import (
	"runtime"
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
)

// warmRunMallocs builds a one-node PT+DHA cluster with four warm BERT-Base
// replicas, primes it with one short run so every engine template exists,
// then replays n warm arrivals 20 ms apart, round-robin over the replicas,
// and returns the heap allocations of that Run call.
func warmRunMallocs(t *testing.T, n int) uint64 {
	t.Helper()
	c, err := New(Config{Nodes: 1, Policy: serving.PolicyPTDHA})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnn.ByName("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(m, 4); err != nil {
		t.Fatal(err)
	}
	if warm := c.Warmup(); warm != 4 {
		t.Fatalf("Warmup made %d replicas warm, want 4", warm)
	}
	arrivals := func(n int) []Request {
		start := c.sim.Now().Add(20 * sim.Millisecond)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{At: start.Add(sim.Duration(i) * 20 * sim.Millisecond), Model: m.Name, Key: i % 4}
		}
		return reqs
	}
	if _, err := c.Run(arrivals(8)); err != nil {
		t.Fatal(err)
	}
	reqs := arrivals(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := c.Run(reqs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStarts != 0 {
		t.Fatalf("%d cold starts in a warm replay", rep.ColdStarts)
	}
	return after.Mallocs - before.Mallocs
}

// A warm request allocates nothing: arrivals stream through the simulator
// from one cursor, and every run completes through a recycled run record.
// What a Run allocates per call (its report, the stream) cancels between
// two run lengths, leaving the marginal allocations per request.
func TestWarmRequestsAllocateNothing(t *testing.T) {
	const short, long = 2000, 4000
	a, b := warmRunMallocs(t, short), warmRunMallocs(t, long)
	perReq := (float64(b) - float64(a)) / (long - short)
	t.Logf("Run allocated %d for %d requests, %d for %d: %.4f per request", a, short, b, long, perReq)
	if perReq > 0.02 {
		t.Fatalf("%.4f allocations per warm request, want at most 0.02", perReq)
	}
}
