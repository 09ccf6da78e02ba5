package simnet

import (
	"fmt"
	"math"
	"sync/atomic"

	"deepplan/internal/sim"
)

// linkEpoch hands out globally unique stamps for the per-Link scratch state
// of maxMinRates. A fresh stamp per rate reallocation makes "have I touched
// this link in this pass?" a field comparison instead of a map lookup, which
// keeps reallocation allocation-free. The counter is atomic only so that
// independent Networks on different goroutines (the parallel experiment
// harness) never reuse a stamp; it carries no ordering semantics.
var linkEpoch atomic.Uint64

// Link is a unidirectional channel with a fixed capacity.
type Link struct {
	name     string
	capacity float64 // bytes per second

	// maxMinRates scratch state, valid only while mmEpoch matches the
	// pass that wrote it.
	mmEpoch    uint64
	residual   float64
	unassigned int

	// allocRate is the link's aggregate max-min allocated rate as of the
	// last maxMinRates pass (valid while mmEpoch matches that pass);
	// lastRate is the value last handed to the rate observer.
	allocRate float64
	lastRate  float64
}

// NewLink returns a link with the given capacity in bytes per second.
func NewLink(name string, bytesPerSecond float64) *Link {
	if bytesPerSecond <= 0 {
		panic(fmt.Sprintf("simnet: link %q capacity must be positive, got %g", name, bytesPerSecond))
	}
	return &Link{name: name, capacity: bytesPerSecond}
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link capacity in bytes per second.
func (l *Link) Capacity() float64 { return l.capacity }

// SetLinkCapacity changes l's capacity to bytesPerSecond, effective
// immediately: in-flight flow progress is credited at the old rates up to the
// current instant, then every flow's max–min fair share is recomputed against
// the new capacity and the next completion is rescheduled. This is the
// mechanism behind fault injection's PCIe link degradation (a degraded link
// keeps carrying traffic, only slower), so the capacity must stay positive —
// a dead device is modelled by failing its GPU, not by a zero-width link.
func (n *Network) SetLinkCapacity(l *Link, bytesPerSecond float64) {
	if bytesPerSecond <= 0 {
		panic(fmt.Sprintf("simnet: link %q capacity must stay positive, got %g", l.name, bytesPerSecond))
	}
	if l.capacity == bytesPerSecond {
		return
	}
	n.advance()
	l.capacity = bytesPerSecond
	n.reallocate()
}

// Flow is an in-flight transfer across a path of links.
//
// Flow objects are recycled, under the same contract as sim.Event: once a
// flow's FlowDone callback has returned, or once it has been aborted, the
// network may hand the object to a later StartFlow. Name, Total and Done stay
// readable until then, but a pointer kept past that moment observes (and
// Abort would cancel) the flow that reused it, so drop the pointer when the
// flow completes or right after aborting it. A flow is recycled only after
// every callback of its completion batch has run, so a flow started inside a
// FlowDone never aliases a flow of the batch still being delivered.
type Flow struct {
	name      string
	path      []*Link
	remaining float64
	total     float64
	rate      float64
	onDone    Handler // nil when nobody waits for completion
	net       *Network
	seq       uint64 // start order, for deterministic completion callbacks
	index     int32  // position in Network.flows, -1 when not active
	done      bool
	nextFree  *Flow // next recycled flow while on the free list
}

// Name returns the flow's diagnostic name.
func (f *Flow) Name() string { return f.name }

// Total returns the flow size in bytes.
func (f *Flow) Total() float64 { return f.total }

// Remaining returns the bytes not yet transferred, as of the last network
// update. Call Network.Sync first for an up-to-the-instant value.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the flow's current allocated rate in bytes per second.
func (f *Flow) Rate() float64 { return f.rate }

// Done reports whether the flow has completed (or was aborted).
func (f *Flow) Done() bool { return f.done }

// Network manages flows over links, driven by a Simulator.
type Network struct {
	sim        *sim.Simulator
	flows      []*Flow
	lastUpdate sim.Time
	completion *sim.Event
	flowSeq    uint64

	// onCompletionFn caches the method value so reallocate does not
	// allocate a fresh closure on every rate change.
	onCompletionFn func()

	// Scratch slices reused across calls so the steady-state event loop
	// never allocates: the distinct links of the active flows, and the
	// flows finishing at the current instant.
	links    []*Link
	finished []*Flow

	// free is the stack of recycled Flow objects (see Flow), nfree long
	// and linked through nextFree, so recycling never grows a slice.
	free  *Flow
	nfree int

	// Observability (nil when no one is watching, which costs one branch
	// per reallocation). obsPrev holds the links reported as active by the
	// previous pass so that a link draining to zero flows emits a final
	// zero-rate sample; lastMMEpoch identifies the current pass's stamp.
	obs         RateObserver
	obsPrev     []*Link
	lastMMEpoch uint64

	// limiter, when non-nil, may impose a per-flow rate cap at StartFlow
	// time (fault injection's straggler transfers). Nil costs one branch.
	limiter FlowLimiter
}

// FlowLimiter inspects a flow at start time and returns a rate cap in bytes
// per second, or 0 for no cap. A capped flow behaves exactly as if its path
// ended in a private link of that capacity: it participates in max–min
// sharing but never exceeds the cap, and bandwidth it cannot use is released
// to competing flows. The limiter must be a pure function of its arguments
// and virtual-time state so simulations stay deterministic.
type FlowLimiter func(name string, path []*Link, bytes float64) float64

// RateObserver receives one sample per link whose max-min allocated rate
// changed, at the instant of the change. Observers must be passive: they
// are invoked from inside the simulation's event processing and must not
// start flows or schedule events.
type RateObserver func(at sim.Time, link *Link, bytesPerSec float64)

// maxFree bounds the recycled-flow free list, as sim bounds its events:
// steady-state demand is the number of flows in flight at once.
const maxFree = 1024

// New returns an empty Network driven by s.
func New(s *sim.Simulator) *Network {
	n := &Network{sim: s, lastUpdate: s.Now()}
	n.onCompletionFn = n.onCompletion
	return n
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// ObserveRates registers fn to receive per-link rate-change samples (nil
// unregisters). Observation never perturbs the simulation: rates, flow
// progress, and event order are identical with or without an observer.
func (n *Network) ObserveRates(fn RateObserver) { n.obs = fn }

// LimitFlows registers fn as the per-flow rate limiter consulted by
// StartFlow (nil unregisters). Only flows started while the limiter is
// registered are affected; caps on already-running flows do not change.
func (n *Network) LimitFlows(fn FlowLimiter) { n.limiter = fn }

// Handler is the one-method form of a flow's completion callback. Objects
// that start many flows (the engine's per-run op records) implement it so
// that starting a flow allocates no closure.
type Handler interface {
	// FlowDone runs inside the simulator when the flow's last byte arrives.
	FlowDone(at sim.Time)
}

// funcHandler adapts a plain completion callback to Handler.
type funcHandler func(at sim.Time)

func (f funcHandler) FlowDone(at sim.Time) { f(at) }

// instantFlow is a zero-size flow viewed as the sim event that completes it.
type instantFlow Flow

func (f *instantFlow) Fire() {
	if f.onDone != nil {
		f.onDone.FlowDone(f.net.sim.Now())
	}
	f.net.recycle((*Flow)(f))
}

// StartFlow begins transferring bytes across path. onDone, if non-nil, is
// invoked (inside the simulator) when the last byte arrives. A flow with no
// bytes or an empty path completes immediately, via a zero-delay event so
// that callbacks still run in deterministic simulator order.
func (n *Network) StartFlow(name string, path []*Link, bytes float64, onDone func(at sim.Time)) *Flow {
	var h Handler
	if onDone != nil {
		h = funcHandler(onDone)
	}
	return n.StartFlowHandler(name, path, bytes, h)
}

// StartFlowHandler is StartFlow with a Handler (nil for none) as the
// completion callback.
func (n *Network) StartFlowHandler(name string, path []*Link, bytes float64, onDone Handler) *Flow {
	if bytes < 0 {
		panic(fmt.Sprintf("simnet: flow %q has negative size %g", name, bytes))
	}
	if n.limiter != nil && bytes > 0 && len(path) > 0 {
		if cap := n.limiter(name, path, bytes); cap > 0 {
			// Realize the cap as a private trailing link: max–min sharing
			// then enforces it naturally and releases unused bandwidth.
			limited := make([]*Link, 0, len(path)+1)
			limited = append(limited, path...)
			limited = append(limited, NewLink(name+"/limit", cap))
			path = limited
		}
	}
	f := n.free
	if f != nil {
		n.free, n.nfree = f.nextFree, n.nfree-1
	} else {
		f = new(Flow)
	}
	*f = Flow{
		name:      name,
		path:      path,
		remaining: bytes,
		total:     bytes,
		onDone:    onDone,
		net:       n,
		index:     -1,
		seq:       n.flowSeq,
	}
	n.flowSeq++
	if bytes == 0 || len(path) == 0 {
		f.done = true
		n.sim.AfterHandler(0, (*instantFlow)(f))
		return f
	}
	n.advance()
	f.index = int32(len(n.flows))
	n.flows = append(n.flows, f)
	n.reallocate()
	return f
}

// Abort cancels an in-flight flow without invoking its completion callback
// and recycles it. Aborting a finished flow is a no-op while the object has
// not been reused; on a stale pointer to a reused object it cancels the flow
// that reused it (see Flow).
func (n *Network) Abort(f *Flow) {
	if f == nil || f.done {
		return
	}
	n.advance()
	n.remove(f)
	n.reallocate()
	n.recycle(f)
}

// recycle drops f's callback and path, so a parked flow keeps no links
// alive, and returns it to the free list if there is room; otherwise f is
// left to the garbage collector.
func (n *Network) recycle(f *Flow) {
	f.onDone, f.path = nil, nil
	if n.nfree < maxFree {
		f.nextFree, n.free = n.free, f
		n.nfree++
	}
}

// Sync advances all flow progress to the current instant without changing
// rates. It is useful before inspecting Remaining.
func (n *Network) Sync() { n.advance() }

// advance credits each active flow with rate*(now-lastUpdate) bytes.
func (n *Network) advance() {
	now := n.sim.Now()
	dt := now.Sub(n.lastUpdate).Seconds()
	n.lastUpdate = now
	if dt <= 0 || len(n.flows) == 0 {
		return
	}
	for _, f := range n.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
	}
}

// remove takes f out of the active set by swapping the last flow into its
// slot (O(1) instead of an O(n) scan-and-shift). The resulting order of
// n.flows is an implementation detail; everything order-sensitive —
// completion callbacks — is sorted by flow start sequence in onCompletion.
func (n *Network) remove(f *Flow) {
	f.done = true
	f.rate = 0
	i, last := int(f.index), len(n.flows)-1
	if i >= 0 && n.flows[i] == f {
		n.flows[i] = n.flows[last]
		n.flows[i].index = int32(i)
		n.flows[last] = nil
		n.flows = n.flows[:last]
	}
	f.index = -1
}

// reallocate recomputes max–min fair rates and schedules the next completion.
func (n *Network) reallocate() {
	if n.completion != nil {
		n.sim.Cancel(n.completion)
		n.completion = nil
	}
	if len(n.flows) == 0 {
		n.notifyRates()
		return
	}
	n.maxMinRates()
	n.notifyRates()
	// Next completion.
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		// All rates zero: cannot happen with positive capacities, but guard
		// against it rather than hanging the simulation.
		panic("simnet: no flow can make progress")
	}
	delay := sim.Duration(math.Ceil(next * 1e9))
	n.completion = n.sim.After(delay, n.onCompletionFn)
}

// onCompletion fires when at least one flow should have finished.
func (n *Network) onCompletion() {
	n.completion = nil
	n.advance()
	finished := n.finished[:0]
	for _, f := range n.flows {
		// Nanosecond rounding can leave a sliver; treat sub-byte remainders
		// as complete.
		if f.remaining < 1 {
			finished = append(finished, f)
		}
	}
	// swap-remove perturbs n.flows order, so sort the batch by start
	// sequence: completion callbacks fire in flow-start order, exactly as
	// they did when n.flows preserved insertion order. Insertion sort: the
	// batch is tiny (usually one flow) and already mostly sorted.
	for i := 1; i < len(finished); i++ {
		for j := i; j > 0 && finished[j-1].seq > finished[j].seq; j-- {
			finished[j-1], finished[j] = finished[j], finished[j-1]
		}
	}
	for _, f := range finished {
		f.remaining = 0
		n.remove(f)
	}
	n.reallocate()
	for _, f := range finished {
		if f.onDone != nil {
			f.onDone.FlowDone(n.sim.Now())
		}
	}
	// Recycle only once the whole batch is delivered, so a flow started by
	// one callback cannot reuse a batch member a later callback still sees.
	for i, f := range finished {
		n.recycle(f)
		finished[i] = nil
	}
	n.finished = finished[:0]
}

// maxMinRates assigns progressive-filling (max–min fair) rates to the active
// flows. Algorithm: repeatedly find the most constrained link (minimum
// residual capacity per unassigned flow), freeze that fair share onto its
// unassigned flows, subtract, and repeat until every flow has a rate.
//
// This runs on every flow arrival and completion, so it carries no per-call
// state: the per-link (residual, unassigned) pair lives on the Link itself
// behind an epoch stamp, and the distinct-link list is a scratch slice reused
// across calls. Replacing the former map[*Link]*linkState also makes the
// bottleneck scan deterministic (first-seen link order instead of map order).
func (n *Network) maxMinRates() {
	flows := n.flows
	epoch := linkEpoch.Add(1)
	n.lastMMEpoch = epoch
	links := n.links[:0]
	for _, f := range flows {
		f.rate = -1
		for _, l := range f.path {
			if l.mmEpoch != epoch {
				l.mmEpoch = epoch
				l.residual = l.capacity
				l.unassigned = 0
				l.allocRate = 0
				links = append(links, l)
			}
			l.unassigned++
		}
	}
	n.links = links
	remaining := len(flows)
	for remaining > 0 {
		// Find the bottleneck: minimum fair share among links that still
		// carry unassigned flows.
		share := math.Inf(1)
		for _, l := range links {
			if l.unassigned == 0 {
				continue
			}
			s := l.residual / float64(l.unassigned)
			if s < share {
				share = s
			}
		}
		if math.IsInf(share, 1) {
			panic("simnet: flows without links in rate allocation")
		}
		if share < 0 {
			share = 0
		}
		// Freeze every unassigned flow that crosses a link at the bottleneck
		// share. A flow is frozen at the *minimum* share over its path, which
		// at this point in progressive filling equals the global minimum for
		// flows crossing a bottleneck link.
		progress := false
		for _, f := range flows {
			if f.rate >= 0 {
				continue
			}
			limited := false
			for _, l := range f.path {
				if l.residual/float64(l.unassigned) <= share*(1+1e-12) {
					limited = true
					break
				}
			}
			if !limited {
				continue
			}
			f.rate = share
			remaining--
			progress = true
			for _, l := range f.path {
				l.residual -= share
				if l.residual < 0 {
					l.residual = 0
				}
				l.allocRate += share
				l.unassigned--
			}
		}
		if !progress {
			panic("simnet: max-min allocation made no progress")
		}
	}
}

// notifyRates reports per-link rate changes after a reallocation: a final
// zero for links that just drained, then the new rate for every active link
// whose allocation moved. Sample order is deterministic (previous-pass order
// first, then first-seen order of the current pass).
func (n *Network) notifyRates() {
	if n.obs == nil {
		return
	}
	now := n.sim.Now()
	idle := len(n.flows) == 0
	for _, l := range n.obsPrev {
		if (idle || l.mmEpoch != n.lastMMEpoch) && l.lastRate != 0 {
			l.lastRate = 0
			n.obs(now, l, 0)
		}
	}
	if idle {
		n.obsPrev = n.obsPrev[:0]
		return
	}
	for _, l := range n.links {
		if l.allocRate != l.lastRate {
			l.lastRate = l.allocRate
			n.obs(now, l, l.allocRate)
		}
	}
	n.obsPrev = append(n.obsPrev[:0], n.links...)
}
