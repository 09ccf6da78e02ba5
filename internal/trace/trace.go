// Package trace is a zero-overhead-when-disabled event recorder for the
// simulated serving stack. Every layer can append timeline events — the
// engine's per-layer exec/load/migrate spans on every GPU, the serving
// system's request-lifecycle spans and eviction/relocation instants, and
// the network's per-link bandwidth counters — against the *virtual* clock.
//
// Tracing is observation-only by construction: the recorder never schedules
// simulator events, never reads wall-clock time, and never feeds anything
// back into the layers it observes, so a traced run is byte-identical to an
// untraced one (tests assert this). When disabled, the recorder is a nil
// pointer: every method is nil-safe, and hot call sites additionally guard
// argument construction behind a nil check so the disabled path costs one
// predictable branch and zero allocations.
//
// Exporters: WriteChrome emits the Chrome trace-event JSON consumed by
// chrome://tracing and https://ui.perfetto.dev; cmd/deepplan-trace turns a
// written trace back into a queue/load/exec latency-breakdown table.
package trace

import (
	"fmt"
	"sort"

	"deepplan/internal/sim"
	"deepplan/internal/simnet"
)

// Phase is the Chrome trace-event phase of an Event.
type Phase byte

// Event phases (a subset of the Chrome trace-event format).
const (
	PhaseSpan       Phase = 'X' // complete event with duration
	PhaseInstant    Phase = 'i' // zero-duration mark
	PhaseCounter    Phase = 'C' // counter sample
	PhaseAsyncBegin Phase = 'b' // async span begin (overlap-safe)
	PhaseAsyncEnd   Phase = 'e' // async span end
)

// Track IDs within a GPU's process. The engine owns exec/load/migrate
// (mirroring its three CUDA streams); the serving layer owns queue and
// lifecycle.
const (
	TIDExec      = 0 // execution-stream spans (per layer)
	TIDLoad      = 1 // host→GPU PCIe copy spans
	TIDMigrate   = 2 // GPU→GPU NVLink forwarding spans
	TIDQueue     = 3 // serving queue spans
	TIDLifecycle = 4 // request async rows + serving instants
	TIDCounter   = 5 // counter samples (memory occupancy)
)

// Pseudo-process IDs. The exporter remaps them past the largest real GPU
// pid. FabricPID carries per-link bandwidth counters; ServerPID carries
// server-wide serving events that belong to no single GPU (waitlist
// parks/drains).
const (
	FabricPID = -1
	ServerPID = -2
)

// Event is one recorded timeline entry. Fields beyond (Phase, PID, TID, TS,
// Name) are phase-specific: Dur for spans, Value for counters, ID for async
// pairs, Args for everything optional.
type Event struct {
	Phase Phase
	PID   int
	TID   int
	TS    sim.Time
	Dur   sim.Duration
	ID    int64
	Value float64
	Name  string
	Cat   string
	Args  map[string]any
}

// Recorder accumulates events in memory. The zero value is usable; a nil
// *Recorder is the disabled state and accepts (and drops) every call.
//
// A Recorder may also be a node view (see Node): a lightweight handle that
// remaps PIDs into a per-node range and buffers its node's events until
// MergeViews folds every view into the root recorder's stream. Node views
// let N independent serving nodes share one timeline: each node's GPUs,
// fabric, and server become distinct Perfetto processes instead of
// colliding on GPU ids.
type Recorder struct {
	events  []Event
	asyncID int64
	// pidNames carries display names for remapped process ids (registered
	// by Node); the Chrome exporter consults it before its default naming.
	pidNames map[int]string
	// views lists the node views handed out by Node, in creation order;
	// root recorders only.
	views []*Recorder

	// Node-view fields; zero for a root recorder.
	root    *Recorder // non-nil marks this recorder as a view into root
	node    int
	pidBase int
	numGPUs int
}

// New returns an empty, enabled Recorder.
func New() *Recorder { return &Recorder{} }

// sink returns the recorder that owns the event storage: the root for a
// node view, r itself otherwise.
func (r *Recorder) sink() *Recorder {
	if r.root != nil {
		return r.root
	}
	return r
}

// mapPID translates a caller-side process id through the view's node range.
// Root recorders are the identity. Views shift real GPU ids by the node's
// base and give the fabric/server pseudo-processes per-node positive ids
// (the exporter's negative-pid remapping is for the root's single-node use).
func (r *Recorder) mapPID(pid int) int {
	if r.root == nil {
		return pid
	}
	switch pid {
	case FabricPID:
		return r.pidBase + r.numGPUs
	case ServerPID:
		return r.pidBase + r.numGPUs + 1
	default:
		return r.pidBase + pid
	}
}

// add maps the event's PID through the view and appends it to the view's
// own buffer (root recorders append to the final stream directly). Buffered
// view events become visible in the root stream only after MergeViews.
// Callers have already nil-checked r.
func (r *Recorder) add(e Event) {
	e.PID = r.mapPID(e.PID)
	r.events = append(r.events, e)
}

// Node returns a view of r for cluster node n of servers with numGPUs GPUs
// each: events recorded through the view land in r with their PIDs shifted
// into the node's range, and the node's GPU/fabric/server processes are
// registered with "node<n> ..." display names so Perfetto shows one track
// group per node. A nil recorder returns nil (tracing stays disabled);
// views of views share the same root.
func (r *Recorder) Node(n, numGPUs int) *Recorder {
	if r == nil {
		return nil
	}
	root := r.sink()
	stride := numGPUs + 2 // GPUs plus per-node fabric and server processes
	v := &Recorder{root: root, node: n, pidBase: n * stride, numGPUs: numGPUs}
	root.views = append(root.views, v)
	if root.pidNames == nil {
		root.pidNames = make(map[int]string)
	}
	for g := 0; g < numGPUs; g++ {
		root.pidNames[v.pidBase+g] = fmt.Sprintf("node%d GPU%d", n, g)
	}
	root.pidNames[v.pidBase+numGPUs] = fmt.Sprintf("node%d fabric", n)
	root.pidNames[v.pidBase+numGPUs+1] = fmt.Sprintf("node%d server", n)
	return v
}

// NamePID registers a display name for a process id, overriding the Chrome
// exporter's default naming ("GPU n", "server", ...). The cluster layer
// names its router process with this; Node registers its per-node names
// through the same table.
func (r *Recorder) NamePID(pid int, name string) {
	if r == nil {
		return
	}
	root := r.sink()
	if root.pidNames == nil {
		root.pidNames = make(map[int]string)
	}
	root.pidNames[r.mapPID(pid)] = name
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Len returns the number of recorded events. For a node view this counts
// the root's merged stream; call MergeViews on the root first to fold in
// still-buffered view events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.sink().events)
}

// Events exposes the recorded events in insertion order (read-only use).
// For a node view this is the root's full stream; view-buffered events
// appear only after MergeViews.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.sink().events
}

// MergeViews folds every node view's buffered events into the root stream
// and empties the view buffers. The merge is deterministic: events are
// ordered by timestamp, with the root's own events first among equals and
// node views following in node order; events from the same source keep
// their recording order. This (timestamp, source) order defines the byte
// order of every cluster trace: it depends only on what each node recorded.
// Safe to call repeatedly; a nil or view recorder is a no-op.
func (r *Recorder) MergeViews() {
	if r == nil || r.root != nil || len(r.views) == 0 {
		return
	}
	type tagged struct {
		src int // -1 for root events, view index otherwise
		e   Event
	}
	n := len(r.events)
	for _, v := range r.views {
		n += len(v.events)
	}
	all := make([]tagged, 0, n)
	for _, e := range r.events {
		all = append(all, tagged{src: -1, e: e})
	}
	for i, v := range r.views {
		for _, e := range v.events {
			all = append(all, tagged{src: i, e: e})
		}
		v.events = nil
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].e.TS != all[b].e.TS {
			return all[a].e.TS < all[b].e.TS
		}
		return all[a].src < all[b].src
	})
	merged := make([]Event, len(all))
	for i := range all {
		merged[i] = all[i].e
	}
	r.events = merged
}

// NextID hands out a fresh async-span ID, unique across all views of the
// same root.
func (r *Recorder) NextID() int64 {
	if r == nil {
		return 0
	}
	s := r.sink()
	s.asyncID++
	return s.asyncID
}

// Span records a complete span [start, end) on the given track.
func (r *Recorder) Span(pid, tid int, cat, name string, start, end sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseSpan, PID: pid, TID: tid, TS: start,
		Dur: end.Sub(start), Name: name, Cat: cat,
	})
}

// SpanArgs is Span with attached arguments. Callers must guard the args
// construction behind Enabled to keep the disabled path allocation-free.
func (r *Recorder) SpanArgs(pid, tid int, cat, name string, start, end sim.Time, args map[string]any) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseSpan, PID: pid, TID: tid, TS: start,
		Dur: end.Sub(start), Name: name, Cat: cat, Args: args,
	})
}

// Instant records a zero-duration mark (rendered as an arrow in Perfetto).
func (r *Recorder) Instant(pid, tid int, cat, name string, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseInstant, PID: pid, TID: tid, TS: at, Name: name, Cat: cat,
	})
}

// InstantArgs is Instant with attached arguments.
func (r *Recorder) InstantArgs(pid, tid int, cat, name string, at sim.Time, args map[string]any) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseInstant, PID: pid, TID: tid, TS: at, Name: name, Cat: cat, Args: args,
	})
}

// Counter records one sample of the named counter track.
func (r *Recorder) Counter(pid int, name string, at sim.Time, value float64) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseCounter, PID: pid, TID: TIDCounter, TS: at, Name: name, Value: value,
	})
}

// AsyncBegin opens an async span. Async spans with the same (cat, id) nest,
// and unlike Span they render correctly when spans on one track overlap —
// which concurrent requests queued on one GPU always do.
func (r *Recorder) AsyncBegin(pid int, cat, name string, id int64, at sim.Time, args map[string]any) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseAsyncBegin, PID: pid, TID: TIDLifecycle, TS: at,
		ID: id, Name: name, Cat: cat, Args: args,
	})
}

// AsyncEnd closes an async span opened with the same (cat, name, id).
func (r *Recorder) AsyncEnd(pid int, cat, name string, id int64, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseAsyncEnd, PID: pid, TID: TIDLifecycle, TS: at,
		ID: id, Name: name, Cat: cat,
	})
}

// AttachNetwork subscribes the recorder to n's per-link rate changes and
// records them as counter tracks (in GB/s) under the fabric pseudo-process,
// which is how Perfetto renders the paper's §3.2 bandwidth-collapse curve.
// Attach before starting flows; a nil recorder attaches nothing, keeping
// the network's hot path untouched.
func (r *Recorder) AttachNetwork(n *simnet.Network) {
	if r == nil || n == nil {
		return
	}
	// The counter-name string per link is built once and cached: rate
	// changes fire on every flow arrival/completion.
	names := map[*simnet.Link]string{}
	n.ObserveRates(func(at sim.Time, l *simnet.Link, bytesPerSec float64) {
		name, ok := names[l]
		if !ok {
			name = l.Name() + " (GB/s)"
			names[l] = name
		}
		r.Counter(FabricPID, name, at, bytesPerSec/1e9)
	})
}
