// Package faults injects deterministic hardware-misbehaviour events into a
// running simulation: GPU failure and recovery, PCIe link degradation,
// straggler transfers, and host-memory pressure.
//
// The paper's serving system (§5.3) assumes healthy GPUs and stable PCIe
// bandwidth; production serving cannot. Because every substrate in this
// repository is driven by the deterministic discrete-event simulator, fault
// scenarios are cheap to explore and reproduce byte-for-byte: a fault
// schedule is data (a parsed spec or a seeded generator output), and
// replaying the same schedule against the same workload yields the identical
// timeline, report, and trace.
//
// A Schedule is a list of timed Events. Install arms them against a concrete
// simulator/network/topology triple and returns an Injector. Each event kind
// maps onto one simulation mechanism:
//
//   - GPUFail/recovery drives the Hooks callbacks; the serving layer wires
//     these to engine.FailGPU/RecoverGPU and its own placement tables.
//   - LinkDegrade calls simnet.Network.SetLinkCapacity, re-sharing in-flight
//     flows at the reduced rate, and restores the original capacity when the
//     window closes.
//   - Straggler installs a simnet.FlowLimiter that caps matching flows
//     started inside the window to 1/Factor of their narrowest path link.
//   - MemPressure scales every PCIe switch uplink (the host side of all
//     copies and direct-host-access reads) by Fraction for the window,
//     modelling pinned-host-memory bandwidth collapse under allocation
//     pressure.
//
// Schedules come from Parse (an operator-written spec string, see the
// grammar on Parse) or Generate (a seeded pseudo-random scenario). Both are
// pure functions of their inputs: no wall-clock time, no global randomness.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
)

// Kind identifies the class of an injected fault.
type Kind int

// Fault kinds.
const (
	// GPUFail takes a GPU out of service at At: in-flight runs on it abort
	// and new placements avoid it. If For is positive, the GPU recovers at
	// At+For; otherwise the failure is permanent.
	GPUFail Kind = iota
	// LinkDegrade cuts one link's capacity to Fraction of its installed
	// value for the window [At, At+For). In-flight flows re-share the
	// reduced bandwidth immediately.
	LinkDegrade
	// Straggler slows individual transfers: flows whose name starts with
	// Match (any flow when Match is empty) and that start inside the window
	// are capped to 1/Factor of their narrowest path link.
	Straggler
	// MemPressure scales every switch uplink by Fraction for the window,
	// modelling host-memory bandwidth collapse that slows all host→GPU
	// traffic at once.
	MemPressure

	// NumKinds bounds the enum for per-kind instrument tables.
	NumKinds = int(MemPressure) + 1
)

// String returns the kind's spec-grammar keyword.
func (k Kind) String() string {
	switch k {
	case GPUFail:
		return "gpu"
	case LinkDegrade:
		return "link"
	case Straggler:
		return "straggler"
	case MemPressure:
		return "mem"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault. Which fields are meaningful depends on Kind;
// see the Kind constants.
type Event struct {
	Kind Kind
	// At is the window open instant.
	At sim.Time
	// For is the window length. Zero means permanent for GPUFail and is
	// invalid for the other kinds.
	For sim.Duration
	// GPU is the failing device (GPUFail).
	GPU int
	// Link names the degraded link (LinkDegrade); full name or the suffix
	// after the topology prefix, as resolved by topology.FindLink.
	Link string
	// Fraction is the capacity multiplier in (0, 1) (LinkDegrade,
	// MemPressure).
	Fraction float64
	// Factor is the slowdown divisor, > 1 (Straggler).
	Factor float64
	// Match is the flow-name prefix filter; empty matches every flow
	// (Straggler).
	Match string
}

// clause renders the event in the Parse grammar.
func (e Event) clause() string {
	window := "@" + sim.Duration(e.At).String()
	if e.For > 0 {
		window += "+" + e.For.String()
	}
	switch e.Kind {
	case GPUFail:
		return fmt.Sprintf("gpu=%d%s", e.GPU, window)
	case LinkDegrade:
		return fmt.Sprintf("link=%s*%g%s", e.Link, e.Fraction, window)
	case Straggler:
		return fmt.Sprintf("straggler=%s/%g%s", e.Match, e.Factor, window)
	case MemPressure:
		return fmt.Sprintf("mem=%g%s", e.Fraction, window)
	default:
		return fmt.Sprintf("?%d%s", int(e.Kind), window)
	}
}

// validate checks field ranges that do not need a topology.
func (e Event) validate() error {
	if e.At < 0 {
		return fmt.Errorf("faults: %s event at negative time %v", e.Kind, e.At)
	}
	if e.For < 0 {
		return fmt.Errorf("faults: %s event with negative duration %v", e.Kind, e.For)
	}
	if e.At > sim.MaxTime-sim.Time(e.For) {
		return fmt.Errorf("faults: %s event window %v+%v overflows the clock", e.Kind, e.At, e.For)
	}
	switch e.Kind {
	case GPUFail:
		if e.GPU < 0 {
			return fmt.Errorf("faults: gpu event with negative GPU %d", e.GPU)
		}
	case LinkDegrade:
		if e.Link == "" {
			return fmt.Errorf("faults: link event without a link name")
		}
		if !(e.Fraction > 0 && e.Fraction < 1) {
			return fmt.Errorf("faults: link fraction %g outside (0, 1)", e.Fraction)
		}
		if e.For == 0 {
			return fmt.Errorf("faults: link event needs a +duration window")
		}
	case Straggler:
		if !(e.Factor > 1) || math.IsInf(e.Factor, 1) {
			return fmt.Errorf("faults: straggler factor %g must be finite and exceed 1", e.Factor)
		}
		if e.For == 0 {
			return fmt.Errorf("faults: straggler event needs a +duration window")
		}
	case MemPressure:
		if !(e.Fraction > 0 && e.Fraction < 1) {
			return fmt.Errorf("faults: mem fraction %g outside (0, 1)", e.Fraction)
		}
		if e.For == 0 {
			return fmt.Errorf("faults: mem event needs a +duration window")
		}
	default:
		return fmt.Errorf("faults: unknown event kind %d", int(e.Kind))
	}
	return nil
}

// Schedule is an ordered set of fault events plus an optional seeded
// expansion request resolved at Install time (when the topology is known).
type Schedule struct {
	Events []Event
	// Rand, when non-nil, asks Install to append Generate(Rand..., topo)
	// to Events. It exists so a single spec string ("rand=7/6@60s") can
	// request a reproducible random scenario without naming links.
	Rand *RandSpec
}

// RandSpec parameterizes the seeded scenario generator.
type RandSpec struct {
	Seed    uint64
	Count   int
	Horizon sim.Duration
}

// Empty reports whether the schedule would inject nothing.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Events) == 0 && s.Rand == nil)
}

// String renders the schedule back into the Parse grammar. Parsing the
// result yields an equivalent schedule, which is how replay tests assert
// spec round-tripping.
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	parts := make([]string, 0, len(s.Events)+1)
	for _, e := range s.Events {
		parts = append(parts, e.clause())
	}
	if s.Rand != nil {
		parts = append(parts, fmt.Sprintf("rand=%d/%d@%s",
			s.Rand.Seed, s.Rand.Count, s.Rand.Horizon))
	}
	return strings.Join(parts, ";")
}

// Parse builds a Schedule from a spec string: semicolon-separated clauses,
// each `kind=args@start[+duration]` with durations in Go syntax ("1.5s",
// "200ms"). Whitespace around clauses is ignored. The clause forms are:
//
//	gpu=<id>@<start>[+<dur>]        GPU <id> fails; recovers after <dur>
//	                                (omitted: permanent)
//	link=<name>*<frac>@<start>+<dur> link capacity cut to <frac> (0<frac<1)
//	straggler=<prefix>/<factor>@<start>+<dur>
//	                                flows named <prefix>* started in the
//	                                window run at 1/<factor> speed; an empty
//	                                or "*" prefix matches all flows
//	mem=<frac>@<start>+<dur>        all uplinks scaled to <frac>
//	rand=<seed>/<count>@<horizon>   append <count> generated events over
//	                                [0, horizon) (see Generate)
//
// Example: "link=gpu0-lane*0.3@1s+10s; gpu=1@2s+5s; straggler=copy/4@0s+20s".
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, raw := range strings.Split(spec, ";") {
		clause := strings.TrimSpace(raw)
		if clause == "" {
			continue
		}
		key, rest, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		key = strings.TrimSpace(key)
		if key == "rand" {
			rs, err := parseRand(rest)
			if err != nil {
				return nil, err
			}
			if s.Rand != nil {
				return nil, fmt.Errorf("faults: multiple rand clauses")
			}
			s.Rand = rs
			continue
		}
		e, err := parseEvent(key, rest)
		if err != nil {
			return nil, err
		}
		if err := e.validate(); err != nil {
			return nil, err
		}
		s.Events = append(s.Events, e)
	}
	if s.Empty() {
		return nil, fmt.Errorf("faults: spec %q contains no events", spec)
	}
	return s, nil
}

// parseEvent parses one non-rand clause body.
func parseEvent(key, rest string) (Event, error) {
	body, window, ok := strings.Cut(rest, "@")
	if !ok {
		return Event{}, fmt.Errorf("faults: %s clause needs @start", key)
	}
	at, dur, err := parseWindow(window)
	if err != nil {
		return Event{}, fmt.Errorf("faults: %s clause: %w", key, err)
	}
	e := Event{At: at, For: dur}
	body = strings.TrimSpace(body)
	switch key {
	case "gpu":
		e.Kind = GPUFail
		e.GPU, err = strconv.Atoi(body)
		if err != nil {
			return Event{}, fmt.Errorf("faults: bad GPU id %q", body)
		}
	case "link":
		e.Kind = LinkDegrade
		name, frac, ok := strings.Cut(body, "*")
		if !ok {
			return Event{}, fmt.Errorf("faults: link clause %q needs <name>*<fraction>", body)
		}
		e.Link = strings.TrimSpace(name)
		e.Fraction, err = strconv.ParseFloat(strings.TrimSpace(frac), 64)
		if err != nil {
			return Event{}, fmt.Errorf("faults: bad link fraction %q", frac)
		}
	case "straggler":
		e.Kind = Straggler
		match, factor, ok := strings.Cut(body, "/")
		if !ok {
			// Bare factor: applies to every flow.
			match, factor = "", body
		}
		e.Match = strings.TrimSpace(match)
		if e.Match == "*" {
			e.Match = ""
		}
		e.Factor, err = strconv.ParseFloat(strings.TrimSpace(factor), 64)
		if err != nil {
			return Event{}, fmt.Errorf("faults: bad straggler factor %q", factor)
		}
	case "mem":
		e.Kind = MemPressure
		e.Fraction, err = strconv.ParseFloat(body, 64)
		if err != nil {
			return Event{}, fmt.Errorf("faults: bad mem fraction %q", body)
		}
	default:
		return Event{}, fmt.Errorf("faults: unknown clause kind %q", key)
	}
	return e, nil
}

// parseWindow parses "<start>[+<dur>]".
func parseWindow(s string) (sim.Time, sim.Duration, error) {
	start, durStr, hasDur := strings.Cut(s, "+")
	at, err := time.ParseDuration(strings.TrimSpace(start))
	if err != nil {
		return 0, 0, fmt.Errorf("bad start %q", start)
	}
	var dur sim.Duration
	if hasDur {
		dur, err = time.ParseDuration(strings.TrimSpace(durStr))
		if err != nil {
			return 0, 0, fmt.Errorf("bad duration %q", durStr)
		}
	}
	return sim.Time(0).Add(at), dur, nil
}

// parseRand parses "<seed>/<count>@<horizon>".
func parseRand(rest string) (*RandSpec, error) {
	body, horizon, ok := strings.Cut(rest, "@")
	if !ok {
		return nil, fmt.Errorf("faults: rand clause needs @horizon")
	}
	seedStr, countStr, ok := strings.Cut(body, "/")
	if !ok {
		return nil, fmt.Errorf("faults: rand clause %q needs <seed>/<count>", body)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("faults: bad rand seed %q", seedStr)
	}
	count, err := strconv.Atoi(strings.TrimSpace(countStr))
	if err != nil || count <= 0 {
		return nil, fmt.Errorf("faults: bad rand count %q", countStr)
	}
	h, err := time.ParseDuration(strings.TrimSpace(horizon))
	if err != nil || h <= 0 {
		return nil, fmt.Errorf("faults: bad rand horizon %q", horizon)
	}
	return &RandSpec{Seed: seed, Count: count, Horizon: h}, nil
}

// prng is a splitmix64 generator. The package carries its own PRNG instead
// of math/rand so that fault generation stays inside the determinism-linted
// dependency set: the sequence is a pure function of the seed on every
// platform and Go version.
type prng struct{ state uint64 }

func (r *prng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// Generate builds a reproducible pseudo-random schedule of n events over
// [0, horizon) against the given topology. The same (seed, n, horizon,
// topology) always yields the same schedule. GPU 0 is never failed, so a
// generated scenario always leaves at least one servable device; degraded
// links are drawn from the per-GPU lanes.
func Generate(seed uint64, n int, horizon sim.Duration, topo *topology.Topology) *Schedule {
	r := &prng{state: seed}
	s := &Schedule{}
	window := func() (sim.Time, sim.Duration) {
		at := sim.Time(float64(horizon) * 0.8 * r.float())
		dur := sim.Duration(float64(horizon) * (0.05 + 0.2*r.float()))
		return at, dur
	}
	for i := 0; i < n; i++ {
		at, dur := window()
		switch r.intn(4) {
		case 0:
			if topo.NumGPUs() < 2 {
				// Cannot fail a GPU and stay servable; degrade a link instead.
				s.Events = append(s.Events, Event{
					Kind: LinkDegrade, At: at, For: dur,
					Link: topo.GPUs[0].Lane.Name(), Fraction: 0.2 + 0.5*r.float(),
				})
				continue
			}
			s.Events = append(s.Events, Event{
				Kind: GPUFail, At: at, For: dur,
				GPU: 1 + r.intn(topo.NumGPUs()-1),
			})
		case 1:
			g := topo.GPUs[r.intn(topo.NumGPUs())]
			s.Events = append(s.Events, Event{
				Kind: LinkDegrade, At: at, For: dur,
				Link: g.Lane.Name(), Fraction: 0.2 + 0.5*r.float(),
			})
		case 2:
			match := ""
			if r.intn(2) == 1 {
				match = "copy"
			}
			s.Events = append(s.Events, Event{
				Kind: Straggler, At: at, For: dur,
				Match: match, Factor: 2 + 4*r.float(),
			})
		default:
			s.Events = append(s.Events, Event{
				Kind: MemPressure, At: at, For: dur,
				Fraction: 0.4 + 0.4*r.float(),
			})
		}
	}
	s.sort()
	return s
}

// sort orders events by open instant, then kind, for stable installation.
func (s *Schedule) sort() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		if s.Events[i].At != s.Events[j].At {
			return s.Events[i].At < s.Events[j].At
		}
		return s.Events[i].Kind < s.Events[j].Kind
	})
}

// Hooks are the callbacks an Injector drives. All are optional; a nil hook
// is skipped.
type Hooks struct {
	// GPUDown fires when a GPUFail window opens. The serving layer routes
	// it to engine.FailGPU and its placement state.
	GPUDown func(gpu int)
	// GPUUp fires when a failed GPU recovers.
	GPUUp func(gpu int)
	// OnEvent observes every window transition: opening (active=true) and
	// closing (active=false). Observers must not perturb the simulation
	// beyond what the fault itself does (e.g. trace recording is fine).
	OnEvent func(e Event, active bool)
}

// Injector is an armed fault schedule. Its only runtime query is Active,
// which the serving layer uses to mark requests completed under degraded
// conditions.
type Injector struct {
	sim    *sim.Simulator
	active int

	// stragglers holds the straggler windows behind the FlowLimiter; the
	// limiter consults open windows at flow-start time.
	stragglers []Event
}

// Active returns the number of fault windows currently open.
func (inj *Injector) Active() int { return inj.active }

// Install validates sched against topo, expands its Rand spec if present,
// and arms every event on s. The simulator must still be at an instant no
// later than the earliest event (schedules are normally installed before
// the run starts). Straggler events register a simnet.FlowLimiter on net,
// replacing any previously registered limiter.
func Install(s *sim.Simulator, net *simnet.Network, topo *topology.Topology,
	sched *Schedule, hooks Hooks) (*Injector, error) {
	if sched.Empty() {
		return nil, fmt.Errorf("faults: empty schedule")
	}
	events := make([]Event, len(sched.Events))
	copy(events, sched.Events)
	if sched.Rand != nil {
		events = append(events, Generate(sched.Rand.Seed, sched.Rand.Count,
			sched.Rand.Horizon, topo).Events...)
	}
	inj := &Injector{sim: s}
	for _, e := range events {
		if err := e.validate(); err != nil {
			return nil, err
		}
		if err := inj.arm(s, net, topo, e, hooks); err != nil {
			return nil, err
		}
	}
	if len(inj.stragglers) > 0 {
		net.LimitFlows(inj.limit)
	}
	return inj, nil
}

// arm schedules one event's open and close transitions.
func (inj *Injector) arm(s *sim.Simulator, net *simnet.Network,
	topo *topology.Topology, e Event, hooks Hooks) error {
	open := func(fn func()) {
		s.At(e.At, func() {
			inj.active++
			fn()
			if hooks.OnEvent != nil {
				hooks.OnEvent(e, true)
			}
		})
	}
	close := func(fn func()) {
		if e.For <= 0 {
			return // permanent
		}
		s.At(e.At.Add(e.For), func() {
			inj.active--
			fn()
			if hooks.OnEvent != nil {
				hooks.OnEvent(e, false)
			}
		})
	}
	switch e.Kind {
	case GPUFail:
		if topo.GPU(e.GPU) == nil {
			return fmt.Errorf("faults: gpu %d not in topology %s", e.GPU, topo.Name)
		}
		open(func() {
			if hooks.GPUDown != nil {
				hooks.GPUDown(e.GPU)
			}
		})
		close(func() {
			if hooks.GPUUp != nil {
				hooks.GPUUp(e.GPU)
			}
		})
	case LinkDegrade:
		l := topo.FindLink(e.Link)
		if l == nil {
			return fmt.Errorf("faults: link %q not in topology %s", e.Link, topo.Name)
		}
		// The restore target is the installed capacity, captured now:
		// overlapping degrade windows on one link are last-write-wins and
		// both restore to the original value.
		orig := l.Capacity()
		degraded := orig * e.Fraction
		open(func() { net.SetLinkCapacity(l, degraded) })
		close(func() { net.SetLinkCapacity(l, orig) })
	case Straggler:
		inj.stragglers = append(inj.stragglers, e)
		open(func() {})
		close(func() {})
	case MemPressure:
		origs := make([]float64, len(topo.Uplinks))
		for i, l := range topo.Uplinks {
			origs[i] = l.Capacity()
		}
		open(func() {
			for i, l := range topo.Uplinks {
				net.SetLinkCapacity(l, origs[i]*e.Fraction)
			}
		})
		close(func() {
			for i, l := range topo.Uplinks {
				net.SetLinkCapacity(l, origs[i])
			}
		})
	}
	return nil
}

// limit is the FlowLimiter consulted at every flow start: flows matching an
// open straggler window are capped to 1/Factor of their narrowest path
// link. Overlapping windows take the tightest cap. It is a pure function of
// the flow and virtual time, as simnet requires.
func (inj *Injector) limit(name string, path []*simnet.Link, bytes float64) float64 {
	now := inj.sim.Now()
	cap := 0.0
	for i := range inj.stragglers {
		e := &inj.stragglers[i]
		if now < e.At || now >= e.At.Add(e.For) {
			continue
		}
		if e.Match != "" && !strings.HasPrefix(name, e.Match) {
			continue
		}
		narrow := path[0].Capacity()
		for _, l := range path[1:] {
			if l.Capacity() < narrow {
				narrow = l.Capacity()
			}
		}
		if c := narrow / e.Factor; cap == 0 || c < cap {
			cap = c
		}
	}
	return cap
}
