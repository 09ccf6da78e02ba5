package faults

import (
	"strings"
	"testing"

	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
)

func TestParseFullGrammar(t *testing.T) {
	s, err := Parse("gpu=1@2s+5s; link=gpu0-lane*0.3@1s+10s; straggler=copy/4@0s+20s; mem=0.5@5s+5s; rand=7/3@60s")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(s.Events))
	}
	g := s.Events[0]
	if g.Kind != GPUFail || g.GPU != 1 || g.At != sim.Time(2*sim.Second) || g.For != 5*sim.Second {
		t.Fatalf("gpu event = %+v", g)
	}
	l := s.Events[1]
	if l.Kind != LinkDegrade || l.Link != "gpu0-lane" || l.Fraction != 0.3 {
		t.Fatalf("link event = %+v", l)
	}
	st := s.Events[2]
	if st.Kind != Straggler || st.Match != "copy" || st.Factor != 4 {
		t.Fatalf("straggler event = %+v", st)
	}
	m := s.Events[3]
	if m.Kind != MemPressure || m.Fraction != 0.5 {
		t.Fatalf("mem event = %+v", m)
	}
	if s.Rand == nil || s.Rand.Seed != 7 || s.Rand.Count != 3 || s.Rand.Horizon != 60*sim.Second {
		t.Fatalf("rand spec = %+v", s.Rand)
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	bad := []string{
		"",
		"gpu=1",                    // no window
		"gpu=x@1s",                 // bad id
		"link=lane@1s+1s",          // missing fraction
		"link=lane*1.5@1s+1s",      // fraction out of range
		"link=lane*0.5@1s",         // no duration
		"straggler=copy/1@1s+1s",   // factor must exceed 1
		"mem=0@1s+1s",              // fraction out of range
		"bogus=1@1s",               // unknown kind
		"gpu=1@-1s+1s",             // negative start
		"rand=7/0@60s",             // zero count
		"link=lane*NaN@1s+1s",      // NaN fraction
		"straggler=copy/NaN@1s+1s", // NaN factor
		"straggler=copy/Inf@1s+1s", // infinite factor
		"mem=NaN@1s+1s",            // NaN fraction
		"gpu=1@9223372036s+1s",     // window end overflows the clock
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestScheduleStringRoundTrips(t *testing.T) {
	spec := "gpu=1@2s+5s;link=gpu0-lane*0.3@1s+10s;straggler=copy/4@0s+20s;mem=0.5@5s+5s;rand=7/3@1m0s"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.String(), err)
	}
	if s.String() != again.String() {
		t.Fatalf("round trip %q != %q", s.String(), again.String())
	}
}

func TestGenerateIsDeterministicAndServable(t *testing.T) {
	topo := topology.P38xlarge()
	a := Generate(42, 12, 60*sim.Second, topo)
	b := Generate(42, 12, 60*sim.Second, topo)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n%s", a.String(), b.String())
	}
	c := Generate(43, 12, 60*sim.Second, topo)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, e := range a.Events {
		if err := e.validate(); err != nil {
			t.Errorf("generated invalid event %+v: %v", e, err)
		}
		if e.Kind == GPUFail && e.GPU == 0 {
			t.Error("generator failed GPU 0")
		}
		if e.At < 0 || sim.Duration(e.At)+e.For > 60*sim.Second {
			t.Errorf("event window %v+%v escapes the horizon", e.At, e.For)
		}
	}
}

func TestInstallValidatesAgainstTopology(t *testing.T) {
	topo := topology.P38xlarge()
	s := sim.New()
	net := simnet.New(s)
	cases := []string{
		"gpu=9@1s+1s",         // no such GPU
		"link=nope*0.5@1s+1s", // no such link
	}
	for _, spec := range cases {
		sched, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Install(s, net, topo, sched, Hooks{}); err == nil {
			t.Errorf("Install(%q) accepted", spec)
		}
	}
}

func TestInstallDrivesGPUHooksAndActiveCount(t *testing.T) {
	topo := topology.P38xlarge()
	s := sim.New()
	net := simnet.New(s)
	sched, err := Parse("gpu=2@1s+3s")
	if err != nil {
		t.Fatal(err)
	}
	var downAt, upAt sim.Time
	var transitions []string
	inj, err := Install(s, net, topo, sched, Hooks{
		GPUDown: func(g int) {
			if g != 2 {
				t.Errorf("GPUDown(%d), want 2", g)
			}
			downAt = s.Now()
		},
		GPUUp: func(g int) { upAt = s.Now() },
		OnEvent: func(e Event, active bool) {
			transitions = append(transitions, e.Kind.String()+map[bool]string{true: "+", false: "-"}[active])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(sim.Time(2 * sim.Second))
	if inj.Active() != 1 {
		t.Fatalf("Active() = %d mid-window, want 1", inj.Active())
	}
	s.Run()
	if inj.Active() != 0 {
		t.Fatalf("Active() = %d after close, want 0", inj.Active())
	}
	if downAt != sim.Time(sim.Second) || upAt != sim.Time(4*sim.Second) {
		t.Fatalf("down at %v, up at %v; want 1s and 4s", downAt, upAt)
	}
	if got := strings.Join(transitions, ","); got != "gpu+,gpu-" {
		t.Fatalf("transitions = %s", got)
	}
}

func TestLinkDegradeSlowsAndRestores(t *testing.T) {
	topo := topology.P38xlarge()
	s := sim.New()
	net := simnet.New(s)
	lane := topo.GPUs[0].Lane
	orig := lane.Capacity()
	sched, err := Parse("link=gpu0-lane*0.5@1s+2s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Install(s, net, topo, sched, Hooks{}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(sim.Time(2 * sim.Second))
	if lane.Capacity() != orig*0.5 {
		t.Fatalf("mid-window capacity %g, want %g", lane.Capacity(), orig*0.5)
	}
	s.Run()
	if lane.Capacity() != orig {
		t.Fatalf("restored capacity %g, want %g", lane.Capacity(), orig)
	}
}

func TestMemPressureScalesAllUplinks(t *testing.T) {
	topo := topology.P38xlarge()
	s := sim.New()
	net := simnet.New(s)
	origs := []float64{topo.Uplinks[0].Capacity(), topo.Uplinks[1].Capacity()}
	sched, err := Parse("mem=0.25@1s+2s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Install(s, net, topo, sched, Hooks{}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(sim.Time(2 * sim.Second))
	for i, l := range topo.Uplinks {
		if l.Capacity() != origs[i]*0.25 {
			t.Fatalf("uplink %d mid-window capacity %g, want %g", i, l.Capacity(), origs[i]*0.25)
		}
	}
	s.Run()
	for i, l := range topo.Uplinks {
		if l.Capacity() != origs[i] {
			t.Fatalf("uplink %d not restored", i)
		}
	}
}

func TestStragglerCapsFlowsInsideWindow(t *testing.T) {
	topo := topology.P38xlarge()
	s := sim.New()
	net := simnet.New(s)
	sched, err := Parse("straggler=copy/10@1s+10s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Install(s, net, topo, sched, Hooks{}); err != nil {
		t.Fatal(err)
	}
	lane := topo.GPUs[0].Lane
	bw := lane.Capacity()
	var before, inside, other sim.Time
	// Started before the window: full speed (limits apply at start time).
	net.StartFlow("copy:a", []*simnet.Link{lane}, bw, func(at sim.Time) { before = at })
	s.At(sim.Time(2*sim.Second), func() {
		// Started inside the window and matching: capped to bw/10.
		net.StartFlow("copy:b", []*simnet.Link{lane}, bw, func(at sim.Time) { inside = at })
		// Non-matching name: uncapped.
		net.StartFlow("dha:c", []*simnet.Link{lane}, bw, func(at sim.Time) { other = at })
	})
	s.Run()
	if before.Seconds() >= 1.001 {
		t.Fatalf("pre-window flow done at %v, want ~1s", before)
	}
	// The capped flow holds bw/10; the uncapped one takes the rest (0.9 bw)
	// and finishes bw bytes in ~1.11s; the straggler needs ~10s.
	if got := inside.Seconds() - 2; got < 9.9 || got > 10.2 {
		t.Fatalf("straggler took %.3fs, want ~10s", got)
	}
	if got := other.Seconds() - 2; got > 1.3 {
		t.Fatalf("unmatched flow took %.3fs, want ~1.1s", got)
	}
}
