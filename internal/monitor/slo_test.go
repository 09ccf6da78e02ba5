package monitor

import (
	"testing"

	"deepplan/internal/sim"
	"deepplan/internal/trace"
)

// Drive the burn monitor with a synthetic traffic tape: clean traffic,
// then a total cold-latency outage, then recovery. The fast-burn page must
// fire only once BOTH the short and the long window burn past the
// threshold, and must resolve once the short window is clean again.
func TestSLOMonitorMultiWindowPage(t *testing.T) {
	reg := New()
	arrivals := reg.Counter(MetricArrivals, "")
	cold := reg.Counter(MetricRequests, "", "class", "cold")
	coldBad := reg.Counter(MetricViolations, "", "class", "cold")
	// A GPU that is down throughout: the availability SLI would page if
	// its budget were not disabled.
	reg.Gauge(MetricGPUUp, "", "gpu", "0").Set(0)
	// A 1.2s long window derives short 100ms, slow 7.2s and tick 50ms.
	cfg := SLOConfig{AvailBudget: -1, LongWindow: 1200 * 1e6}
	m := NewSLO(reg, nil, cfg, 8*1e9)
	if m.Interval() != 50*1e6 {
		t.Fatalf("Interval = %v", m.Interval())
	}

	tick := sim.Duration(50 * 1e6)
	var now sim.Time
	step := func(bad bool) {
		now += sim.Time(tick)
		arrivals.Add(100)
		cold.Add(100)
		if bad {
			coldBad.Add(100)
		}
		m.Tick(now)
	}
	// Phase A: 2s clean. No alert may fire.
	for i := 0; i < 40; i++ {
		step(false)
	}
	if len(m.Finalize(now)) != 0 {
		t.Fatalf("alerts fired on clean traffic: %v", m.Finalize(now))
	}
	// Phase B: 2s of 100% cold violations (burn = 1/0.02 = 50 ≥ 14.4).
	// The short window saturates almost immediately; the long (1.2s)
	// window crosses 14.4 × 0.02 = 0.288 bad ratio only after ~0.35s of
	// outage, so the page must fire in (2.3s, 2.4s].
	for i := 0; i < 40; i++ {
		step(true)
	}
	// Phase C: 2s clean again; the short window empties ~150ms in, which
	// must resolve the page even though the long window is still hot.
	for i := 0; i < 40; i++ {
		step(false)
	}
	alerts := m.Finalize(now)
	var page *Alert
	for i := range alerts {
		if alerts[i].Severity == "page" && alerts[i].Budget == "cold-p99" {
			if page != nil {
				t.Fatalf("page fired twice: %v", alerts)
			}
			page = &alerts[i]
		}
	}
	if page == nil {
		t.Fatalf("no cold-p99 page in %v", alerts)
	}
	if page.At <= sim.Time(2300*1e6) || page.At > sim.Time(2400*1e6) {
		t.Fatalf("page at %v, want within (2.3s, 2.4s]", sim.Duration(page.At))
	}
	if page.ResolvedAt <= sim.Time(4000*1e6) || page.ResolvedAt > sim.Time(4300*1e6) {
		t.Fatalf("page resolved at %v, want within (4s, 4.3s]", sim.Duration(page.ResolvedAt))
	}
	if page.Burn < 14.4 {
		t.Fatalf("page burn %v below threshold", page.Burn)
	}
	// The slow-burn ticket must also have fired (long ≥ 1 is trivially
	// true during the outage) and the registry must have counted both.
	if got := reg.Total("deepplan_alerts", "budget", "cold-p99", "severity", "page"); got != 1 {
		t.Fatalf("page counter = %g, want 1", got)
	}
	if got := reg.Total("deepplan_alerts", "budget", "cold-p99", "severity", "ticket"); got < 1 {
		t.Fatalf("ticket counter = %g, want ≥ 1", got)
	}
	// A disabled budget must never alert.
	if got := reg.Total("deepplan_alerts", "budget", "gpu-avail"); got != 0 {
		t.Fatalf("disabled gpu-avail budget alerted %g times", got)
	}
}

// A short spike that clears before the long window heats up must NOT page:
// this is exactly what multi-window rules exist to suppress.
func TestSLOMonitorIgnoresShortSpike(t *testing.T) {
	reg := New()
	arrivals := reg.Counter(MetricArrivals, "")
	cold := reg.Counter(MetricRequests, "", "class", "cold")
	coldBad := reg.Counter(MetricViolations, "", "class", "cold")
	m := NewSLO(reg, nil, SLOConfig{LongWindow: 1200 * 1e6}, 8*1e9)
	var now sim.Time
	for i := 0; i < 80; i++ {
		now += sim.Time(50 * 1e6)
		arrivals.Add(100)
		cold.Add(100)
		if i >= 40 && i < 44 { // 200ms blip at t=2s
			coldBad.Add(100)
		}
		m.Tick(now)
	}
	for _, a := range m.Finalize(now) {
		if a.Severity == "page" {
			t.Fatalf("short blip paged: %v", a)
		}
	}
}

// Alert instants land on the trace server track deterministically.
func TestSLOMonitorEmitsTraceInstants(t *testing.T) {
	reg := New()
	rec := trace.New()
	cold := reg.Counter(MetricRequests, "", "class", "cold")
	coldBad := reg.Counter(MetricViolations, "", "class", "cold")
	m := NewSLO(reg, rec, SLOConfig{LongWindow: 200 * 1e6}, 1e9)
	var now sim.Time
	for i := 0; i < 20; i++ {
		now += sim.Time(50 * 1e6)
		cold.Add(10)
		coldBad.Add(10)
		m.Tick(now)
	}
	if len(m.Finalize(now)) == 0 {
		t.Fatal("expected a page under sustained violations")
	}
	if len(rec.Events()) == 0 {
		t.Fatal("expected trace instants for alerts")
	}
}
