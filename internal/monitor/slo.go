package monitor

import (
	"fmt"
	"sort"

	"deepplan/internal/sim"
	"deepplan/internal/trace"
)

// Shared metric family names: the serving layer records into these and the
// SLO monitor reads them back through Registry.Total, so the two sides must
// agree on spelling.
const (
	MetricArrivals   = "deepplan_arrivals"
	MetricRequests   = "deepplan_requests"
	MetricViolations = "deepplan_slo_violations"
	MetricShed       = "deepplan_shed"
	MetricLatency    = "deepplan_request_latency_seconds"
	MetricGPUUp      = "deepplan_gpu_up"
)

// Budget names, in evaluation (and report) order.
var budgetNames = [...]string{"goodput", "cold-p99", "warm-p99", "shed", "gpu-avail"}

// numBudgets is the SLI count; sample arrays and rule state are sized by it.
const numBudgets = len(budgetNames)

// SLOConfig parameterizes the burn-rate monitor. Every SLI is a ratio of
// bad events to a denominator accumulated by the serving layer:
//
//	goodput   requests finishing over the SLO / all requests
//	cold-p99  cold requests over the SLO / cold requests (a "cold p99 ≤ SLO"
//	          objective is exactly "at most 1-q of cold requests over SLO")
//	warm-p99  warm requests over the SLO / warm requests
//	shed      requests shed by admission control / arrivals
//	gpu-avail GPU-seconds spent failed / GPU-seconds elapsed, integrated
//	          from the deepplan_gpu_up gauges at each tick — the classic
//	          N-nines hardware availability objective, independent of the
//	          serving policy
//
// With AlertLatency set, the cold-p99 and warm-p99 SLIs instead count
// latency-histogram mass above that threshold — an internal objective
// tighter than the contractual SLO, so those budgets start burning while
// the customer-facing goodput budget (always measured at the exact SLO)
// is still intact. This is the standard operational posture: page on the
// early signal, account at the contract.
//
// A budget is the allowed bad-event ratio; the burn rate is the observed
// ratio divided by the budget, so burn 1.0 consumes the budget exactly at
// the sustainable pace. The request budgets are fixed (goodput 5%,
// cold-p99 and warm-p99 2% each, shed 0.5%); only the GPU-availability
// budget is a setting. Rules follow the multi-window form of the SRE
// workbook, scaled from wall-clock ops windows (5m+1h fast, 6h+3d slow)
// down to simulation horizons:
//
//	page   (fast burn): burn ≥ 14.4 over the short AND the long window
//	ticket (slow burn): burn ≥ 1 over the long AND the slow window
//
// The long window is LongWindow; the short window is a twelfth of it (the
// 5m:1h ratio), the slow window six times it capped at the horizon, and
// the monitor samples every half short window.
type SLOConfig struct {
	// AvailBudget is the GPU-availability budget; zero means 0.001 (99.9%
	// availability) and a negative value disables that SLI.
	AvailBudget float64

	// AlertLatency, when positive, is the internal latency objective the
	// cold-p99 and warm-p99 SLIs are measured against (via histogram mass
	// above the threshold, ~9% bucket resolution). Zero measures them at
	// the exact SLO through the violation counters. The cluster defaults
	// this to 80% of its SLO.
	AlertLatency sim.Duration

	// LongWindow is the window both rules share; zero means horizon/4.
	LongWindow sim.Duration
}

// The page and ticket burn thresholds. 14.4 spends 2% of a budget in 1/72
// of its window.
const (
	fastBurn = 14.4
	slowBurn = 1.0
)

// Alert is one firing of a burn-rate rule.
type Alert struct {
	At       sim.Time
	Severity string // "page" (fast burn) or "ticket" (slow burn)
	Budget   string // "goodput", "cold-p99", "warm-p99", "shed"
	Burn     float64
	// ResolvedAt is when the rule condition cleared; zero if still firing
	// when the run ended.
	ResolvedAt sim.Time
}

// String renders the alert as one aligned report line: instant, severity,
// budget, long-window burn at the firing edge, and resolution.
func (a Alert) String() string {
	s := fmt.Sprintf("%-8v %-7s %-9s burn %5.1fx", sim.Duration(a.At), a.Severity, a.Budget, a.Burn)
	if a.ResolvedAt > 0 {
		s += fmt.Sprintf("  (resolved %v)", sim.Duration(a.ResolvedAt))
	} else {
		s += "  (unresolved at end of run)"
	}
	return s
}

// sample is one cumulative snapshot of the cluster-wide SLI counters.
// bad/total are indexed by budget (budgetNames order).
type sample struct {
	at         sim.Time
	bad, total [numBudgets]float64
}

// SLOMonitor samples the registry at fixed sim-time ticks and evaluates
// multi-window burn-rate rules over the deltas. It runs on the cluster
// router's clock: ticks are pre-scheduled simulation events, so alert
// instants are deterministic.
type SLOMonitor struct {
	cfg     SLOConfig
	budgets [numBudgets]float64
	windows [3]sim.Duration // short, long, slow
	tick    sim.Duration
	reg     *Registry
	rec     *trace.Recorder
	samples []sample
	alerts  []*Alert
	active  map[string]*Alert

	// availBad/availTotal integrate failed and elapsed GPU-seconds from the
	// gpu_up gauges, sampled tick to tick.
	availBad, availTotal float64

	fired [numBudgets][2]*Counter // alert counters by budget × severity
	burnG [numBudgets][3]*Gauge   // burn gauges by budget × window (short, long, slow)
}

// NewSLO builds a burn-rate monitor over reg, raising alert instants onto
// rec's server track (nil rec is fine). horizon scales default windows.
// Returns nil when reg is nil — all methods are no-ops on a nil monitor.
func NewSLO(reg *Registry, rec *trace.Recorder, cfg SLOConfig, horizon sim.Duration) *SLOMonitor {
	if reg == nil {
		return nil
	}
	m := &SLOMonitor{cfg: cfg, reg: reg, rec: rec, active: make(map[string]*Alert)}
	avail := cfg.AvailBudget
	if avail == 0 {
		avail = 0.001
	}
	m.budgets = [numBudgets]float64{0.05, 0.02, 0.02, 0.005, avail} // budgetNames order
	long := cfg.LongWindow
	if long <= 0 {
		long = horizon / 4
	}
	slow := 6 * long
	if slow > horizon {
		slow = horizon
	}
	m.windows = [3]sim.Duration{long / 12, long, slow}
	if m.tick = m.windows[0] / 2; m.tick <= 0 {
		m.tick = sim.Millisecond // degenerate horizons
	}
	m.samples = append(m.samples, sample{}) // implicit zero state at t=0
	for i, b := range budgetNames {
		for j, sev := range [...]string{"page", "ticket"} {
			m.fired[i][j] = reg.Counter("deepplan_alerts",
				"Burn-rate alert firings by severity and budget.",
				"budget", b, "severity", sev)
		}
		for j, w := range [...]string{"short", "long", "slow"} {
			m.burnG[i][j] = reg.Gauge("deepplan_burn_rate",
				"Error-budget burn rate over the trailing window (1.0 = sustainable pace).",
				"budget", b, "window", w)
		}
	}
	return m
}

// Interval reports the sampling period (0 on nil).
func (m *SLOMonitor) Interval() sim.Duration {
	if m == nil {
		return 0
	}
	return m.tick
}

// Tick takes a snapshot of the cluster-wide SLI counters at the given
// instant and evaluates every alert rule.
func (m *SLOMonitor) Tick(now sim.Time) {
	if m == nil {
		return
	}
	cold := m.reg.Total(MetricRequests, "class", "cold")
	warm := m.reg.Total(MetricRequests, "class", "warm")
	coldSLO := m.reg.Total(MetricViolations, "class", "cold")
	warmSLO := m.reg.Total(MetricViolations, "class", "warm")
	coldBad, warmBad := coldSLO, warmSLO
	if m.cfg.AlertLatency > 0 {
		t := m.cfg.AlertLatency.Seconds()
		coldBad = m.reg.TotalAbove(MetricLatency, t, "class", "cold")
		warmBad = m.reg.TotalAbove(MetricLatency, t, "class", "warm")
	}
	prev := m.samples[len(m.samples)-1]
	if gpus := float64(m.reg.NumSeries(MetricGPUUp)); gpus > 0 && now > prev.at {
		dt := now.Sub(prev.at).Seconds()
		m.availBad += (gpus - m.reg.Total(MetricGPUUp)) * dt
		m.availTotal += gpus * dt
	}
	s := sample{at: now}
	s.bad = [numBudgets]float64{coldSLO + warmSLO, coldBad, warmBad, m.reg.Total(MetricShed), m.availBad}
	s.total = [numBudgets]float64{cold + warm, cold, warm, m.reg.Total(MetricArrivals), m.availTotal}
	m.samples = append(m.samples, s)

	for i, name := range budgetNames {
		budget := m.budgets[i]
		if budget <= 0 {
			continue
		}
		var burn [3]float64
		for j, w := range m.windows {
			burn[j] = m.ratio(s, i, w) / budget
			m.burnG[i][j].Set(burn[j])
		}
		m.rule(now, name, i, 0, "page", burn[0] >= fastBurn && burn[1] >= fastBurn, burn[1])
		m.rule(now, name, i, 1, "ticket", burn[1] >= slowBurn && burn[2] >= slowBurn, burn[2])
	}
}

// ratio computes the bad-event ratio for budget i over the trailing window.
func (m *SLOMonitor) ratio(s sample, i int, w sim.Duration) float64 {
	target := s.at - sim.Time(w)
	// Latest sample at or before the window start; index 0 is the zero state.
	k := sort.Search(len(m.samples), func(j int) bool { return m.samples[j].at > target }) - 1
	if k < 0 {
		k = 0
	}
	prev := m.samples[k]
	if dt := s.total[i] - prev.total[i]; dt > 0 {
		return (s.bad[i] - prev.bad[i]) / dt
	}
	return 0
}

func (m *SLOMonitor) rule(now sim.Time, name string, i, sev int, severity string, firing bool, burn float64) {
	key := severity + "/" + name
	cur := m.active[key]
	switch {
	case firing && cur == nil:
		a := &Alert{At: now, Severity: severity, Budget: name, Burn: burn}
		m.alerts = append(m.alerts, a)
		m.active[key] = a
		m.fired[i][sev].Inc()
		if m.rec != nil {
			m.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "slo", severity+" "+name, now,
				map[string]any{"burn": burn})
		}
	case !firing && cur != nil:
		cur.ResolvedAt = now
		delete(m.active, key)
		if m.rec != nil {
			m.rec.Instant(trace.ServerPID, trace.TIDLifecycle, "slo", "resolve "+severity+" "+name, now)
		}
	}
}

// Finalize takes a last snapshot at the end of the run (catching activity
// after the final scheduled tick, e.g. the drain phase) and returns the
// alert history in firing order.
func (m *SLOMonitor) Finalize(now sim.Time) []Alert {
	if m == nil {
		return nil
	}
	if last := m.samples[len(m.samples)-1].at; now > last {
		m.Tick(now)
	}
	out := make([]Alert, len(m.alerts))
	for i, a := range m.alerts {
		out[i] = *a
	}
	return out
}
