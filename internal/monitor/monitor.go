// Package monitor is the in-simulation observability layer: a dimensional
// metrics registry (counters, gauges, and log-bucketed HDR-style histograms
// keyed by labels such as node/model/gpu/class/policy), an OpenMetrics text
// exporter (openmetrics.go), and an SLO burn-rate monitor that raises
// deterministic multi-window alerts (slo.go).
//
// The package follows the internal/trace contract: a nil *Registry is a
// valid no-op sink, every instrument handle obtained from it is nil and
// every method on a nil handle returns immediately, so instrumented hot
// paths cost nothing measurable — and allocate nothing — when monitoring is
// off (asserted by TestDisabledMonitoringAddsNoAllocations). Instruments
// are resolved once at setup time (server construction, model deploy) so
// the per-event path is a nil check plus a float add; no label formatting
// or map lookups happen per observation.
//
// Like the trace recorder, a registry is single-goroutine. A cluster gives
// each node a view (Node) that labels its series node="<n>" and writes into
// the root's one family table, and the exporter sorts families and series
// fully, so reruns of the same workload export byte-identical text.
package monitor

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type labelPair struct{ key, value string }

// family groups every series sharing one metric name. Help, type, and
// (for histograms) bucket layout are family-wide, as OpenMetrics requires.
type family struct {
	name    string
	help    string
	kind    kind
	buckets *Buckets // histogram families only
	series  []*series
	index   map[string]*series
}

// series is one labeled time series. Counters and gauges use value;
// histograms use counts/sum/count (counts has one slot per finite bucket
// plus a trailing +Inf overflow slot).
type series struct {
	labels []labelPair // sorted by key
	sig    string      // canonical rendered label set, e.g. `class="cold",model="bert"`
	value  float64
	counts []uint64
	sum    float64
	count  uint64
}

// Registry holds metric families and hands out pre-resolved instrument
// handles. The zero value is not usable; call New. A nil *Registry is the
// disabled mode: Node returns nil, instrument constructors return nil
// handles, and WriteOpenMetrics writes an empty (but valid) exposition.
type Registry struct {
	families map[string]*family // shared by a root and its node views
	base     []labelPair        // labels baked into every series (node views)
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Node returns a view of the registry for node n: a handle on the same
// family table whose every series carries a node="<n>" label. Everything
// else — exports, sums, one kind per family name — is the root's. Mirrors
// trace.Recorder.Node. Returns nil on a nil registry.
func (r *Registry) Node(n int) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{
		families: r.families,
		base:     append(append([]labelPair{}, r.base...), labelPair{"node", strconv.Itoa(n)}),
	}
}

// Counter registers (or finds) the counter series for name+labels and
// returns its handle. Labels are alternating key, value strings. The name
// must be a bare OpenMetrics name without the _total suffix — the exporter
// appends it. Nil registries return a nil (no-op) handle.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.seriesFor(name, help, kindCounter, nil, kv)}
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.seriesFor(name, help, kindGauge, nil, kv)}
}

// Histogram registers (or finds) a histogram series using the family's
// bucket layout (fixed by the first registration) and returns its handle.
func (r *Registry) Histogram(name, help string, b *Buckets, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	if b == nil {
		panic("monitor: Histogram needs a bucket layout")
	}
	s := r.seriesFor(name, help, kindHistogram, b, kv)
	fam := r.families[name]
	if s.counts == nil {
		s.counts = make([]uint64, fam.buckets.n+1)
	}
	return &Histogram{s: s, b: fam.buckets}
}

var nameOK = func(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) seriesFor(name, help string, k kind, b *Buckets, kv []string) *series {
	if !nameOK(name) {
		panic(fmt.Sprintf("monitor: invalid metric name %q", name))
	}
	if k == kindCounter && strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("monitor: counter %q must omit the _total suffix (the exporter appends it)", name))
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("monitor: odd label list for %q", name))
	}
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: k, buckets: b, index: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.kind != k {
		panic(fmt.Sprintf("monitor: %q registered as %s and %s", name, fam.kind, k))
	}
	labels := append([]labelPair{}, r.base...)
	for i := 0; i < len(kv); i += 2 {
		if !nameOK(kv[i]) {
			panic(fmt.Sprintf("monitor: invalid label name %q on %q", kv[i], name))
		}
		labels = append(labels, labelPair{kv[i], kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].key < labels[j].key })
	for i := 1; i < len(labels); i++ {
		if labels[i].key == labels[i-1].key {
			panic(fmt.Sprintf("monitor: duplicate label %q on %q", labels[i].key, name))
		}
	}
	sig := renderLabels(labels)
	if s, ok := fam.index[sig]; ok {
		return s
	}
	s := &series{labels: labels, sig: sig}
	fam.index[sig] = s
	fam.series = append(fam.series, s)
	return s
}

func renderLabels(labels []labelPair) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Total sums the current value of every series in the named counter or
// gauge family, node views' series included, keeping only series that
// carry every key=value pair in the filter. Sums run in series-creation
// order, so the float result is reproducible. Used by the SLO monitor for
// cluster-wide ratios; returns 0 on a nil registry or unknown family.
func (r *Registry) Total(name string, filter ...string) float64 {
	if r == nil {
		return 0
	}
	var sum float64
	if fam, ok := r.families[name]; ok {
		for _, s := range fam.series {
			if matches(s.labels, filter) {
				sum += s.value
			}
		}
	}
	return sum
}

// TotalAbove sums the observations of the named histogram family recorded
// in buckets lying entirely above threshold, for series matching the
// filter (see Total). Observations sharing the threshold's own bucket are
// not counted, so the result undercounts by at most one bucket width (~9%
// in value with the default layouts) — a deterministic, resolution-bounded
// approximation of "observations greater than threshold". Nil receiver
// returns 0.
func (r *Registry) TotalAbove(name string, threshold float64, filter ...string) float64 {
	if r == nil {
		return 0
	}
	fam, ok := r.families[name]
	if !ok || fam.kind != kindHistogram {
		return 0
	}
	var sum float64
	first := fam.buckets.Index(threshold) + 1
	for _, s := range fam.series {
		if !matches(s.labels, filter) {
			continue
		}
		for i := first; i < len(s.counts); i++ {
			sum += float64(s.counts[i])
		}
	}
	return sum
}

// NumSeries counts the series of the named family that match the filter
// (see Total). The SLO monitor uses it to size denominators — e.g. the GPU
// population behind the gpu_up gauges. Returns 0 on a nil registry or
// unknown family.
func (r *Registry) NumSeries(name string, filter ...string) int {
	if r == nil {
		return 0
	}
	var n int
	if fam, ok := r.families[name]; ok {
		for _, s := range fam.series {
			if matches(s.labels, filter) {
				n++
			}
		}
	}
	return n
}

func matches(labels []labelPair, filter []string) bool {
	for i := 0; i+1 < len(filter); i += 2 {
		found := false
		for _, l := range labels {
			if l.key == filter[i] && l.value == filter[i+1] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing series handle. All methods are
// no-ops (and allocation-free) on a nil handle.
type Counter struct{ s *series }

// Add increases the counter. Negative deltas are a programming error;
// they are ignored to keep the hot path branch-cheap.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.s.value += v
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.s.value++
}

// Value reports the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.s.value
}

// Gauge is a set-to-current-value series handle.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.value = v
}

// Add shifts the gauge value.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.s.value += v
}

// Value reports the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.s.value
}
