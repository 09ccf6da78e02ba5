package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the enclosing span, -1 at the root
}

// tracer keeps spans in memory. A nil *tracer records nothing and costs
// nothing, which is how the untraced reps run.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// total returns the summed duration and count of the spans named name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
			n++
		}
	}
	return d, n
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds), loadable in Perfetto or chrome://tracing.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
