package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Track display names for the per-GPU thread IDs.
var tidNames = map[int]string{
	TIDExec:      "exec",
	TIDLoad:      "load (PCIe)",
	TIDMigrate:   "migrate (NVLink)",
	TIDQueue:     "queue",
	TIDLifecycle: "requests",
	TIDCounter:   "counters",
}

// WriteChrome emits the recorded events as Chrome trace-event JSON, loadable
// in chrome://tracing and https://ui.perfetto.dev. Each GPU becomes one
// process ("GPU n") with exec/load/migrate/queue/request tracks; link
// bandwidth counters live under a synthetic "fabric" process. meta, if
// non-nil, is attached as otherData. Events are written in stable timestamp
// order, so equal-instant events keep their recording order (async begins
// nest correctly).
func WriteChrome(w io.Writer, r *Recorder, meta map[string]string) error {
	if r == nil {
		return fmt.Errorf("trace: nil recorder")
	}
	r.sink().MergeViews() // a cluster's stream in (timestamp, source) order
	events := r.Events()

	// Stable sort by timestamp without disturbing the recorder.
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return events[order[a]].TS < events[order[b]].TS
	})

	// Pseudo-pids are remapped past the largest real pid.
	maxPID := -1
	for i := range events {
		if events[i].PID > maxPID {
			maxPID = events[i].PID
		}
	}
	fabric, server := maxPID+1, maxPID+2
	pid := func(p int) int {
		switch p {
		case FabricPID:
			return fabric
		case ServerPID:
			return server
		default:
			return p
		}
	}

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms",`)
	if len(meta) > 0 {
		bw.WriteString(`"otherData":`)
		b, err := json.Marshal(meta)
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteString(",")
	}
	bw.WriteString(`"traceEvents":[`)

	first := true
	emit := func(e map[string]any) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	// Metadata: name every process and every span-carrying track seen.
	type pidTid struct{ pid, tid int }
	seenPID := map[int]bool{}
	seenTID := map[pidTid]bool{}
	for i := range events {
		e := &events[i]
		p := pid(e.PID)
		if !seenPID[p] {
			seenPID[p] = true
			name := fmt.Sprintf("GPU %d", p)
			switch e.PID {
			case FabricPID:
				name = "fabric (PCIe/NVLink)"
			case ServerPID:
				name = "server"
			}
			// Node views register display names for their remapped pids
			// ("node0 GPU1", "node1 fabric", ...) so multi-node traces show
			// one labelled track group per node.
			if nm, ok := r.sink().pidNames[e.PID]; ok {
				name = nm
			}
			if err := emit(map[string]any{
				"name": "process_name", "ph": "M", "pid": p, "tid": 0,
				"args": map[string]any{"name": name},
			}); err != nil {
				return err
			}
		}
		if e.Phase == PhaseSpan || e.Phase == PhaseInstant {
			key := pidTid{p, e.TID}
			if !seenTID[key] {
				seenTID[key] = true
				name, ok := tidNames[e.TID]
				if !ok {
					name = fmt.Sprintf("track %d", e.TID)
				}
				if err := emit(map[string]any{
					"name": "thread_name", "ph": "M", "pid": p, "tid": e.TID,
					"args": map[string]any{"name": name},
				}); err != nil {
					return err
				}
			}
		}
	}

	us := func(t int64) float64 { return float64(t) / 1e3 }
	for _, i := range order {
		e := &events[i]
		j := map[string]any{
			"name": e.Name,
			"ph":   string(rune(e.Phase)),
			"ts":   us(int64(e.TS)),
			"pid":  pid(e.PID),
			"tid":  e.TID,
		}
		if e.Cat != "" {
			j["cat"] = e.Cat
		}
		switch e.Phase {
		case PhaseSpan:
			j["dur"] = us(int64(e.Dur))
		case PhaseInstant:
			j["s"] = "t" // thread-scoped mark
		case PhaseCounter:
			j["args"] = map[string]any{"value": e.Value}
		case PhaseAsyncBegin, PhaseAsyncEnd:
			j["id"] = e.ID
		}
		if e.Args != nil {
			j["args"] = e.Args
		}
		if err := emit(j); err != nil {
			return err
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
