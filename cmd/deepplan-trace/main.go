// deepplan-trace summarizes a Chrome trace-event file written by
// deepplan-server -trace or deepplan -trace into the latency breakdown
// behind it: per request class (cold / warm, split by model), where time
// went — queueing behind other requests, stalling on weight loads, or
// executing — plus counts of the serving events (evictions, relocations,
// deferrals) recorded on the timeline.
//
// Usage:
//
//	deepplan-server -instances 140 -trace run.json
//	deepplan-trace run.json
//	deepplan-server -nodes 4 -trace fleet.json
//	deepplan-trace -by-node fleet.json
//
// The numbers come from the request lifecycle rows the server attaches to
// every async begin event, so no span pairing is needed; the same file loads
// unmodified in https://ui.perfetto.dev for visual inspection.
//
// -by-node appends a per-node section: each node's request classes and
// serving events separately, resolved through the trace's process-name
// metadata — the fastest way to see which node a fault schedule or a
// routing imbalance actually hit. Every deepplan-server trace carries that
// metadata ("node<i> ..." processes), one-node runs included; a trace
// without it is refused before anything is printed.
//
// Traces from a predictive-autoscaled run (deepplan-server -autoscale
// -autoscale-policy predictive -trace) additionally get a per-model
// lifecycle table: replaying the "state <model>" transition instants shows
// how long each model's replicas spent warm on a GPU, sleeping in host
// memory, or swapped out, next to the controller's prewarm/wake/sleep/
// swap-in actuation counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"deepplan/internal/metrics"
	"deepplan/internal/sim"
)

type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	TS   float64        `json:"ts"` // microseconds, Chrome trace convention
	Args map[string]any `json:"args"`
}

type traceFile struct {
	OtherData   map[string]string `json:"otherData"`
	TraceEvents []event           `json:"traceEvents"`
}

// breakdown accumulates the per-class latency components.
type breakdown struct {
	queue, load, exec, total metrics.Digest
}

func (b *breakdown) add(args map[string]any) bool {
	q, okQ := args["queue_us"].(float64)
	l, okL := args["load_us"].(float64)
	e, okE := args["exec_us"].(float64)
	t, okT := args["total_us"].(float64)
	if !okQ || !okL || !okE || !okT {
		return false
	}
	us := func(v float64) sim.Duration { return sim.Duration(v * 1e3) }
	b.queue.Add(us(q))
	b.load.Add(us(l))
	b.exec.Add(us(e))
	b.total.Add(us(t))
	return true
}

func main() {
	byNode := flag.Bool("by-node", false, "also break classes and serving events down per cluster node")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: deepplan-trace [-by-node] <trace.json>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		fail("parsing %s: %v", path, err)
	}

	// Process-name metadata maps pids to display names; cluster traces name
	// each node's processes "node<i> ..." (trace.Recorder node views), which
	// is what -by-node groups by.
	pidNode := map[int]string{}
	for _, e := range tf.TraceEvents {
		if e.Ph != "M" || e.Name != "process_name" {
			continue
		}
		name, ok := e.Args["name"].(string)
		if !ok {
			continue
		}
		if node, _, found := strings.Cut(name, " "); found && strings.HasPrefix(node, "node") {
			pidNode[e.Pid] = node
		}
	}
	if *byNode && len(pidNode) == 0 {
		fail("%s has no per-node process metadata (-by-node needs a deepplan-server trace)", path)
	}

	classes := map[string]*breakdown{}
	instants := map[string]int{}
	// Lifecycle reconstruction: "state <model>" instants carry the full
	// transition (instance, from, to), so replaying them per instance yields
	// the time each replica spent warm, sleeping in host memory, or swapped
	// out; the actuation instants (prewarm/wake/sleep/swap-in) give the
	// per-model counts.
	lifeSpans := map[string]map[float64][]transition{} // model -> instance -> transitions
	lifeCounts := map[string]map[string]int{}          // model -> verb -> count
	var lastTS float64
	type nodeAgg struct {
		classes  map[string]*breakdown
		instants map[string]int
	}
	nodes := map[string]*nodeAgg{}
	forNode := func(e event) *nodeAgg {
		node, ok := pidNode[e.Pid]
		if !ok {
			return nil
		}
		na := nodes[node]
		if na == nil {
			na = &nodeAgg{classes: map[string]*breakdown{}, instants: map[string]int{}}
			nodes[node] = na
		}
		return na
	}
	for _, e := range tf.TraceEvents {
		if e.Ph != "M" && e.TS > lastTS {
			lastTS = e.TS
		}
		switch e.Ph {
		case "b":
			class, ok := e.Args["class"].(string)
			if !ok {
				continue
			}
			for _, key := range []string{class, class + " " + e.Name} {
				b := classes[key]
				if b == nil {
					b = &breakdown{}
					classes[key] = b
				}
				b.add(e.Args)
			}
			if na := forNode(e); na != nil {
				b := na.classes[class]
				if b == nil {
					b = &breakdown{}
					na.classes[class] = b
				}
				b.add(e.Args)
			}
		case "i":
			// Serving instants are named "<verb> <model>"; tally by verb.
			verb, model, _ := strings.Cut(e.Name, " ")
			instants[verb]++
			if na := forNode(e); na != nil {
				na.instants[verb]++
			}
			switch verb {
			case "state":
				inst, ok := e.Args["instance"].(float64)
				from, okF := e.Args["from"].(string)
				to, okT := e.Args["to"].(string)
				if !ok || !okF || !okT {
					continue
				}
				m := lifeSpans[model]
				if m == nil {
					m = map[float64][]transition{}
					lifeSpans[model] = m
				}
				m[inst] = append(m[inst], transition{e.TS, from, to})
			case "prewarm", "wake", "sleep", "swap-in", "swap-out":
				c := lifeCounts[model]
				if c == nil {
					c = map[string]int{}
					lifeCounts[model] = c
				}
				c[verb]++
			}
		}
	}
	if len(classes) == 0 {
		fail("%s holds no request lifecycle events (written without serving tracing?)", path)
	}

	fmt.Printf("trace: %s (%d events)\n", path, len(tf.TraceEvents))
	for _, k := range sortedKeys(tf.OtherData) {
		fmt.Printf("%s: %s\n", k, tf.OtherData[k])
	}

	fmt.Printf("\n%-28s %7s  %8s %8s  %8s %8s  %8s %8s  %8s %8s\n",
		"class", "n", "queue", "p99", "load", "p99", "exec", "p99", "total", "p99")
	fmt.Printf("%-28s %7s  %8s %8s  %8s %8s  %8s %8s  %8s %8s\n",
		"", "", "mean(ms)", "(ms)", "mean(ms)", "(ms)", "mean(ms)", "(ms)", "mean(ms)", "(ms)")
	// Sorted keys put cold before warm and each class before its per-model
	// rows, which indent under it.
	for _, name := range sortedKeys(classes) {
		label := name
		if strings.ContainsRune(name, ' ') {
			label = "  " + name
		}
		printClass(label, classes[name])
	}
	printEvents("\nserving events:", instants)

	if len(lifeSpans) > 0 {
		printLifecycle(lifeSpans, lifeCounts, lastTS)
	}

	if *byNode {
		nodeNames := sortedKeys(nodes)
		// Numeric-aware order: node2 before node10.
		sort.Slice(nodeNames, func(i, j int) bool {
			if len(nodeNames[i]) != len(nodeNames[j]) {
				return len(nodeNames[i]) < len(nodeNames[j])
			}
			return nodeNames[i] < nodeNames[j]
		})
		fmt.Printf("\nper-node (%d nodes):\n", len(nodeNames))
		fmt.Printf("%-28s %7s  %8s %8s  %8s %8s  %8s %8s  %8s %8s\n",
			"node/class", "n", "queue", "p99", "load", "p99", "exec", "p99", "total", "p99")
		for _, n := range nodeNames {
			for _, class := range sortedKeys(nodes[n].classes) {
				printClass(n+" "+class, nodes[n].classes[class])
			}
		}
		for _, n := range nodeNames {
			printEvents(n+" events:", nodes[n].instants)
		}
	}
}

// printClass prints one latency-breakdown row.
func printClass(label string, b *breakdown) {
	fmt.Printf("%-28s %7d  %8.1f %8.1f  %8.1f %8.1f  %8.1f %8.1f  %8.1f %8.1f\n",
		label, b.total.Count(),
		ms(b.queue.Mean()), ms(b.queue.P99()),
		ms(b.load.Mean()), ms(b.load.P99()),
		ms(b.exec.Mean()), ms(b.exec.P99()),
		ms(b.total.Mean()), ms(b.total.P99()))
}

// printEvents prints the serving-instant tally by verb on one line after
// prefix, or nothing if no verb qualifies. Cold starts are the "cold"
// class, states get their own table, and drains and batches are
// bookkeeping.
func printEvents(prefix string, instants map[string]int) {
	var verbs []string
	for _, v := range sortedKeys(instants) {
		if v != "drain" && v != "batch" && v != "cold" && v != "state" {
			verbs = append(verbs, v)
		}
	}
	if len(verbs) == 0 {
		return
	}
	fmt.Print(prefix)
	for _, v := range verbs {
		fmt.Printf(" %s=%d", v, instants[v])
	}
	fmt.Println()
}

// transition is one "state <model>" instant replayed during lifecycle
// reconstruction.
type transition struct {
	ts       float64 // microseconds
	from, to string
}

// printLifecycle renders the per-model lifecycle breakdown: how long the
// model's replicas spent in each non-cold state (summed across replicas,
// with intervals still open at the end of the trace closed at its last
// event) and how often the predictive controller actuated them. Only
// replicas that transitioned at least once appear; a replica that stayed
// cold for the whole run has no lifecycle to report.
func printLifecycle(spans map[string]map[float64][]transition,
	counts map[string]map[string]int, lastTS float64) {
	models := sortedKeys(spans)
	fmt.Printf("\nper-model lifecycle (replica-seconds per state):\n")
	fmt.Printf("%-24s %8s %8s %8s %8s  %8s %6s %6s %8s\n",
		"model", "replicas", "warm(s)", "sleep(s)", "swap(s)",
		"prewarms", "wakes", "sleeps", "swap-ins")
	for _, m := range models {
		inState := map[string]float64{} // state name -> microseconds
		for _, trs := range spans[m] {
			sort.Slice(trs, func(i, j int) bool { return trs[i].ts < trs[j].ts })
			cur, curTS := trs[0].from, 0.0
			for _, tr := range trs {
				inState[cur] += tr.ts - curTS
				cur, curTS = tr.to, tr.ts
			}
			inState[cur] += lastTS - curTS
		}
		c := counts[m]
		fmt.Printf("%-24s %8d %8.1f %8.1f %8.1f  %8d %6d %6d %8d\n",
			m, len(spans[m]),
			inState["warm"]/1e6, inState["sleeping"]/1e6, inState["swapped"]/1e6,
			c["prewarm"], c["wake"], c["sleep"], c["swap-in"])
	}
}

func ms(d sim.Duration) float64 { return d.Seconds() * 1e3 }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deepplan-trace: "+format+"\n", args...)
	os.Exit(1)
}
