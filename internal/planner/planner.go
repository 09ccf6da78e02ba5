// Package planner implements DeepPlan's execution planning (paper §4.3):
// Algorithm 1, which decides per layer between load-then-execute and
// direct-host-access by eliminating pipeline stalls, and the model
// transmission planner, which partitions a model across NVLink-connected
// GPUs on distinct PCIe switches for parallel transmission.
package planner

import (
	"fmt"
	"sort"

	"deepplan/internal/plan"
	"deepplan/internal/profiler"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
)

// DefaultMinDHAGain is the default materiality threshold for keeping a
// direct-host-access conversion (see Planner.MinDHAGain).
const DefaultMinDHAGain = 25 * sim.Microsecond

// Planner generates execution plans from a profile and a topology.
type Planner struct {
	topo *topology.Topology

	// MinDHAGain prunes Algorithm 1's output: a conversion is kept only if
	// reverting it would lengthen the cold start by at least
	// max(MinDHAGain, the layer's PerfDiff). Algorithm 1 optimizes the
	// cold path alone, so it happily converts dozens of tiny layers whose
	// conversion shaves microseconds off loading — but a DHA layer stays
	// host-resident forever and taxes every subsequent *warm* inference by
	// its PerfDiff. Requiring the one-time cold gain to cover at least one
	// warm-inference penalty reproduces the sparse plans the paper's
	// Table 3 shows (embeddings, BatchNorms, and selected convolutions —
	// not LayerNorms) and the near-parity of DeepPlan (DHA) with
	// PipeSwitch on ResNet (Figure 11). Zero disables pruning entirely
	// (raw Algorithm 1).
	MinDHAGain sim.Duration
}

// New returns a Planner for the given server topology with the default
// pruning threshold.
func New(topo *topology.Topology) *Planner {
	if topo == nil {
		panic("planner: nil topology")
	}
	return &Planner{topo: topo, MinDHAGain: DefaultMinDHAGain}
}

func (pl *Planner) params() timelineParams {
	return timelineParams{
		nvlinkBW:       pl.topo.NVLinkBandwidth(),
		nvCopyOverhead: sim.Duration(pl.topo.NVLinkCopyOverheadNanos),
	}
}

// MaxPartitions returns the number of partitions parallel transmission may
// use on this server: one GPU per PCIe switch (GPUs sharing a switch contend
// for its uplink, §3.2), and only GPUs NVLink-connected to the primary so
// the reduce phase has a disjoint path (§4.3.3). On a partially-connected
// mesh (DGX-1's hybrid cube-mesh) the limit is the best any primary can
// reach; without NVLink it is 1 (parallel transmission disabled).
func (pl *Planner) MaxPartitions() int {
	best := 1
	for _, g := range pl.topo.GPUs {
		remote := map[int]bool{}
		for _, id := range pl.topo.ParallelPartners(g.ID) {
			remote[pl.topo.GPU(id).Switch] = true
		}
		if n := 1 + len(remote); n > best {
			best = n
		}
	}
	return best
}

// Plan plans prof in one of the paper's five execution modes. The
// parallel-transmission modes use as many partitions as the topology allows
// (MaxPartitions). It is the one mapping from a mode to a planning method.
func (pl *Planner) Plan(prof *profiler.Profile, mode plan.Mode) (*plan.Plan, error) {
	switch mode {
	case plan.ModeBaseline:
		return pl.PlanBaseline(prof), nil
	case plan.ModePipeSwitch:
		return pl.PlanPipeSwitch(prof), nil
	case plan.ModeDHA:
		return pl.PlanDHA(prof), nil
	case plan.ModePT:
		return pl.PlanPT(prof, pl.MaxPartitions()), nil
	case plan.ModePTDHA:
		return pl.PlanPTDHA(prof, pl.MaxPartitions()), nil
	default:
		return nil, fmt.Errorf("planner: unknown mode %q", mode)
	}
}

// PlanBaseline returns the non-pipelined load-everything plan.
func (pl *Planner) PlanBaseline(prof *profiler.Profile) *plan.Plan {
	return pl.allLoad(prof, plan.ModeBaseline)
}

// PlanPipeSwitch returns the pipelined load-everything plan (the paper's
// PipeSwitch comparison point).
func (pl *Planner) PlanPipeSwitch(prof *profiler.Profile) *plan.Plan {
	return pl.allLoad(prof, plan.ModePipeSwitch)
}

func (pl *Planner) allLoad(prof *profiler.Profile, mode plan.Mode) *plan.Plan {
	p := &plan.Plan{
		ModelName: prof.ModelName, Topology: pl.topo.Name,
		Batch: prof.Batch, Mode: mode, NumParts: 1,
	}
	for i := range prof.Layers {
		p.Layers = append(p.Layers, plan.LayerPlan{
			Index: i, Name: prof.Layers[i].Name, Method: plan.Load,
		})
	}
	return p
}

// PlanInitialDHA returns the naive plan the paper calls the "Initial
// approach" in Table 3: each layer independently picks the method with the
// smaller standalone cost (LoadTime+ExecInMem vs ExecDHA), ignoring
// pipelining. It is provided as a comparison baseline for the real planner.
func (pl *Planner) PlanInitialDHA(prof *profiler.Profile) *plan.Plan {
	p := pl.allLoad(prof, "initial-dha")
	for i := range prof.Layers {
		lp := &prof.Layers[i]
		if lp.ParamBytes == 0 {
			continue
		}
		if lp.ExecDHA < lp.LoadTime+lp.ExecInMem {
			p.Layers[i].Method = plan.DHA
		}
	}
	return p
}

// PlanDHA runs Algorithm 1 of the paper: walk the layers in order; for every
// layer with a pipeline stall, convert earlier load-then-execute layers to
// DHA — smallest PerfDiff first — as long as the conversion can still reduce
// the stall, re-evaluating the pipeline after each conversion.
func (pl *Planner) PlanDHA(prof *profiler.Profile) *plan.Plan {
	methods := loadMethods(prof)
	parts := make([]int, len(prof.Layers))
	pl.runAlgorithm1(prof, methods, parts, 1)
	p := pl.allLoad(prof, plan.ModeDHA)
	for i, m := range methods {
		p.Layers[i].Method = m
	}
	return p
}

// PlanPT returns a parallel-transmission plan with the given number of
// partitions (clamped to MaxPartitions): the model is split evenly by
// parameter bytes, every layer is loaded (no DHA), and partitions beyond the
// first are transmitted via secondary GPUs and forwarded over NVLink.
func (pl *Planner) PlanPT(prof *profiler.Profile, partitions int) *plan.Plan {
	parts, numParts := pl.partition(prof, partitions)
	p := pl.allLoad(prof, plan.ModePT)
	p.NumParts = numParts
	for i := range p.Layers {
		p.Layers[i].Partition = parts[i]
	}
	return p
}

// PlanPTDHA combines both techniques (paper §4.3.3): the model is
// partitioned for parallel transmission, layers in partitions ≥ 1 are forced
// to Load so they can be transmitted, and Algorithm 1 applies
// direct-host-access within the first partition, whose loading parallel
// transmission cannot accelerate.
func (pl *Planner) PlanPTDHA(prof *profiler.Profile, partitions int) *plan.Plan {
	parts, numParts := pl.partition(prof, partitions)
	methods := loadMethods(prof)
	pl.runAlgorithm1(prof, methods, parts, numParts)
	p := pl.allLoad(prof, plan.ModePTDHA)
	p.NumParts = numParts
	for i := range p.Layers {
		p.Layers[i].Partition = parts[i]
		if parts[i] == 0 {
			p.Layers[i].Method = methods[i]
		}
	}
	return p
}

// PlanLargeModel plans a model whose parameters exceed a GPU's memory — the
// paper's §7 future-work case ("DeepPlan can allow inferences to models
// which are not fit in single GPU memory"). Layers are forced to
// direct-host-access, cheapest warm penalty per byte freed first, until the
// GPU-resident parameter bytes fit paramBudget; Algorithm 1 then runs over
// the remaining loaded layers to clean up cold-start stalls. The forced
// conversions are locked so the materiality pruning cannot undo them.
//
// It returns an error if even an all-DHA plan cannot fit (paramBudget < 0).
func (pl *Planner) PlanLargeModel(prof *profiler.Profile, paramBudget int64) (*plan.Plan, error) {
	if paramBudget < 0 {
		return nil, fmt.Errorf("planner: negative parameter budget %d", paramBudget)
	}
	methods := loadMethods(prof)
	locked := make([]bool, len(prof.Layers))

	resident := prof.TotalParamBytes()
	if resident > paramBudget {
		// Cheapest eviction first: warm penalty per byte freed.
		var cands []int
		for i := range prof.Layers {
			if prof.Layers[i].ParamBytes > 0 {
				cands = append(cands, i)
			}
		}
		sort.SliceStable(cands, func(a, b int) bool {
			la, lb := &prof.Layers[cands[a]], &prof.Layers[cands[b]]
			return la.PerfDiff().Seconds()/float64(la.ParamBytes) <
				lb.PerfDiff().Seconds()/float64(lb.ParamBytes)
		})
		for _, j := range cands {
			if resident <= paramBudget {
				break
			}
			methods[j] = plan.DHA
			locked[j] = true
			resident -= prof.Layers[j].ParamBytes
		}
		if resident > paramBudget {
			return nil, fmt.Errorf("planner: model %s cannot fit %d bytes even fully host-resident",
				prof.ModelName, paramBudget)
		}
	}
	parts := make([]int, len(prof.Layers))
	pl.runAlgorithm1Locked(prof, methods, parts, 1, locked)

	p := pl.allLoad(prof, "dha-large")
	for i, m := range methods {
		p.Layers[i].Method = m
	}
	return p, nil
}

// PlanStreaming plans a model larger than GPU memory for *streaming*
// execution: embeddings and other Algorithm 1 picks go direct-host-access;
// of the remaining loadable layers, a suffix up to residentBudget bytes
// stays permanently resident; everything else is re-transmitted (pipelined)
// on every inference. Streaming re-pays each overflow byte exactly once per
// pass, which beats all-DHA for reuse-heavy layers (an FC re-reads ~12x its
// bytes under DHA) — the engineering follow-through on the paper's §7
// "models which are not fit in single GPU memory". The returned mask marks
// resident layers and pairs with engine.Spec.ResidentMask.
func (pl *Planner) PlanStreaming(prof *profiler.Profile, residentBudget int64) (*plan.Plan, []bool, error) {
	if residentBudget < 0 {
		return nil, nil, fmt.Errorf("planner: negative resident budget %d", residentBudget)
	}
	p := pl.PlanDHA(prof)
	p.Mode = "streaming"
	return p, ResidentSuffix(prof, p, residentBudget), nil
}

// ResidentSuffix is the streaming residency rule: walking from the last
// layer back, it marks each parameterized Load layer of p resident while
// the marked bytes stay within budget, skipping any layer that would
// overflow it. The tail then never stalls, so the per-inference streaming
// window closes before execution catches up. The mask pairs with
// engine.Spec.ResidentMask.
func ResidentSuffix(prof *profiler.Profile, p *plan.Plan, budget int64) []bool {
	mask := make([]bool, len(prof.Layers))
	var used int64
	for i := len(prof.Layers) - 1; i >= 0; i-- {
		b := prof.Layers[i].ParamBytes
		if p.Layers[i].Method != plan.Load || b == 0 || used+b > budget {
			continue
		}
		mask[i] = true
		used += b
	}
	return mask
}

// Predict evaluates a plan's cold-start latency and per-layer stalls under
// the planner's analytic timeline.
func (pl *Planner) Predict(prof *profiler.Profile, p *plan.Plan) *Timeline {
	methods := make([]plan.Method, len(p.Layers))
	parts := make([]int, len(p.Layers))
	for i := range p.Layers {
		methods[i] = p.Layers[i].Method
		parts[i] = p.Layers[i].Partition
	}
	if p.Mode == plan.ModeBaseline {
		// Non-pipelined: execution begins only after the full copy.
		return baselineTimeline(prof)
	}
	return computeTimeline(prof, methods, parts, p.NumParts, pl.params())
}

func baselineTimeline(prof *profiler.Profile) *Timeline {
	n := len(prof.Layers)
	tl := &Timeline{
		Avail:     make([]sim.Duration, n),
		ExecStart: make([]sim.Duration, n),
		ExecDone:  make([]sim.Duration, n),
		Stall:     make([]sim.Duration, n),
	}
	var load sim.Duration
	for i := range prof.Layers {
		load += prof.Layers[i].LoadTime
	}
	t := load
	for i := range prof.Layers {
		if i == 0 {
			tl.Stall[0] = load
		}
		tl.Avail[i] = load
		tl.ExecStart[i] = t
		t += prof.Layers[i].ExecInMem
		tl.ExecDone[i] = t
	}
	tl.Total = t
	return tl
}

func loadMethods(prof *profiler.Profile) []plan.Method {
	return make([]plan.Method, len(prof.Layers)) // zero value is Load
}

// runAlgorithm1 mutates methods in place, applying the paper's Algorithm 1
// restricted to partition-0 layers (for single-partition plans that is the
// whole model).
func (pl *Planner) runAlgorithm1(prof *profiler.Profile, methods []plan.Method, parts []int, numParts int) {
	pl.runAlgorithm1Locked(prof, methods, parts, numParts, nil)
}

// runAlgorithm1Locked is runAlgorithm1 with a set of conversions the
// pruning pass must not revert (nil for none).
func (pl *Planner) runAlgorithm1Locked(prof *profiler.Profile, methods []plan.Method, parts []int, numParts int, locked []bool) {
	tp := pl.params()
	tl := computeTimeline(prof, methods, parts, numParts, tp)
	for i := range prof.Layers {
		if tl.Stall[i] <= 0 {
			continue
		}
		// Step 1: candidate layers L_1..L_i still on load-then-execute,
		// sorted by PerfDiff ascending — the smaller the DHA penalty, the
		// more stall reduction per conversion.
		var cands []int
		for j := 0; j <= i; j++ {
			if parts[j] == 0 && methods[j] == plan.Load && prof.Layers[j].ParamBytes > 0 {
				cands = append(cands, j)
			}
		}
		sort.SliceStable(cands, func(a, b int) bool {
			return prof.Layers[cands[a]].PerfDiff() < prof.Layers[cands[b]].PerfDiff()
		})
		for _, j := range cands {
			// Step 2: a candidate whose PerfDiff exceeds the remaining
			// stall would push execution out further than it saves; since
			// candidates are sorted, no later candidate helps either.
			if tl.Stall[i] < prof.Layers[j].PerfDiff() {
				break
			}
			// Step 3: convert and re-evaluate the pipeline (Step 4's
			// UpdatePipelineExecutionFrom is an exact re-computation here).
			methods[j] = plan.DHA
			tl = computeTimeline(prof, methods, parts, numParts, tp)
			if tl.Stall[i] <= 0 {
				break
			}
		}
	}
	pl.pruneImmaterial(prof, methods, parts, numParts, locked)
}

// pruneImmaterial reverts DHA conversions whose end-to-end cold-start gain
// is below MinDHAGain, worst PerfDiff first (the layers that hurt warm
// execution most are reconsidered first).
func (pl *Planner) pruneImmaterial(prof *profiler.Profile, methods []plan.Method, parts []int, numParts int, locked []bool) {
	if pl.MinDHAGain <= 0 {
		return
	}
	tp := pl.params()
	var converted []int
	for i, m := range methods {
		if m == plan.DHA && (locked == nil || !locked[i]) {
			converted = append(converted, i)
		}
	}
	sort.SliceStable(converted, func(a, b int) bool {
		return prof.Layers[converted[a]].PerfDiff() > prof.Layers[converted[b]].PerfDiff()
	})
	total := computeTimeline(prof, methods, parts, numParts, tp).Total
	for _, j := range converted {
		need := pl.MinDHAGain
		if pd := prof.Layers[j].PerfDiff(); pd > need {
			need = pd // the gain must cover one warm-inference penalty
		}
		methods[j] = plan.Load
		reverted := computeTimeline(prof, methods, parts, numParts, tp).Total
		if reverted-total >= need {
			methods[j] = plan.DHA // material: keep the conversion
			continue
		}
		total = reverted
	}
}

// partition splits the model into contiguous groups of roughly equal
// parameter bytes. It returns the per-layer partition index and the actual
// partition count used (clamped to MaxPartitions and to a size that leaves
// every partition nonempty).
func (pl *Planner) partition(prof *profiler.Profile, requested int) ([]int, int) {
	max := pl.MaxPartitions()
	numParts := requested
	if numParts < 1 {
		numParts = 1
	}
	if numParts > max {
		numParts = max
	}
	n := len(prof.Layers)
	parts := make([]int, n)
	if numParts == 1 {
		return parts, 1
	}
	total := prof.TotalParamBytes()
	var acc int64
	k := 0
	for i := 0; i < n; i++ {
		// Advance to the next partition once this one holds its byte share.
		for k < numParts-1 && acc >= (int64(k)+1)*total/int64(numParts) {
			k++
		}
		parts[i] = k
		acc += prof.Layers[i].ParamBytes
	}
	return parts, numParts
}
