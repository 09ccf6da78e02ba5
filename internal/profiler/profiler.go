// Package profiler implements DeepPlan's performance-profiling pre-run
// (paper §4.3.1): for a given model on a given server it measures, per
// layer, the load time, the in-GPU-memory execution time, and the
// direct-host-access execution time.
//
// On the simulated platform "measuring" means evaluating the calibrated
// cost model against the topology's uncontended link bandwidths — exactly
// the condition the paper profiles under (an otherwise idle server). The
// model has no measurement noise, so each layer is measured once: the
// paper's average over repeated runs of the same deterministic value is
// that value. The profiler also accounts the virtual time the pre-run
// itself would take, charging the paper's ten iterations per measurement
// to reproduce Table 5's profiling-cost accounting.
package profiler

import (
	"fmt"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
)

// LayerProfile is the measured performance table row for one layer.
type LayerProfile struct {
	Index      int
	Name       string
	Kind       dnn.Kind
	ParamBytes int64

	// LoadTime is the host→GPU copy time over an uncontended lane,
	// including per-copy overhead. Zero for parameterless layers.
	LoadTime sim.Duration
	// ExecInMem is the execution time with weights in GPU memory.
	ExecInMem sim.Duration
	// ExecDHA is the execution time via direct-host-access over an
	// uncontended lane. Zero-parameter layers have ExecDHA == ExecInMem.
	ExecDHA sim.Duration
	// DHABytes is the PCIe read traffic DHA execution generates.
	DHABytes float64
}

// PerfDiff is the paper's PerfDiff_L = Exec(DHA)_L − Exec(InMem)_L.
func (lp *LayerProfile) PerfDiff() sim.Duration { return lp.ExecDHA - lp.ExecInMem }

// Cost records the virtual time the profiling pre-run consumed (Table 5).
type Cost struct {
	DHA        sim.Duration
	InMem      sim.Duration
	Load       sim.Duration
	Iterations int
}

// Total is the summed profiling time.
func (c Cost) Total() sim.Duration { return c.DHA + c.InMem + c.Load }

// Profile is the complete performance table for one (model, server, batch).
type Profile struct {
	ModelName string
	Topology  string
	Batch     int
	Layers    []LayerProfile
	Cost      Cost
}

// Options configures a profiling run.
type Options struct {
	// Batch is the inference batch size; 0 means 1.
	Batch int
}

// Per-measurement fixed overheads of the profiling harness itself
// (synchronization, Python dispatch), calibrated so total profiling cost
// lands in Table 5's ranges, and the measurement repetitions Table 5
// charges for.
const (
	perMeasureOverhead      = 2 * sim.Millisecond
	perMeasureInMemOverhead = 300 * sim.Microsecond
	iterations              = 10
)

// Run profiles a model for the given topology. GPU 0's lane bandwidth is
// used; the paper likewise profiles on one idle GPU.
func Run(m *dnn.Model, cm *costmodel.Params, topo *topology.Topology, opts Options) (*Profile, error) {
	if m == nil || cm == nil || topo == nil {
		return nil, fmt.Errorf("profiler: nil input")
	}
	if topo.NumGPUs() == 0 {
		return nil, fmt.Errorf("profiler: topology has no GPUs")
	}
	batch := opts.Batch
	if batch < 1 {
		batch = 1
	}
	laneBW := topo.LaneBandwidth()
	overhead := sim.Duration(topo.PerCopyOverheadNanos)

	p := &Profile{ModelName: m.Name, Topology: topo.Name, Batch: batch}
	for i := range m.Layers {
		l := &m.Layers[i]
		lp := LayerProfile{
			Index:      i,
			Name:       l.Name,
			Kind:       l.Kind,
			ParamBytes: l.ParamBytes,
			DHABytes:   cm.DHABytes(l, batch),
		}
		lp.ExecInMem = cm.ComputeTime(l, batch)
		if l.HasParams() {
			lp.LoadTime = cm.LoadTime(l, laneBW, overhead)
			lp.ExecDHA = cm.DHAExecNominal(l, batch, laneBW)
		} else {
			lp.ExecDHA = lp.ExecInMem
		}
		p.Layers = append(p.Layers, lp)

		// Profiling-cost accounting (Table 5): every layer is measured
		// iterations times per method, each measurement paying the layer's
		// own runtime plus harness overhead.
		const it = sim.Duration(iterations)
		p.Cost.InMem += it * (lp.ExecInMem + perMeasureInMemOverhead)
		if l.HasParams() {
			p.Cost.DHA += it * (lp.ExecDHA + perMeasureOverhead)
			p.Cost.Load += it * (lp.LoadTime + perMeasureOverhead)
		}
	}
	p.Cost.Iterations = iterations
	return p, nil
}

// TotalExecInMem sums the in-memory execution column: the model's expected
// warm latency.
func (p *Profile) TotalExecInMem() sim.Duration {
	var t sim.Duration
	for i := range p.Layers {
		t += p.Layers[i].ExecInMem
	}
	return t
}

// TotalLoad sums the load column: the model's expected serial copy time.
func (p *Profile) TotalLoad() sim.Duration {
	var t sim.Duration
	for i := range p.Layers {
		t += p.Layers[i].LoadTime
	}
	return t
}

// TotalParamBytes sums parameter bytes across the table.
func (p *Profile) TotalParamBytes() int64 {
	var t int64
	for i := range p.Layers {
		t += p.Layers[i].ParamBytes
	}
	return t
}
