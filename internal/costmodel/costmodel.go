// Package costmodel is the analytic kernel-latency and traffic model that
// substitutes for running real CUDA kernels.
//
// For every layer it answers three questions the paper's profiler (§4.3.1)
// answers by measurement:
//
//  1. how long does the layer take executed from GPU memory,
//  2. how long does it take via direct-host-access (equivalently: how many
//     bytes does DHA pull over PCIe while computing), and
//  3. how many bytes must be copied to load it.
//
// The constants are calibrated against the paper's published anchors:
// BERT-Base executes in 9.35 ms and loads in ~40 ms on a V100 (§1); Table 1
// gives the DHA PCIe-traffic reuse factors (conv ≈ 1.8x parameters, FC ≈
// 12x, embeddings touch only the gathered rows); Table 2 gives achieved PCIe
// bandwidths; Table 4 gives end-to-end latencies that the calibration is
// validated against in the test suite.
//
// Params is a plain value: KernelOverhead is an array indexed by dnn.Kind,
// so pricing a layer hashes nothing and a copied Params owns its own table.
// The engine prices each (model, batch) once into a run template, so a
// Params must not change once an engine uses it.
package costmodel

import (
	"math"

	"deepplan/internal/dnn"
	"deepplan/internal/sim"
)

// Params holds the platform-calibration constants.
type Params struct {
	// Effective batch-1 compute throughputs, FLOP/s. These are far below
	// peak because batch-1 kernels underutilize the device; they are fitted
	// to the paper's measured model execution times.
	LinearThroughput float64
	ConvThroughput   float64
	AttnThroughput   float64

	// MemBandwidth is effective GPU HBM bandwidth for bandwidth-bound
	// layers (norms, activations, residuals, pooling, gathers).
	MemBandwidth float64

	// KernelOverhead is the fixed per-kernel launch + dispatch cost, indexed
	// by layer kind. An array, not a map: the lookup on every layer priced
	// hashes nothing, and a copied Params owns its own table.
	KernelOverhead [dnn.NumKinds]sim.Duration

	// DHAFixedOverhead is the extra fixed cost of a kernel whose weights
	// are read over PCIe (page-table setup, first-touch latency).
	DHAFixedOverhead sim.Duration

	// ReuseConv/ReuseLinear/ReuseLayerNormAct parameterize DHA PCIe
	// traffic. Convolutions re-read their (uncached) host-resident weights
	// ~1.8x, fully-connected layers ~12x (Table 1). LayerNorm re-reads its
	// tiny parameter vector once per token, which the model expresses as a
	// multiple of activation traffic.
	ReuseConv       float64
	ReuseLinear     float64
	ReuseBatchNorm  float64
	LayerNormActRd  float64 // fraction of ActBytes read over PCIe under DHA
	WorkspaceBase   int64   // CUDA context + allocator slack per instance
	WorkspaceFactor float64 // times the largest activation footprint
}

// Default returns the V100-calibrated parameter set used throughout the
// reproduction. The same constants are used for the PCIe 4.0 topology in
// §5.4; only link bandwidths differ there.
func Default() *Params {
	return &Params{
		LinearThroughput: 10.5e12,
		ConvThroughput:   1.45e12,
		AttnThroughput:   5.0e12,
		MemBandwidth:     850e9,
		KernelOverhead: [dnn.NumKinds]sim.Duration{
			dnn.Embedding:  10 * sim.Microsecond,
			dnn.Linear:     18 * sim.Microsecond,
			dnn.Conv2D:     20 * sim.Microsecond,
			dnn.BatchNorm:  6 * sim.Microsecond,
			dnn.LayerNorm:  8 * sim.Microsecond,
			dnn.Activation: 5 * sim.Microsecond,
			dnn.Pooling:    8 * sim.Microsecond,
			dnn.Residual:   4 * sim.Microsecond,
			dnn.Attention:  25 * sim.Microsecond,
		},
		DHAFixedOverhead: 10 * sim.Microsecond,
		ReuseConv:        1.79, // Table 1: 65,891 * 64 B / 2.25 MiB
		ReuseLinear:      12.1, // Table 1: 446,276 * 64 B / 2.25 MiB
		ReuseBatchNorm:   2.0,
		// LayerNorm re-reads gamma/beta per thread block rather than per
		// token (blocks amortize across ~4 tokens), so PCIe traffic is a
		// quarter of the activation volume — enough to make DHA execution
		// slower than in-memory (the paper's §3.1 finding) without
		// overstating interference.
		LayerNormActRd:  0.25,
		WorkspaceBase:   150e6,
		WorkspaceFactor: 4,
	}
}

func (p *Params) throughput(k dnn.Kind) float64 {
	switch k {
	case dnn.Linear, dnn.Embedding:
		return p.LinearThroughput
	case dnn.Conv2D:
		return p.ConvThroughput
	case dnn.Attention:
		return p.AttnThroughput
	default:
		// Bandwidth-bound kinds: FLOPs are elementwise; account for them at
		// memory speed via ActBytes instead, with a generous FLOP rate so
		// the FLOP term never dominates.
		return p.AttnThroughput
	}
}

// ComputeTime returns the layer's execution time with all weights resident
// in GPU memory, at the given batch size.
func (p *Params) ComputeTime(l *dnn.Layer, batch int) sim.Duration {
	if batch < 1 {
		batch = 1
	}
	b := float64(batch)
	t := float64(p.KernelOverhead[l.Kind])
	t += b * l.FLOPs / p.throughput(l.Kind) * 1e9
	t += b * l.ActBytes / p.MemBandwidth * 1e9
	return sim.Duration(t)
}

// DHABytes returns the PCIe read traffic generated by executing the layer
// via direct-host-access at the given batch size. Layers without parameters
// return 0 (there is nothing host-resident to read).
func (p *Params) DHABytes(l *dnn.Layer, batch int) float64 {
	if !l.HasParams() {
		return 0
	}
	if batch < 1 {
		batch = 1
	}
	b := float64(batch)
	switch l.Kind {
	case dnn.Embedding:
		// Only the gathered rows cross PCIe — the paper's key observation.
		return b * float64(l.EmbRows) * float64(l.EmbRowBytes)
	case dnn.Conv2D:
		return p.ReuseConv * float64(l.ParamBytes)
	case dnn.Linear:
		return p.ReuseLinear * float64(l.ParamBytes)
	case dnn.BatchNorm:
		return p.ReuseBatchNorm * float64(l.ParamBytes)
	case dnn.LayerNorm:
		// gamma/beta are re-read per token: traffic scales with the
		// activation, not the parameter vector.
		return p.LayerNormActRd * b * l.ActBytes / 2
	default:
		return float64(l.ParamBytes)
	}
}

// PCIeReadEvents converts PCIe traffic into the PCIeRdCur event count the
// paper reads from Intel PCM to explain the load-vs-DHA trade-off (Table
// 1): every PCIe read carries one 64-byte cache line, so moving N bytes
// generates ceil(N/64) events.
func (p *Params) PCIeReadEvents(bytes float64) uint64 {
	if bytes <= 0 {
		return 0
	}
	return uint64(math.Ceil(bytes / 64))
}

// DHAExecNominal returns the end-to-end DHA execution time assuming an
// uncontended PCIe path of the given bandwidth: compute and PCIe reads
// overlap, the kernel retires after both, plus the fixed DHA penalty. The
// profiler uses this to build its performance table; the engine computes
// the same quantity with real (contended) simnet flows.
func (p *Params) DHAExecNominal(l *dnn.Layer, batch int, pcieBandwidth float64) sim.Duration {
	pcie := sim.Duration(p.DHABytes(l, batch) / pcieBandwidth * 1e9)
	compute := p.ComputeTime(l, batch)
	if pcie > compute {
		return pcie + p.DHAFixedOverhead
	}
	return compute + p.DHAFixedOverhead
}

// LoadTime returns the time to copy the layer's parameters host→GPU over an
// uncontended link of the given bandwidth, including the per-copy overhead.
// Layers without parameters take zero time.
func (p *Params) LoadTime(l *dnn.Layer, pcieBandwidth float64, perCopyOverhead sim.Duration) sim.Duration {
	if !l.HasParams() {
		return 0
	}
	return perCopyOverhead + sim.Duration(float64(l.ParamBytes)/pcieBandwidth*1e9)
}

// Workspace estimates the per-instance GPU memory needed beyond parameters:
// CUDA context, activation buffers, and allocator slack.
func (p *Params) Workspace(m *dnn.Model, batch int) int64 {
	if batch < 1 {
		batch = 1
	}
	var maxAct float64
	for i := range m.Layers {
		if m.Layers[i].ActBytes > maxAct {
			maxAct = m.Layers[i].ActBytes
		}
	}
	return p.WorkspaceBase + int64(p.WorkspaceFactor*maxAct*float64(batch))
}

// ModelExecTime sums in-memory execution time over all layers: the model's
// warm-inference latency when fully resident.
func (p *Params) ModelExecTime(m *dnn.Model, batch int) sim.Duration {
	var t sim.Duration
	for i := range m.Layers {
		t += p.ComputeTime(&m.Layers[i], batch)
	}
	return t
}

// ModelLoadTime sums serial load time over all loadable layers at the given
// bandwidth: the model's cold copy cost without pipelining.
func (p *Params) ModelLoadTime(m *dnn.Model, pcieBandwidth float64, perCopyOverhead sim.Duration) sim.Duration {
	var t sim.Duration
	for i := range m.Layers {
		t += p.LoadTime(&m.Layers[i], pcieBandwidth, perCopyOverhead)
	}
	return t
}
