package planner

import (
	"deepplan/internal/plan"
	"deepplan/internal/profiler"
	"deepplan/internal/sim"
)

// timelineParams carries the link characteristics the recurrence needs.
type timelineParams struct {
	nvlinkBW       float64 // bytes/s; only used when partitions > 1
	nvCopyOverhead sim.Duration
}

// timeline is the analytic pipelined-execution model the planner reasons
// with. It mirrors the execution engine's stream semantics under the
// planner's idealized assumptions — uncontended links, partitions on
// distinct PCIe switches — and is cheap enough to recompute after every
// candidate DHA conversion, which is how Algorithm 1's
// UpdatePipelineExecutionFrom step is realized. It returns the end-to-end
// cold inference latency and allocates nothing.
//
// Semantics (matching the engine):
//   - Partition 0 layers marked Load are copied in layer order over the
//     primary GPU's PCIe lane; each copy costs the profiled LoadTime.
//   - Partition k>0 layers are copied in layer order over secondary GPU k's
//     own lane (concurrently with partition 0), then forwarded layer-by-layer
//     over NVLink to the primary GPU; forwarding of a layer starts once it
//     has arrived on the secondary and the NVLink migration stream is free.
//   - Execution runs in layer order on the primary GPU. A Load layer may
//     start once its weights are available; DHA and parameterless layers are
//     always ready. Load layers execute in ExecInMem, DHA layers in ExecDHA.
//
// A layer's arrival depends only on the earlier layers of its own
// partition, so one pass in layer order advances the copy, the NVLink
// forwarding and the execution clock together. lanes is caller-owned
// scratch of 2*numParts entries, cleared here: partition k's PCIe progress
// at k and its NVLink progress at numParts+k. When stall is non-nil,
// stall[i] receives the execution stream's idle time waiting for layer i's
// weights.
func timeline(prof *profiler.Profile, methods []plan.Method, parts []int, lanes []sim.Duration, tp timelineParams, stall []sim.Duration) sim.Duration {
	clear(lanes)
	pcie, nvlink := lanes[:len(lanes)/2], lanes[len(lanes)/2:]
	var t sim.Duration
	for i := range prof.Layers {
		lp := &prof.Layers[i]
		start, dur := t, lp.ExecInMem
		switch {
		case lp.ParamBytes == 0:
			// nothing to transmit
		case methods[i] == plan.DHA:
			dur = lp.ExecDHA
		default:
			k := parts[i]
			pcie[k] += lp.LoadTime
			avail := pcie[k]
			if k > 0 {
				// Forward over NVLink once landed on the secondary GPU.
				xfer := tp.nvCopyOverhead
				if tp.nvlinkBW > 0 {
					xfer += sim.Duration(float64(lp.ParamBytes) / tp.nvlinkBW * 1e9)
				}
				nvlink[k] = max(avail, nvlink[k]) + xfer
				avail = nvlink[k]
			}
			start = max(start, avail)
		}
		if stall != nil {
			stall[i] = start - t
		}
		t = start + dur
	}
	return t
}
