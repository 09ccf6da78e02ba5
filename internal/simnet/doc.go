// Package simnet is a flow-level network simulator used to model the
// PCIe and NVLink fabric of a multi-GPU server.
//
// # Model
//
// The fabric is a set of Links, each with a capacity in bytes per second.
// A Flow moves a number of bytes across an ordered path of links. While
// multiple flows share a link, bandwidth is divided by progressive filling
// (max–min fairness), which is the standard first-order model for PCIe
// arbitration: a root-port uplink shared by two switch downstream ports
// splits evenly under load, and a flow limited elsewhere releases its share.
//
// The simulator is exact for piecewise-constant rates: whenever the set of
// active flows changes, every flow's progress is advanced, rates are
// recomputed, and the next completion is scheduled.
//
// # Relation to the paper
//
// This package is the substrate under the paper's transmission results
// (Jeong, Baek, Ahn — "Fast and Efficient Model Serving Using Multi-GPUs
// with Direct-Host-Access", EuroSys 2023):
//
//   - §3.2 / Table 2: per-GPU PCIe bandwidth collapses from ~11 GB/s to
//     ~6 GB/s when four GPUs load in parallel through two shared switches —
//     max–min sharing over the topology's uplink links reproduces this.
//   - §4.3.3: parallel transmission overlaps NVLink forwarding with PCIe
//     loading because the paths are disjoint; disjoint paths are native
//     here (separate Link sets).
//   - §4.1: direct-host-access executions issue flows over the same lanes
//     as weight copies, so DHA traffic and loads contend realistically.
//
// # Dynamic behaviour
//
// Link capacity can change mid-simulation (SetLinkCapacity): in-flight
// flows are advanced at their old rates, then re-shared under the new
// capacity. LimitFlows installs a FlowLimiter that caps matching flows at
// start time by appending a private trailing link to their path. Both
// exist for fault injection (package faults): degraded links, host-memory
// pressure, and straggler transfers are all expressed through them.
//
// # Flow recycling
//
// Flow objects are recycled exactly as package sim recycles its events.
// A flow goes back on the Network's free list (at most 1024 objects) at
// three points: after its FlowDone returns (once every callback of the
// completion batch it belongs to has run), after Abort, and after a
// zero-byte flow's completion event fires. Recycling clears the callback
// and the path, so Name, Total and Done stay readable until a later StartFlow
// reuses the object. Holders must drop the pointer at completion or abort:
// the engine's op records clear theirs in FlowDone and abort, and every
// other caller ignores the returned pointer. In steady state a flow's whole
// life, from StartFlow to completion or abort, allocates nothing.
//
// Determinism: everything runs on the virtual clock of package sim; equal
// inputs replay byte-identically, and bandwidth/busy accounting is
// allocation-free on the hot path.
package simnet
