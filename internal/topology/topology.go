// Package topology describes the hardware organization of a multi-GPU
// inference server: GPUs, the PCIe switches they hang off, and the NVLink
// mesh between them.
//
// DeepPlan's transmission planner (§4.3.3 of the paper) needs exactly this
// information: which GPUs share a PCIe switch (parallel transmission through
// the same switch contends for the uplink and is not profitable) and which
// GPU pairs are connected by NVLink (required for the merge/reduce phase).
//
// Bandwidth figures are *effective achievable* bandwidths, not signalling
// rates: PCIe 3.0 x16 signals at 15.75 GB/s but the paper measures
// 10.9–11.5 GB/s for large transfers (Table 2), so the preset uses an
// 11.5 GB/s lane. Per-copy software overhead, which further lowers achieved
// bandwidth for models with many small layers (ResNet-50's 9.1 GB/s), is
// modelled by the execution engine, not the link.
package topology

import (
	"fmt"
	"sort"
	"strings"

	"deepplan/internal/simnet"
)

// Bandwidth and size units.
const (
	KB = 1e3
	MB = 1e6
	GB = 1e9

	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// GPU describes one device in the server.
type GPU struct {
	ID          int
	Name        string
	MemoryBytes int64
	Switch      int // index of the PCIe switch this GPU is attached to

	// Lane is the GPU's private PCIe downstream link (host -> GPU
	// direction). Both explicit copies and direct-host-access reads
	// traverse it.
	Lane *simnet.Link

	// NVLinks maps peer GPU ID to the unidirectional NVLink link carrying
	// traffic from this GPU to the peer.
	NVLinks map[int]*simnet.Link
}

// Topology is the immutable hardware description of a server.
type Topology struct {
	Name string
	GPUs []*GPU

	// Uplinks[i] is PCIe switch i's shared upstream link toward the host
	// root complex. GPUs on the same switch contend here.
	Uplinks []*simnet.Link

	// PerCopyOverhead is the fixed software cost of issuing one host->GPU
	// copy (driver + DMA setup). It is a property of the platform, so it
	// lives here rather than in the cost model.
	PerCopyOverheadNanos int64

	// NVLinkCopyOverheadNanos is the fixed cost of one GPU-to-GPU NVLink
	// copy; peer DMA setup is cheaper than a host-initiated PCIe copy.
	NVLinkCopyOverheadNanos int64
}

// Spec configures New. All bandwidths are bytes per second.
type Spec struct {
	Name            string
	GPUName         string
	NumGPUs         int
	GPUMemoryBytes  int64
	GPUsPerSwitch   int
	LaneBandwidth   float64
	UplinkBandwidth float64
	NVLinkBandwidth float64 // 0 disables NVLink entirely
	NVLinkAll       bool    // true: full mesh (NVLinkPairs ignored)
	// NVLinkPairs lists explicit bidirectional NVLink-connected GPU pairs
	// for topologies without a full mesh (e.g. the DGX-1's hybrid
	// cube-mesh). Used only when NVLinkAll is false.
	NVLinkPairs         [][2]int
	PerCopyOverheadNs   int64
	NVLinkCopyOverheadN int64 // defaults to 10 us when zero and NVLink is enabled
}

// New builds a Topology from a Spec.
func New(spec Spec) (*Topology, error) {
	if spec.NumGPUs <= 0 {
		return nil, fmt.Errorf("topology: NumGPUs must be positive, got %d", spec.NumGPUs)
	}
	if spec.GPUsPerSwitch <= 0 {
		return nil, fmt.Errorf("topology: GPUsPerSwitch must be positive, got %d", spec.GPUsPerSwitch)
	}
	if spec.LaneBandwidth <= 0 || spec.UplinkBandwidth <= 0 {
		return nil, fmt.Errorf("topology: PCIe bandwidths must be positive")
	}
	nvOverhead := spec.NVLinkCopyOverheadN
	if nvOverhead == 0 {
		nvOverhead = 10_000
	}
	t := &Topology{
		Name:                    spec.Name,
		PerCopyOverheadNanos:    spec.PerCopyOverheadNs,
		NVLinkCopyOverheadNanos: nvOverhead,
	}
	numSwitches := (spec.NumGPUs + spec.GPUsPerSwitch - 1) / spec.GPUsPerSwitch
	for i := 0; i < numSwitches; i++ {
		t.Uplinks = append(t.Uplinks, simnet.NewLink(
			fmt.Sprintf("%s/switch%d-uplink", spec.Name, i), spec.UplinkBandwidth))
	}
	for g := 0; g < spec.NumGPUs; g++ {
		gpu := &GPU{
			ID:          g,
			Name:        fmt.Sprintf("%s-%d", spec.GPUName, g),
			MemoryBytes: spec.GPUMemoryBytes,
			Switch:      g / spec.GPUsPerSwitch,
			Lane: simnet.NewLink(
				fmt.Sprintf("%s/gpu%d-lane", spec.Name, g), spec.LaneBandwidth),
			NVLinks: map[int]*simnet.Link{},
		}
		t.GPUs = append(t.GPUs, gpu)
	}
	if spec.NVLinkBandwidth > 0 {
		link := func(a, b *GPU) {
			a.NVLinks[b.ID] = simnet.NewLink(
				fmt.Sprintf("%s/nvlink-%d-to-%d", spec.Name, a.ID, b.ID), spec.NVLinkBandwidth)
		}
		if spec.NVLinkAll {
			for _, a := range t.GPUs {
				for _, b := range t.GPUs {
					if a.ID != b.ID {
						link(a, b)
					}
				}
			}
		} else {
			for _, p := range spec.NVLinkPairs {
				a, b := t.GPU(p[0]), t.GPU(p[1])
				if a == nil || b == nil || a == b {
					return nil, fmt.Errorf("topology: bad NVLink pair %v", p)
				}
				link(a, b)
				link(b, a)
			}
		}
	}
	return t, nil
}

// NumGPUs returns the number of GPUs in the server.
func (t *Topology) NumGPUs() int { return len(t.GPUs) }

// GPU returns the GPU with the given ID, or nil if out of range.
func (t *Topology) GPU(id int) *GPU {
	if id < 0 || id >= len(t.GPUs) {
		return nil
	}
	return t.GPUs[id]
}

// HostToGPUPath returns the link path for host -> GPU transfers (explicit
// copies and direct-host-access reads alike): switch uplink, then the GPU's
// private lane.
func (t *Topology) HostToGPUPath(gpuID int) []*simnet.Link {
	g := t.GPU(gpuID)
	if g == nil {
		return nil
	}
	return []*simnet.Link{t.Uplinks[g.Switch], g.Lane}
}

// GPUToGPUPath returns the NVLink path from src to dst and whether the pair
// is NVLink-connected. Without NVLink, GPU-to-GPU traffic would bounce
// through the host over PCIe; the paper's planner simply disables parallel
// transmission in that case, so no PCIe fallback path is provided.
func (t *Topology) GPUToGPUPath(src, dst int) ([]*simnet.Link, bool) {
	g := t.GPU(src)
	if g == nil || t.GPU(dst) == nil {
		return nil, false
	}
	l, ok := g.NVLinks[dst]
	if !ok {
		return nil, false
	}
	return []*simnet.Link{l}, true
}

// SameSwitch reports whether two GPUs share a PCIe switch (and therefore an
// uplink).
func (t *Topology) SameSwitch(a, b int) bool {
	ga, gb := t.GPU(a), t.GPU(b)
	return ga != nil && gb != nil && ga.Switch == gb.Switch
}

// HasNVLink reports whether src can forward to dst over NVLink.
func (t *Topology) HasNVLink(src, dst int) bool {
	_, ok := t.GPUToGPUPath(src, dst)
	return ok
}

// ParallelPartners returns, for a given primary GPU, the GPU IDs usable as
// secondaries for parallel transmission: NVLink-connected GPUs on *other*
// PCIe switches, ordered by ID. GPUs on the same switch are excluded because
// they contend for the uplink (paper §3.2/§4.3.3).
func (t *Topology) ParallelPartners(primary int) []int {
	var out []int
	for _, g := range t.GPUs {
		if g.ID == primary || t.SameSwitch(primary, g.ID) {
			continue
		}
		if t.HasNVLink(g.ID, primary) {
			out = append(out, g.ID)
		}
	}
	return out
}

// Secondaries picks n parallel-transmission partners for primary: the
// lowest-ID ParallelPartners GPU on each other PCIe switch, one per switch
// so no two partitions share an uplink. It returns an error naming the
// topology if primary does not exist or fewer than n switches qualify.
func (t *Topology) Secondaries(primary, n int) ([]int, error) {
	if t.GPU(primary) == nil {
		return nil, fmt.Errorf("topology: no GPU %d in %s", primary, t.Name)
	}
	if n <= 0 {
		return nil, nil
	}
	var out []int
	seen := map[int]bool{t.GPU(primary).Switch: true}
	for _, id := range t.ParallelPartners(primary) {
		if sw := t.GPU(id).Switch; !seen[sw] {
			seen[sw] = true
			if out = append(out, id); len(out) == n {
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("topology: GPU %d needs %d parallel-transmission partners but %s offers %d",
		primary, n, t.Name, len(out))
}

// Links enumerates every link in the topology in a deterministic order:
// switch uplinks first, then per-GPU lanes, then NVLinks (by source GPU,
// then destination ID). Fault injection uses this to resolve link names.
func (t *Topology) Links() []*simnet.Link {
	var out []*simnet.Link
	out = append(out, t.Uplinks...)
	for _, g := range t.GPUs {
		out = append(out, g.Lane)
	}
	for _, g := range t.GPUs {
		peers := make([]int, 0, len(g.NVLinks))
		// deterministic: keys are collected and sorted before use.
		for id := range g.NVLinks {
			peers = append(peers, id)
		}
		sort.Ints(peers)
		for _, id := range peers {
			out = append(out, g.NVLinks[id])
		}
	}
	return out
}

// FindLink resolves a link by name. It accepts either the full diagnostic
// name ("p3.8xlarge/gpu0-lane") or the suffix after the topology prefix
// ("gpu0-lane", "switch1-uplink", "nvlink-0-to-2"), so fault specs stay
// portable across topologies. It returns nil when no link matches.
func (t *Topology) FindLink(name string) *simnet.Link {
	for _, l := range t.Links() {
		if l.Name() == name || strings.TrimPrefix(l.Name(), t.Name+"/") == name {
			return l
		}
	}
	return nil
}

// LaneBandwidth returns the private-lane bandwidth of GPU 0, which is uniform
// across the presets; it is the single-transfer effective PCIe bandwidth.
func (t *Topology) LaneBandwidth() float64 {
	if len(t.GPUs) == 0 {
		return 0
	}
	return t.GPUs[0].Lane.Capacity()
}

// NVLinkBandwidth returns the NVLink bandwidth between the first connected
// pair, or 0 if the topology has no NVLink.
func (t *Topology) NVLinkBandwidth() float64 {
	for _, g := range t.GPUs {
		// deterministic: every NVLink in a topology has the same capacity,
		// so whichever map entry comes first gives the same answer.
		for _, l := range g.NVLinks {
			return l.Capacity()
		}
	}
	return 0
}

// P38xlarge models the paper's primary evaluation platform: an AWS
// p3.8xlarge with four NVIDIA V100 (16 GB) GPUs, two GPUs per PCIe switch,
// full NVLink connectivity, PCIe 3.0.
func P38xlarge() *Topology {
	t, err := New(Spec{
		Name:           "p3.8xlarge",
		GPUName:        "V100",
		NumGPUs:        4,
		GPUMemoryBytes: 16 * GiB,
		GPUsPerSwitch:  2,
		// Effective single-flow PCIe 3.0 x16 bandwidth (Table 2 measures
		// 10.9-11.5 GB/s for large models; per-copy overhead accounts for
		// the rest of the gap).
		LaneBandwidth: 11.7 * GB,
		// The switch uplink is marginally wider than one lane, so a single
		// flow is lane-limited but two concurrent flows through the same
		// switch collapse to ~6 GB/s each (Table 2, 4-GPU column).
		UplinkBandwidth: 12.2 * GB,
		// V100 NVLink2 effective per-direction bandwidth.
		NVLinkBandwidth:   22 * GB,
		NVLinkAll:         true,
		PerCopyOverheadNs: 25_000, // 25 us per cudaMemcpyAsync
	})
	if err != nil {
		panic(err) // static preset; cannot fail
	}
	return t
}

// DGX1 models an NVIDIA DGX-1V: eight V100 (16 GB) GPUs, two per PCIe
// switch (four switches), NVLink in the hybrid cube-mesh — each quad
// {0..3} and {4..7} is fully connected and GPU i links to GPU i+4. The
// paper's §3.2 notes exactly this class of server ("there are eight GPUs,
// and every two GPUs share the same PCIe switch"); the ablation
// experiments use it to study parallel transmission beyond two partitions.
func DGX1() *Topology {
	pairs := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
	}
	t, err := New(Spec{
		Name:              "dgx-1v",
		GPUName:           "V100",
		NumGPUs:           8,
		GPUMemoryBytes:    16 * GiB,
		GPUsPerSwitch:     2,
		LaneBandwidth:     11.7 * GB,
		UplinkBandwidth:   12.2 * GB,
		NVLinkBandwidth:   22 * GB,
		NVLinkPairs:       pairs,
		PerCopyOverheadNs: 25_000,
	})
	if err != nil {
		panic(err)
	}
	return t
}

// DualA5000PCIe4 models the paper's §5.4 reproduction platform: two NVIDIA
// RTX A5000 (24 GB) GPUs on PCIe 4.0 with an NVLink bridge, one GPU per
// switch (no uplink sharing).
func DualA5000PCIe4() *Topology {
	t, err := New(Spec{
		Name:              "dual-a5000-pcie4",
		GPUName:           "A5000",
		NumGPUs:           2,
		GPUMemoryBytes:    24 * GiB,
		GPUsPerSwitch:     1,
		LaneBandwidth:     21.5 * GB, // PCIe 4.0 x16 effective
		UplinkBandwidth:   22.5 * GB,
		NVLinkBandwidth:   28 * GB, // NVLink bridge
		NVLinkAll:         true,
		PerCopyOverheadNs: 20_000,
	})
	if err != nil {
		panic(err)
	}
	return t
}
