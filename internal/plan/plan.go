// Package plan defines the inference execution plan produced by DeepPlan's
// planner and consumed by the execution engine: for every layer, whether it
// is loaded to GPU memory or executed via direct-host-access, and which
// transmission partition it belongs to.
package plan

import (
	"encoding/json"
	"fmt"

	"deepplan/internal/dnn"
)

// Method says how a layer's parameters are made available to the GPU.
type Method int

const (
	// Load copies the layer to GPU memory before execution
	// (load-then-execute).
	Load Method = iota
	// DHA leaves the layer in pinned host memory and executes it via
	// direct-host-access.
	DHA
)

// String returns the method name used in plan tables ("Load" / "DHA").
func (m Method) String() string {
	switch m {
	case Load:
		return "load"
	case DHA:
		return "dha"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// MarshalJSON encodes the method as its string form.
func (m Method) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON decodes the string form.
func (m *Method) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "load":
		*m = Load
	case "dha":
		*m = DHA
	default:
		return fmt.Errorf("plan: unknown method %q", s)
	}
	return nil
}

// Mode is the execution strategy a plan realizes: one of the paper's five
// cold-start legends (§4.3, Figure 11) below, or the name of a specialized
// planner output ("initial-dha", "dha-large", "streaming").
type Mode string

// The paper's execution modes.
const (
	// ModeBaseline loads the whole model, then executes (no pipelining).
	ModeBaseline Mode = "baseline"
	// ModePipeSwitch pipelines per-layer loading with execution
	// (Bai et al., OSDI 2020) — the paper's state-of-the-art comparison.
	ModePipeSwitch Mode = "pipeswitch"
	// ModeDHA is DeepPlan with direct-host-access only (single GPU).
	ModeDHA Mode = "dha"
	// ModePT is DeepPlan with parallel transmission only (multi GPU).
	ModePT Mode = "pt"
	// ModePTDHA combines parallel transmission and direct-host-access.
	ModePTDHA Mode = "pt+dha"
)

// LayerPlan is the planner's decision for one layer.
type LayerPlan struct {
	Index     int    `json:"index"`
	Name      string `json:"name"`
	Method    Method `json:"method"`
	Partition int    `json:"partition"`
}

// Plan is a complete inference execution plan for one (model, server) pair.
type Plan struct {
	ModelName string      `json:"model"`
	Topology  string      `json:"topology"`
	Batch     int         `json:"batch"`
	Mode      Mode        `json:"mode"` // the strategy the plan realizes; see Mode
	NumParts  int         `json:"partitions"`
	Layers    []LayerPlan `json:"layers"`
}

// Validate checks the plan's structural invariants against its model:
// one decision per layer, in order; DHA only on layers that have parameters;
// DHA never outside partition 0 (paper §4.3.3: later partitions are forced
// to Load so they can be transmitted); partition indices nondecreasing and
// within range. Indices may skip a partition, which is then empty.
func (p *Plan) Validate(m *dnn.Model) error {
	if p.NumParts < 1 {
		return fmt.Errorf("plan: partitions = %d, want >= 1", p.NumParts)
	}
	if len(p.Layers) != m.NumLayers() {
		return fmt.Errorf("plan: %d layer plans for %d-layer model %s",
			len(p.Layers), m.NumLayers(), m.Name)
	}
	prevPart := 0
	for i := range p.Layers {
		lp := &p.Layers[i]
		l := &m.Layers[i]
		if lp.Index != i {
			return fmt.Errorf("plan: layer %d has index %d", i, lp.Index)
		}
		if lp.Method == DHA && !l.HasParams() {
			return fmt.Errorf("plan: parameterless layer %q marked DHA", l.Name)
		}
		if lp.Method == DHA && lp.Partition != 0 {
			return fmt.Errorf("plan: DHA layer %q in partition %d (DHA is only valid in the first partition)",
				l.Name, lp.Partition)
		}
		if lp.Partition < 0 || lp.Partition >= p.NumParts {
			return fmt.Errorf("plan: layer %q partition %d out of range [0,%d)",
				l.Name, lp.Partition, p.NumParts)
		}
		if lp.Partition < prevPart {
			return fmt.Errorf("plan: partition indices not nondecreasing at layer %q", l.Name)
		}
		prevPart = lp.Partition
	}
	return nil
}

// CountDHA returns how many layers use direct-host-access.
func (p *Plan) CountDHA() int {
	n := 0
	for i := range p.Layers {
		if p.Layers[i].Method == DHA {
			n++
		}
	}
	return n
}

// ResidentBytes returns the GPU-resident parameter bytes under this plan:
// everything except DHA layers, which stay in host memory permanently. This
// is the quantity that lets DeepPlan pack more instances per GPU (§5.3).
func (p *Plan) ResidentBytes(m *dnn.Model) int64 {
	var t int64
	for i := range p.Layers {
		if p.Layers[i].Method == Load {
			t += m.Layers[i].ParamBytes
		}
	}
	return t
}

// HostResidentBytes returns the parameter bytes left in host memory (DHA).
func (p *Plan) HostResidentBytes(m *dnn.Model) int64 {
	return m.TotalParamBytes() - p.ResidentBytes(m)
}

// PartitionLayers returns the layer indices belonging to partition k.
func (p *Plan) PartitionLayers(k int) []int {
	var out []int
	for i := range p.Layers {
		if p.Layers[i].Partition == k {
			out = append(out, i)
		}
	}
	return out
}

// AllLoad returns a single-partition plan that loads every loadable layer —
// the Baseline and PipeSwitch configuration.
func AllLoad(m *dnn.Model, mode Mode, batch int) *Plan {
	p := &Plan{ModelName: m.Name, Batch: batch, Mode: mode, NumParts: 1}
	for i := range m.Layers {
		p.Layers = append(p.Layers, LayerPlan{
			Index: i, Name: m.Layers[i].Name, Method: Load,
		})
	}
	return p
}

// SingleGPU returns a copy of the plan collapsed onto one GPU: identical
// per-layer methods (so the resident set and memory footprint are
// unchanged), but every layer in partition 0 with no parallel transmission.
// The serving system uses this to degrade a PT cold-start gracefully when
// no transmission partner is free.
func (p *Plan) SingleGPU() *Plan {
	q := *p
	q.NumParts = 1
	q.Layers = make([]LayerPlan, len(p.Layers))
	copy(q.Layers, p.Layers)
	for i := range q.Layers {
		q.Layers[i].Partition = 0
	}
	return &q
}

// Marshal serializes the plan to indented JSON.
func (p *Plan) Marshal() ([]byte, error) { return json.MarshalIndent(p, "", "  ") }

// Unmarshal parses a JSON plan.
func Unmarshal(b []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return &p, nil
}
