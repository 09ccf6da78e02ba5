// Package dnn defines the layer-level intermediate representation of the
// DNN models the paper serves, plus a model zoo with the eight evaluation
// models (ResNet-50/101, BERT-Base/Large, RoBERTa-Base/Large, GPT-2,
// GPT-2 Medium) built from their real architectural shapes.
//
// A Layer carries only *structure*: parameter bytes, forward FLOPs at batch
// size 1, activation traffic, and (for embeddings) the gather pattern. How
// long a layer takes to load or execute — in GPU memory or via
// direct-host-access — is the cost model's job (package costmodel), keeping
// architecture and platform cleanly separated, exactly as the paper's
// profiler separates the model from the server it is deployed on.
package dnn

import "fmt"

// Kind classifies a layer by its operator type. The paper's analysis (§3.1)
// shows the load-vs-DHA trade-off is determined almost entirely by kind:
// embeddings are sparse (DHA wins), convolutions reuse weights ~1.8x (DHA
// competitive when small), fully-connected layers reuse ~12x (DHA loses),
// BatchNorm wins with DHA, LayerNorm loses.
type Kind int

const (
	// Embedding is a table gather: only the rows for the input tokens are
	// touched, so DHA moves kilobytes where a load moves the whole table.
	Embedding Kind = iota
	// Linear is a fully-connected layer (including attention projections).
	Linear
	// Conv2D is a 2-D convolution.
	Conv2D
	// BatchNorm is 2-D batch normalization (inference mode).
	BatchNorm
	// LayerNorm is layer normalization over the hidden dimension.
	LayerNorm
	// Activation covers elementwise nonlinearities (ReLU, GELU).
	Activation
	// Pooling covers max/average pooling.
	Pooling
	// Residual is an elementwise shortcut addition.
	Residual
	// Attention is the parameterless score/softmax/value portion of
	// self-attention (the projections around it are Linear layers).
	Attention

	// NumKinds is the number of kinds, for tables indexed by Kind.
	NumKinds
)

var kindNames = [NumKinds]string{
	Embedding: "Emb", Linear: "FC", Conv2D: "Conv", BatchNorm: "BN",
	LayerNorm: "LN", Activation: "Act", Pooling: "Pool", Residual: "Res",
	Attention: "Attn",
}

// String returns the short layer-kind mnemonic used in plan excerpts.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Layer is one schedulable unit of a model: the paper's pipelining, DHA
// decisions, and partitioning all happen at layer granularity.
type Layer struct {
	Index int
	Name  string
	Kind  Kind

	// ParamBytes is the size of the layer's parameters. Layers with zero
	// parameters (activations, pooling, attention arithmetic) have nothing
	// to load and are executed as-is.
	ParamBytes int64

	// FLOPs is the forward floating-point work at batch size 1.
	FLOPs float64

	// ActBytes is the activation memory traffic at batch size 1, which
	// dominates runtime for bandwidth-bound kinds (norms, activations,
	// residuals, pooling).
	ActBytes float64

	// EmbRows / EmbRowBytes describe an embedding gather at batch size 1:
	// rows touched per inference and the size of one row. DHA traffic for
	// an embedding is EmbRows*EmbRowBytes, not ParamBytes — the root of the
	// paper's headline observation.
	EmbRows     int
	EmbRowBytes int64

	// ExpertGroup/ExpertIndex mark mixture-of-experts alternatives (the
	// paper's §7 future-work case): layers sharing a positive ExpertGroup
	// are alternatives of which a router picks exactly one per forward
	// pass. Zero means a dense (always-executed) layer.
	ExpertGroup int
	ExpertIndex int
}

// IsExpert reports whether the layer is one alternative of an MoE group.
func (l *Layer) IsExpert() bool { return l.ExpertGroup > 0 }

// HasParams reports whether the layer has weights to load.
func (l *Layer) HasParams() bool { return l.ParamBytes > 0 }

// Model is an ordered sequence of layers plus input metadata.
type Model struct {
	Name   string
	Layers []Layer
	// SeqLen is the token sequence length for transformer inputs
	// (384 for BERT/RoBERTa, 1024 for GPT-2, per the paper's setup);
	// zero for vision models.
	SeqLen int
	// InputNote documents the benchmark input shape.
	InputNote string
}

// TotalParamBytes returns the summed parameter size of the model.
func (m *Model) TotalParamBytes() int64 {
	var t int64
	for i := range m.Layers {
		t += m.Layers[i].ParamBytes
	}
	return t
}

// TotalFLOPs returns the summed batch-1 forward FLOPs.
func (m *Model) TotalFLOPs() float64 {
	var t float64
	for i := range m.Layers {
		t += m.Layers[i].FLOPs
	}
	return t
}

// NumLayers returns the layer count.
func (m *Model) NumLayers() int { return len(m.Layers) }

// NumLoadable returns the number of layers with parameters.
func (m *Model) NumLoadable() int {
	n := 0
	for i := range m.Layers {
		if m.Layers[i].HasParams() {
			n++
		}
	}
	return n
}

// builder accumulates layers with automatic indexing.
type builder struct {
	layers []Layer
}

func (b *builder) add(l Layer) {
	l.Index = len(b.layers)
	b.layers = append(b.layers, l)
}

const f32 = 4 // bytes per float32 parameter
