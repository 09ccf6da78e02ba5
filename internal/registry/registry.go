// Package registry derives a massive multi-tenant model zoo from the
// paper's eight profiled evaluation models (package dnn): thousands to
// hundreds of thousands of registered variants, each a parameter-count
// scaling of a profiled base architecture, with request popularity drawn
// from the same Zipf machinery the workload generator samples with
// (workload.PoissonZipf).
//
// The point of the zoo is capacity pressure. DeepPlan's direct-host-access
// plans (paper §4) pay off precisely when most models cannot stay
// GPU-resident; at zoo scale even *host* memory cannot hold every
// variant's pinned weights, so the pinned tier becomes a cache
// (hostmem.Cache) and cold-starts split into fetch-to-pin plus the
// paper's load-or-DHA execution. Multi-model serving systems face exactly
// this regime — per-user and per-category models at kserve-like counts —
// and simulators of serving at scale (LLMServingSim) model thousands of
// concurrently registered models for the same reason. See docs/ZOO.md.
//
// Variants sharing a (base, scale) pair alias one *dnn.Model shape, so a
// 100k-variant zoo profiles and plans O(bases × scales) models, not
// O(100k) — mirroring how real zoos are dominated by a few architectures
// fine-tuned per tenant (weights differ; shapes repeat).
package registry

import (
	"fmt"

	"deepplan/internal/dnn"
	"deepplan/internal/workload"
)

// DefaultSkew is the Zipf popularity skew used when Spec.Skew is zero:
// skewed enough that a popularity head emerges at any zoo size, mild
// enough that the tail still sees traffic.
const DefaultSkew = 1.2

// defaultBases are transformer architectures spanning ~0.4–1.3 GB of
// weights; scaled copies cover the "many small models" regime fractional
// packing targets.
var defaultBases = []string{"bert-base", "roberta-base", "gpt2", "bert-large"}

// defaultScales are the parameter-count factors applied to each base.
var defaultScales = []float64{0.25, 0.5, 1, 2}

// Spec configures zoo derivation. The zero value of every field except N
// picks a sensible default, and derivation is a pure function of the spec:
// equal specs yield byte-identical zoos.
type Spec struct {
	// N is the number of registered model variants (required, > 0).
	N int
	// Skew is the Zipf popularity exponent (0 means DefaultSkew; negative
	// means uniform popularity, mirroring workload.PoissonZipf).
	Skew float64
	// Bases are canonical dnn model names to derive variants from
	// (nil means defaultBases).
	Bases []string
	// Scales are parameter-count scaling factors (nil means defaultScales).
	Scales []float64
}

// Variant is one registered zoo model: a tenant-owned fine-tune whose
// weights are distinct (it pins its own host memory) but whose
// architectural shape aliases a scaled base model.
type Variant struct {
	// Index is the variant's global zoo index; it is also its popularity
	// rank (variant 0 is the most requested) and the instance index the
	// workload generator samples.
	Index int
	// Name labels the variant ("v00042/BERT-Base@x0.50").
	Name string
	// Popularity is the variant's request probability under the zoo's
	// Zipf skew (all variants sum to 1).
	Popularity float64
	// Model is the shared architectural shape (do not mutate).
	Model *dnn.Model
	// Shape is the index of Model in Zoo.Shapes.
	Shape int
	// Ordinal is the variant's index among variants of the same shape;
	// cluster deployment addresses a variant as (shape, ordinal).
	Ordinal int
}

// Zoo is a derived multi-tenant model registry.
type Zoo struct {
	// Spec echoes the (defaulted) derivation parameters.
	Spec Spec
	// Variants lists every registered variant in popularity order.
	Variants []Variant
	// Shapes lists the distinct scaled architectures, in first-use order.
	Shapes []*dnn.Model
	// TotalBytes is the aggregate weight bytes across all variants — the
	// demand the pinned host-cache tier is sized against.
	TotalBytes int64
}

// New derives a zoo from the spec. Derivation is deterministic: shapes are
// built once per (base, scale) pair and shared by all variants that cycle
// onto them (variant i uses base i mod len(bases) and scale
// (i / len(bases)) mod len(scales), so the popularity head spreads across
// architectures and sizes instead of clustering on one shape).
func New(spec Spec) (*Zoo, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("registry: zoo size must be positive, got %d", spec.N)
	}
	if spec.Skew == 0 {
		spec.Skew = DefaultSkew
	}
	if len(spec.Bases) == 0 {
		spec.Bases = append([]string(nil), defaultBases...)
	}
	if len(spec.Scales) == 0 {
		spec.Scales = append([]float64(nil), defaultScales...)
	}
	bases := make([]*dnn.Model, len(spec.Bases))
	for i, name := range spec.Bases {
		m, err := dnn.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		bases[i] = m
	}
	for _, s := range spec.Scales {
		if s <= 0 {
			return nil, fmt.Errorf("registry: scale factors must be positive, got %g", s)
		}
	}

	z := &Zoo{Spec: spec}
	pop := workload.ZipfWeights(spec.N, spec.Skew)
	shapeIndex := map[string]int{} // shape name -> index in z.Shapes
	perShape := map[int]int{}      // shape index -> variants so far
	z.Variants = make([]Variant, spec.N)
	for i := 0; i < spec.N; i++ {
		base := bases[i%len(bases)]
		scale := spec.Scales[(i/len(bases))%len(spec.Scales)]
		shapeName := fmt.Sprintf("%s@x%.2f", base.Name, scale)
		si, ok := shapeIndex[shapeName]
		if !ok {
			si = len(z.Shapes)
			shapeIndex[shapeName] = si
			z.Shapes = append(z.Shapes, scaleModel(base, shapeName, scale))
		}
		shape := z.Shapes[si]
		z.Variants[i] = Variant{
			Index:      i,
			Name:       fmt.Sprintf("v%05d/%s", i, shapeName),
			Popularity: pop[i],
			Model:      shape,
			Shape:      si,
			Ordinal:    perShape[si],
		}
		perShape[si]++
		z.TotalBytes += shape.TotalParamBytes()
	}
	return z, nil
}

// Requests generates the zoo's open-loop Poisson arrival process at
// ratePerSec with n arrivals: each request's Instance is a global variant
// index, Zipf-distributed to match Variant.Popularity exactly (the same
// inverse-CDF sampler, the same weights).
func (z *Zoo) Requests(seed int64, ratePerSec float64, n int) []workload.Request {
	return workload.PoissonZipf(seed, ratePerSec, n, len(z.Variants), z.Spec.Skew)
}

// scaleModel builds the parameter-count-scaled copy of base: parameter
// bytes, FLOPs, activation traffic and embedding row size all scale by the
// factor (a wider/narrower hidden dimension moves them together to first
// order), while the layer sequence and embedding row count are preserved.
func scaleModel(base *dnn.Model, name string, factor float64) *dnn.Model {
	m := &dnn.Model{
		Name:      name,
		SeqLen:    base.SeqLen,
		InputNote: base.InputNote,
		Layers:    make([]dnn.Layer, len(base.Layers)),
	}
	for i, l := range base.Layers {
		l.ParamBytes = scaleBytes(l.ParamBytes, factor)
		l.FLOPs *= factor
		l.ActBytes *= factor
		l.EmbRowBytes = scaleBytes(l.EmbRowBytes, factor)
		m.Layers[i] = l
	}
	return m
}

// scaleBytes scales a byte count, keeping positive sizes positive so a
// parameterized layer never degenerates to parameterless under small
// factors.
func scaleBytes(b int64, factor float64) int64 {
	if b <= 0 {
		return b
	}
	s := int64(float64(b) * factor)
	if s < 1 {
		s = 1
	}
	return s
}
