package dnn

import "fmt"

// Extended zoo: models beyond the paper's eight, following the same
// published architectures as the core zoo. Synthetic-13B drives the §7
// large-model extension (ext-large and examples/futurework); the others
// are reachable only through ByName (deepplan -model) and the zoo-wide
// tests.

// ResNet152 returns ResNet-152 (~60 M parameters).
func ResNet152() *Model { return resnet("ResNet-152", [4]int{3, 8, 36, 3}) }

// DistilBERT returns DistilBERT-Base (~66 M parameters): 6 BERT layers,
// no token-type embedding, no pooler.
func DistilBERT() *Model {
	return encoderModel(transformerSpec{
		name: "DistilBERT", vocab: 30522, maxPos: 512,
		hidden: 768, layers: 6, ffn: 3072, seq: 384,
	})
}

// GPT2Large returns GPT-2 Large (~774 M parameters, ~2.9 GiB).
func GPT2Large() *Model {
	return encoderModel(transformerSpec{
		name: "GPT-2 Large", vocab: 50257, maxPos: 1024,
		hidden: 1280, layers: 36, ffn: 5120, seq: 1024, gpt: true,
	})
}

// GPT2XL returns GPT-2 XL (~1.56 B parameters, ~5.8 GiB) — the largest
// dense model in the extended zoo that still fits one V100.
func GPT2XL() *Model {
	return encoderModel(transformerSpec{
		name: "GPT-2 XL", vocab: 50257, maxPos: 1024,
		hidden: 1600, layers: 48, ffn: 6400, seq: 1024, gpt: true,
	})
}

// ViTBase returns ViT-Base/16 (~86 M parameters): a vision transformer with
// a convolutional patch embedding and 12 encoder layers over 197 tokens.
func ViTBase() *Model {
	const (
		hidden  = 768
		layers  = 12
		ffn     = 3072
		patches = 196 // 224/16 squared
		seq     = patches + 1
	)
	b := &builder{}
	// Patch embedding: a 16x16 stride-16 convolution, 3 -> 768.
	b.add(convLayer("patch_embed.proj", 3, hidden, 16, 14))
	// Class token + position embeddings (gathered per forward).
	b.add(embLayer("pos_embed", seq, hidden, seq))
	for i := 0; i < layers; i++ {
		p := fmt.Sprintf("blocks.%d", i)
		b.add(lnLayer(p+".norm1", hidden, seq))
		b.add(fcLayer(p+".attn.qkv", hidden, 3*hidden, seq))
		b.add(attnLayer(p+".attn.scores", hidden, hidden/64, seq))
		b.add(fcLayer(p+".attn.proj", hidden, hidden, seq))
		b.add(resLayer(p+".res1", hidden, seq))
		b.add(lnLayer(p+".norm2", hidden, seq))
		b.add(fcLayer(p+".mlp.fc1", hidden, ffn, seq))
		b.add(geluLayer(p+".mlp.act", ffn, seq))
		b.add(fcLayer(p+".mlp.fc2", ffn, hidden, seq))
		b.add(resLayer(p+".res2", hidden, seq))
	}
	b.add(lnLayer("norm", hidden, seq))
	b.add(Layer{Name: "head", Kind: Linear,
		ParamBytes: int64(hidden*1000+1000) * f32,
		FLOPs:      2 * float64(hidden) * 1000,
		ActBytes:   float64(hidden+1000) * f32})
	return &Model{Name: "ViT-Base/16", Layers: b.layers, SeqLen: seq,
		InputNote: "224x224 RGB image, 16x16 patches"}
}

// Synthetic13B returns a synthetic 13-billion-parameter decoder
// (~48.5 GiB), standing in for the "models which do not fit in single GPU
// memory" case of the paper's §7 future work. 40 layers, hidden 5120,
// sequence 1024 — GPT-3-13B-shaped.
func Synthetic13B() *Model {
	return encoderModel(transformerSpec{
		name: "Synthetic-13B", vocab: 50257, maxPos: 2048,
		hidden: 5120, layers: 40, ffn: 20480, seq: 1024, gpt: true,
	})
}
