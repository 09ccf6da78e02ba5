package dnn

import (
	"fmt"
	"sort"
)

// zoo maps canonical model names to builders. Builders construct a fresh
// Model on every call so callers can annotate layers without aliasing.
var zoo = map[string]func() *Model{
	"resnet50":      ResNet50,
	"resnet101":     ResNet101,
	"bert-base":     BERTBase,
	"bert-large":    BERTLarge,
	"roberta-base":  RoBERTaBase,
	"roberta-large": RoBERTaLarge,
	"gpt2":          GPT2,
	"gpt2-medium":   GPT2Medium,
	"resnet152":     ResNet152,
	"distilbert":    DistilBERT,
	"gpt2-large":    GPT2Large,
	"gpt2-xl":       GPT2XL,
	"vit-base":      ViTBase,
	"synthetic-13b": Synthetic13B,
}

// ModelNames returns the canonical zoo names in sorted order.
func ModelNames() []string {
	names := make([]string, 0, len(zoo))
	for n := range zoo {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName builds the model registered under the canonical name.
func ByName(name string) (*Model, error) {
	f, ok := zoo[name]
	if !ok {
		return nil, fmt.Errorf("dnn: unknown model %q (known: %v)", name, ModelNames())
	}
	return f(), nil
}

// AllModels builds every model in the zoo, sorted by canonical name.
func AllModels() []*Model {
	names := ModelNames()
	out := make([]*Model, 0, len(names))
	for _, n := range names {
		m, _ := ByName(n)
		out = append(out, m)
	}
	return out
}

// EvaluationNames returns the canonical names in the order the paper's
// figures list the models: ResNet-50, ResNet-101, BERT-Base, BERT-Large,
// RoBERTa-Base, RoBERTa-Large, GPT-2, GPT-2 Medium.
func EvaluationNames() []string {
	return []string{
		"resnet50", "resnet101", "bert-base", "bert-large",
		"roberta-base", "roberta-large", "gpt2", "gpt2-medium",
	}
}

// EvaluationOrder builds the EvaluationNames models in that order.
func EvaluationOrder() []*Model {
	names := EvaluationNames()
	out := make([]*Model, 0, len(names))
	for _, n := range names {
		out = append(out, zoo[n]())
	}
	return out
}
