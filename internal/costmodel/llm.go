package costmodel

import (
	"deepplan/internal/dnn"
	"deepplan/internal/sim"
)

// Autoregressive decode costs. A prefill is the ordinary full-sequence
// forward pass the rest of the model already prices (each layer's
// ComputeTime, scaled by prompt length); a decode iteration runs the same
// layer stack for exactly one new token per active sequence. Two things
// distinguish it from 1/seq of a prefill:
//
//  1. the weights are re-read from HBM once per iteration regardless of how
//     many sequences share it — the classic memory-bound decode regime and
//     the entire reason iteration-level batching amortizes so well; and
//  2. kernel launch overheads are paid per layer per iteration, again
//     independent of batch width.
//
// Per-sequence work (FLOPs and activation traffic for one token) is the
// layer's full-sequence figure divided by the model's sequence length.

// DecodeIterTime returns the duration of one decode iteration that advances
// nSeqs sequences by one token each.
func (p *Params) DecodeIterTime(m *dnn.Model, nSeqs int) sim.Duration {
	if nSeqs < 1 {
		nSeqs = 1
	}
	seq := float64(m.SeqLen)
	if seq < 1 {
		seq = 1
	}
	n := float64(nSeqs)
	var t float64
	for i := range m.Layers {
		l := &m.Layers[i]
		t += float64(p.KernelOverhead[l.Kind])
		t += float64(l.ParamBytes) / p.MemBandwidth * 1e9 // weight re-read, batch-invariant
		t += n * (l.FLOPs / seq) / p.throughput(l.Kind) * 1e9
		t += n * (l.ActBytes / seq) / p.MemBandwidth * 1e9
	}
	return sim.Duration(t)
}

// PrefillScale maps a prompt length onto the fraction of the model's
// calibrated full-sequence forward pass it costs. Prompts longer than the
// model's sequence length are truncated to it, matching the serving layer's
// KV accounting. A non-positive prompt (single-shot workloads that never set
// token counts) returns 0, which callers treat as "unscaled".
func PrefillScale(m *dnn.Model, promptTokens int) float64 {
	if promptTokens <= 0 || m.SeqLen <= 0 {
		return 0
	}
	if promptTokens >= m.SeqLen {
		return 1
	}
	return float64(promptTokens) / float64(m.SeqLen)
}
