package serving

// Autoregressive (LLM) serving mode: token-by-token decoding with
// iteration-level continuous batching, KV-cache admission, and optional
// prefill/decode disaggregation.
//
// A request's life in this mode: the ordinary warm/cold machinery runs its
// prefill (a full forward pass over the prompt, scaled to the prompt length
// via engine.Spec.ComputeScale). Prefill completion IS the first token —
// that instant's latency is the request's TTFT, recorded where single-shot
// mode records its end-to-end latency, so every existing cold/warm figure
// reads naturally as "first token" under -llm. Requests wanting more tokens
// become sequences: each reserves its worst-case KV footprint (prompt +
// remaining output, Orca-style) from the decode GPU's allocator — the same
// allocator the weights live in, so weights + KV can never exceed device
// memory — and joins the instance's decode batch. Decode iterations are
// opaque exec-stream tasks (engine.StartTask) priced by
// costmodel.DecodeIterTime; each advances every active sequence by one
// token. Under continuous batching sequences join at any iteration
// boundary, bounded by the token budget; under static batching they join
// only when the previous batch has fully drained (arrivals coalesce in the
// ordinary dynamic-batching backlog meanwhile, which is exactly the
// run-to-completion baseline continuous batching was invented to beat).
//
// Failure is handled at eviction: evict → failLLM re-dispatches every
// sequence of the instance through the ordinary retry-once-then-shed path
// and releases its KV. A decode iteration aborted by engine.FailGPU only
// cleans up the loop bookkeeping — its sequences were already drained by
// the eviction that preceded the abort.

import (
	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/engine"
	"deepplan/internal/gpumem"
	"deepplan/internal/metrics"
	"deepplan/internal/sim"
	"deepplan/internal/workload"
)

// LLM batching modes.
const (
	// LLMBatchContinuous joins/leaves the running decode batch at iteration
	// boundaries (Orca-style; the default).
	LLMBatchContinuous = "continuous"
	// LLMBatchStatic runs each batch to completion before admitting the
	// next (FasterTransformer-style baseline).
	LLMBatchStatic = "static"
)

// LLMConfig configures the autoregressive serving mode.
type LLMConfig struct {
	// Enabled turns the mode on. Off (the zero value) the server is
	// byte-identical to one built before this mode existed.
	Enabled bool
	// Batching is LLMBatchContinuous (default) or LLMBatchStatic.
	Batching string
	// TokenBudget caps the sequences decoding concurrently per instance
	// batch (each contributes one token per iteration). Default 8.
	TokenBudget int
	// MaxOutput caps generated tokens per request; requests' OutputTokens
	// clamp to it, and it bounds the worst-case KV reservation. Default 64.
	MaxOutput int
	// PrefillDecode places a second weight replica on another GPU and runs
	// decode there, with the prompt's KV state transferred over the fabric
	// after prefill. Needs at least 2 GPUs.
	PrefillDecode bool
}

// llmSeq is one request being decoded token by token.
type llmSeq struct {
	p         pending
	prompt    int // clamped prompt length (KV already written by prefill)
	remaining int // decode tokens still to generate
	maxTokens int // prompt + output: the KV reservation bound
	kv        *gpumem.KVReservation
	cold      bool
}

// llmState is an instance's decode-batch state.
type llmState struct {
	active    []*llmSeq // advancing one token per iteration
	joinq     []*llmSeq // admitted (KV reserved), waiting for a boundary
	kvwait    []*llmSeq // deferred by KV admission; retried as memory frees
	transfers []*llmSeq // prompt KV in flight to the decode GPU
	running   bool      // an iteration task is on the exec stream
	// iterDone is the engine callback for this instance's decode
	// iterations, allocated once with the state.
	iterDone func(*engine.Result)
	// busyGS is the gpuState the running loop counted busyUp on. Pinned at
	// loop start because an abort callback can arrive after the instance
	// was evicted and re-placed elsewhere, when decodeGPU() has moved on.
	busyGS *gpuState
	// epoch guards in-flight KV-transfer callbacks: eviction bumps it, so a
	// flow landing after its sequence was re-dispatched is ignored.
	epoch int
}

// llmEnabledStats is the slice of Server state the cluster layer merges.
type LLMStats struct {
	TTFT            *metrics.Digest
	TokensGenerated int
	DecodeIters     int
	DecodeSeqSum    int
	KVDeferred      int
	KVTransfers     int
}

// LLMStats exposes the autoregressive counters and the TTFT digest for
// cluster-level merging. Read-only use after the run has finished.
func (srv *Server) LLMStats() LLMStats {
	return LLMStats{
		TTFT:            &srv.ttftDigest,
		TokensGenerated: srv.tokensGenerated,
		DecodeIters:     srv.decodeIters,
		DecodeSeqSum:    srv.decodeSeqSum,
		KVDeferred:      srv.kvDeferred,
		KVTransfers:     srv.kvTransfers,
	}
}

// decodeGPU is where an instance's decode iterations run and its KV lives.
func (srv *Server) decodeGPU(inst *Instance) int {
	if srv.cfg.LLM.PrefillDecode {
		return inst.pdGPU
	}
	return inst.gpu
}

// llmScale returns the prefill ComputeScale for a batch: the longest prompt
// in the batch over the model's calibrated sequence length. Zero (meaning
// "unscaled") outside LLM mode or when no request carries a prompt length.
func (srv *Server) llmScale(m *dnn.Model, reqs []pending) float64 {
	if !srv.cfg.LLM.Enabled {
		return 0
	}
	maxP := 0
	for _, p := range reqs {
		if p.req.PromptTokens > maxP {
			maxP = p.req.PromptTokens
		}
	}
	return costmodel.PrefillScale(m, maxP)
}

// llmPrefillDone is the prefill-completion seam: the warm/cold OnDone paths
// divert here instead of record() when LLM mode is on.
func (srv *Server) llmPrefillDone(inst *Instance, reqs []pending, res *engine.Result, cold bool) {
	if inst.state != Warm {
		// The instance lost residency mid-prefill without the run itself
		// aborting — under disaggregation the decode GPU can fail while the
		// prefill GPU stays healthy. The prefilled activations died with the
		// eviction; retry from scratch.
		for _, p := range reqs {
			srv.retryOrShed(inst, p)
		}
		return
	}
	if inst.llm == nil {
		inst.llm = &llmState{}
		inst.llm.iterDone = func(res *engine.Result) { srv.llmIterDone(inst, res) }
	}
	perTok := inst.dep.Model.KVBytesPerToken()
	for _, p := range reqs {
		srv.llmRecordFirst(p.req, res, cold)
		srv.tokensGenerated++ // the prefill produced the first token
		out := p.req.OutputTokens
		if out > srv.cfg.LLM.MaxOutput {
			out = srv.cfg.LLM.MaxOutput
		}
		if out <= 1 {
			srv.llmFinish(inst, p.req, res.Finish.Sub(p.req.At))
			continue
		}
		prompt := p.req.PromptTokens
		if prompt < 1 {
			prompt = 1
		}
		if prompt > inst.dep.Model.SeqLen {
			prompt = inst.dep.Model.SeqLen
		}
		seq := &llmSeq{p: p, prompt: prompt, remaining: out - 1, maxTokens: prompt + out, cold: cold}
		inst.inflight++
		if srv.cfg.LLM.PrefillDecode {
			srv.llmStartTransfer(inst, seq, float64(int64(prompt)*perTok))
			continue
		}
		srv.llmReserveAndJoin(inst, seq)
	}
	// The instance just went idle on its prefill; sequences parked on KV
	// admission anywhere may now be able to evict their way in.
	srv.llmRetryKVWaitAll()
	srv.llmKick(inst)
}

// llmRecordFirst records a request's time-to-first-token: into the cold or
// warm digest (the class split every figure reports), the TTFT digest, the
// per-window series, the monitor, and the trace — exactly the surface
// record() covers in single-shot mode, minus completion (the request is
// still generating).
func (srv *Server) llmRecordFirst(req workload.Request, res *engine.Result, cold bool) {
	ttft := res.Finish.Sub(req.At)
	srv.ttftDigest.Add(ttft)
	if cold {
		srv.coldDigest.Add(ttft)
	} else {
		srv.warmDigest.Add(ttft)
	}
	srv.series.Record(req.At, ttft, cold)
	if srv.ins != nil {
		class := 1 // warm
		if cold {
			class = 0
		}
		m := srv.instances[req.Instance].dep.mon
		m.requests[class].Inc()
		if ttft > srv.cfg.SLO {
			m.violations[class].Inc()
		}
		m.latency[class].Observe(ttft.Seconds())
	}
	if srv.rec != nil {
		srv.traceSeq++
		id := srv.traceSeq
		class := "warm"
		if cold {
			class = "cold"
		}
		queue := res.ExecBegin.Sub(req.At)
		srv.rec.AsyncBegin(res.Primary, "request", res.Model, id, req.At, map[string]any{
			"class":    class,
			"instance": req.Instance,
			"queue_us": float64(queue) / 1e3,
			"ttft_us":  float64(ttft) / 1e3,
		})
		srv.rec.AsyncEnd(res.Primary, "request", res.Model, id, res.Finish)
	}
}

// llmFinish completes a fully generated request (end-to-end latency into the
// overall digest; TTFT went into the class digests at prefill time).
func (srv *Server) llmFinish(inst *Instance, req workload.Request, lat sim.Duration) {
	srv.digest.Add(lat)
	srv.completed++
	inst.lastUsed = srv.sim.Now()
	if srv.inj != nil && srv.inj.Active() > 0 {
		srv.degraded++
	}
}

// llmStartTransfer ships a sequence's prompt KV state from the prefill GPU
// to the decode GPU: over NVLink when the pair has a direct link, otherwise
// staged through host memory onto the decode GPU's PCIe lane, contending
// with cold-start copies and DHA reads exactly like any other traffic.
func (srv *Server) llmStartTransfer(inst *Instance, seq *llmSeq, bytes float64) {
	llm := inst.llm
	llm.transfers = append(llm.transfers, seq)
	srv.kvTransfers++
	srv.kvTransferBytes += bytes
	path, direct := srv.cfg.Topo.GPUToGPUPath(inst.gpu, inst.pdGPU)
	if !direct {
		path = srv.cfg.Topo.HostToGPUPath(inst.pdGPU)
	}
	ep := llm.epoch
	srv.net.StartFlow(inst.dep.decodeName, path, bytes, func(sim.Time) {
		if llm.epoch != ep {
			return // evicted mid-transfer; failLLM already re-dispatched it
		}
		for i, s := range llm.transfers {
			if s == seq {
				llm.transfers = append(llm.transfers[:i], llm.transfers[i+1:]...)
				break
			}
		}
		srv.llmReserveAndJoin(inst, seq)
		srv.llmKick(inst)
	})
}

// llmReserveAndJoin admits a sequence against the decode GPU's memory:
// reserve the worst-case KV footprint or park on kvwait. A sequence that
// could never fit beside the weights is shed outright. Idle residents may
// be evicted to make room, mirroring cold-start placement.
func (srv *Server) llmReserveAndJoin(inst *Instance, seq *llmSeq) {
	llm := inst.llm
	gs := srv.gpus[srv.decodeGPU(inst)]
	perTok := inst.dep.Model.KVBytesPerToken()
	need := perTok * int64(seq.maxTokens)
	if need > gs.mem.Capacity()-inst.dep.gpuBytes {
		inst.inflight--
		srv.shedRequest(inst, seq.p, "kv-capacity")
		return
	}
	kv, err := gs.kv.Admit(inst.dep.Model.Name, perTok, seq.maxTokens)
	if err != nil {
		if srv.makeRoom(gs, need) {
			kv, err = gs.kv.Admit(inst.dep.Model.Name, perTok, seq.maxTokens)
		}
	}
	if err != nil {
		// Full GPU: defer the join instead of OOMing mid-generation.
		srv.kvDeferred++
		llm.kvwait = append(llm.kvwait, seq)
		return
	}
	seq.kv = kv
	kv.Grow(seq.prompt + 1) // prompt KV plus the prefill's first token
	llm.joinq = append(llm.joinq, seq)
}

// llmKick starts the instance's decode loop if it is idle and has work.
func (srv *Server) llmKick(inst *Instance) {
	llm := inst.llm
	if llm == nil || llm.running {
		return
	}
	srv.llmAdmitJoins(inst)
	if len(llm.active) == 0 {
		if len(llm.joinq)+len(llm.kvwait)+len(llm.transfers) == 0 {
			// Generation fully drained; a static batch may be parked behind it.
			srv.releaseBacklog(inst)
		}
		return
	}
	llm.running = true
	llm.busyGS = srv.gpus[srv.decodeGPU(inst)]
	srv.busyUp(llm.busyGS)
	srv.llmIterate(inst)
}

// llmAdmitJoins moves admitted sequences into the active batch up to the
// token budget (FIFO).
func (srv *Server) llmAdmitJoins(inst *Instance) {
	llm := inst.llm
	for len(llm.joinq) > 0 && len(llm.active) < srv.cfg.LLM.TokenBudget {
		llm.active = append(llm.active, llm.joinq[0])
		llm.joinq = llm.joinq[1:]
	}
}

// llmIterate issues one decode iteration for the current active batch.
func (srv *Server) llmIterate(inst *Instance) {
	d := srv.decodeIterTime(inst.dep, len(inst.llm.active))
	err := srv.eng.StartTask(srv.decodeGPU(inst), inst.dep.decodeName, d, inst.llm.iterDone)
	if err != nil {
		// Unreachable: a failing decode GPU evicts the instance (clearing
		// the batch) before the engine rejects tasks on it.
		panic("serving: decode iteration rejected: " + err.Error())
	}
}

// decodeIterTime is the cost model's DecodeIterTime for dep's model,
// memoized per batch width: the per-layer walk runs once per width instead
// of on every iteration.
func (srv *Server) decodeIterTime(dep *Deployment, nSeqs int) sim.Duration {
	if nSeqs < 1 {
		nSeqs = 1 // DecodeIterTime's own floor
	}
	if nSeqs >= len(dep.decodeIter) {
		dep.decodeIter = append(dep.decodeIter, make([]sim.Duration, nSeqs+1-len(dep.decodeIter))...)
	}
	if dep.decodeIter[nSeqs] == 0 {
		dep.decodeIter[nSeqs] = srv.cfg.Cost.DecodeIterTime(dep.Model, nSeqs)
	}
	return dep.decodeIter[nSeqs]
}

// llmIterDone retires one decode iteration: every active sequence gains a
// token, finished sequences leave (freeing KV), parked sequences retry, and
// — under continuous batching, or when the batch drained — waiting
// sequences join before the next iteration is issued.
func (srv *Server) llmIterDone(inst *Instance, res *engine.Result) {
	llm := inst.llm
	dgs := llm.busyGS
	if res.Aborted {
		// The decode GPU failed mid-iteration. The eviction that preceded
		// the engine abort already re-dispatched the batch (failLLM); only
		// the loop bookkeeping and any coalesced static batch remain.
		llm.running = false
		llm.busyGS = nil
		srv.busyDown(dgs)
		victims := inst.backlog
		inst.backlog = nil
		for _, v := range victims {
			srv.retryOrShed(inst, v)
		}
		srv.drainWaitlist()
		return
	}
	srv.decodeIters++
	srv.decodeSeqSum += len(llm.active)
	srv.tokensGenerated += len(llm.active)
	now := srv.sim.Now()
	keep := llm.active[:0]
	for _, s := range llm.active {
		s.kv.Grow(1)
		s.remaining--
		if s.remaining > 0 {
			keep = append(keep, s)
			continue
		}
		s.kv.Release()
		inst.inflight--
		srv.llmFinish(inst, s.p.req, now.Sub(s.p.req.At))
	}
	llm.active = keep
	// Finished sequences freed KV; deferred joins anywhere on this (or any)
	// GPU may fit now.
	srv.llmRetryKVWaitAll()
	if srv.cfg.LLM.Batching == LLMBatchContinuous || len(llm.active) == 0 {
		srv.llmAdmitJoins(inst)
	}
	if len(llm.active) > 0 {
		srv.llmIterate(inst)
		return
	}
	llm.running = false
	llm.busyGS = nil
	srv.busyDown(dgs)
	if len(llm.joinq)+len(llm.kvwait)+len(llm.transfers) == 0 {
		srv.releaseBacklog(inst)
	}
	srv.drainWaitlist()
}

// llmRetryKVWait re-attempts KV admission for an instance's parked
// sequences in arrival order.
func (srv *Server) llmRetryKVWait(inst *Instance) {
	wait := inst.llm.kvwait
	if len(wait) == 0 {
		return
	}
	inst.llm.kvwait = nil
	for _, s := range wait {
		srv.llmReserveAndJoin(inst, s) // failures re-park, preserving order
	}
}

// llmRetryKVWaitAll retries every instance's deferred joins and restarts
// idle decode loops that gained work. The instance slice gives a
// deterministic order.
func (srv *Server) llmRetryKVWaitAll() {
	for _, inst := range srv.instances {
		llm := inst.llm
		if llm == nil || len(llm.kvwait) == 0 {
			continue
		}
		srv.llmRetryKVWait(inst)
		srv.llmKick(inst)
	}
}

// failLLM drains every sequence of an instance losing residency: KV
// reservations release and each request re-enters dispatch through the
// ordinary retry-once-then-shed path. In-flight KV transfers are orphaned
// by bumping the epoch. No-op outside LLM mode.
func (srv *Server) failLLM(inst *Instance) {
	llm := inst.llm
	if llm == nil {
		return
	}
	total := len(llm.active) + len(llm.joinq) + len(llm.kvwait) + len(llm.transfers)
	if total == 0 {
		return
	}
	llm.epoch++
	seqs := make([]*llmSeq, 0, total)
	seqs = append(seqs, llm.active...)
	seqs = append(seqs, llm.joinq...)
	seqs = append(seqs, llm.kvwait...)
	seqs = append(seqs, llm.transfers...)
	llm.active, llm.joinq, llm.kvwait, llm.transfers = nil, nil, nil, nil
	for _, s := range seqs {
		if s.kv != nil {
			s.kv.Release()
		}
		inst.inflight--
		srv.retryOrShed(inst, s.p)
	}
}
