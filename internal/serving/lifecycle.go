package serving

import (
	"deepplan/internal/hostmem"
	"deepplan/internal/sim"
	"deepplan/internal/trace"
)

// This file is the instance lifecycle state machine the predictive
// autoscaler actuates:
//
//	           place (DHA load)
//	   Cold ─────────────────────▶ Warm
//	    ▲                         │   │
//	    │ evict                   │   │ SleepInstance
//	    └─────────────────────────┘   ▼
//	        wake = place + load    Sleeping ── host-cache evict ──▶ Swapped
//	   Warm ◀──────────────────────┘                                 │
//	   Warm ◀── swap-in = host fetch + place + load ─────────────────┘
//
// Each transition has a distinct actuation cost: sleep is free (metadata
// plus freeing GPU memory), wake is one direct-host-access load from the
// still-pinned host copy, and swap-in pays the full fetch-to-pin before
// the load can even start. The cluster's predictive controller prefers
// sleep over evict precisely because waking is so much cheaper than the
// cold path a swapped or never-warm instance takes.

// setState moves an instance between lifecycle states and records the
// transition as a "state <model>" instant (args: instance, from, to, why)
// so deepplan-trace can reconstruct per-instance lifecycle timelines.
// Counter bookkeeping stays with the callers.
func (srv *Server) setState(inst *Instance, to InstanceState, why string) {
	from := inst.state
	inst.state = to
	if srv.rec != nil && from != to {
		srv.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "serving",
			"state "+inst.dep.Model.Name, srv.sim.Now(), map[string]any{
				"instance": inst.ID, "from": from.String(), "to": to.String(), "why": why,
			})
	}
}

// notePromotion accounts a placement's lifecycle meaning after the fact:
// promoting a Sleeping instance is a wake (it pays only the DHA load);
// promoting a Swapped one is a swap-in (its host fetch already happened on
// the fetch path). Promotions from Cold are the ordinary cold start and
// count nothing here.
func (srv *Server) notePromotion(inst *Instance, prev InstanceState) {
	switch prev {
	case Sleeping:
		srv.emit(kWake, inst.gpu, inst, nil)
	case Swapped:
		srv.emit(kSwapIn, inst.gpu, inst, nil)
	}
}

// noteHostEvictions records cache-tier victims (trace + monitor), drops
// each from its owner, and demotes any Sleeping owner whose pinned copy was
// just pushed out to Swapped — from here on, activating it costs a full
// fetch-to-pin again.
func (srv *Server) noteHostEvictions(victims []*hostmem.Entry, forName string) {
	now := srv.sim.Now()
	for _, v := range victims {
		inst := srv.instances[v.Owner()]
		inst.host = nil
		if srv.rec != nil {
			srv.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "serving",
				"host-evict "+inst.pinName, now,
				map[string]any{"bytes": v.Bytes(), "for": forName})
		}
		srv.emit(kHostEviction, trace.ServerPID, nil, nil)
		if inst.state == Sleeping {
			srv.emit(kSwapOut, trace.ServerPID, inst, nil)
			srv.setState(inst, Swapped, "host-evict")
		}
	}
}

// idleWarm reports whether an instance is warm with strictly nothing in
// flight — the only condition under which demoting it loses no work.
func (srv *Server) idleWarm(inst *Instance) bool {
	if inst.state != Warm || inst.loading || inst.inflight > 0 ||
		len(inst.backlog) > 0 || inst.fetching || len(inst.fetchWait) > 0 {
		return false
	}
	if llm := inst.llm; llm != nil {
		if llm.running || len(llm.active)+len(llm.joinq)+len(llm.kvwait)+len(llm.transfers) > 0 {
			return false
		}
	}
	return true
}

// SleepInstance demotes an idle warm instance to Sleeping: its GPU memory
// (weights block and any decode replica) is freed and its host entry
// unlocks, but the pinned host copy stays put, so a later wake is a single
// direct-host-access load. Returns false — and does nothing — unless the
// instance is warm with no work in flight. This is the scale-down
// actuation of the predictive autoscaler; unlike evict it is an explicit
// policy decision, not a memory-pressure reaction, and is counted
// separately (Report.Sleeps, deepplan_sleeps).
func (srv *Server) SleepInstance(id int) bool {
	if id < 0 || id >= len(srv.instances) {
		return false
	}
	inst := srv.instances[id]
	if !srv.idleWarm(inst) {
		return false
	}
	srv.release(inst, Sleeping, kSleep)
	return true
}

// PrewarmInstance starts bringing an instance toward Warm ahead of
// predicted demand: a host-resident instance (Cold or Sleeping) is placed
// and its load started immediately; a Swapped or never-pinned instance
// first pays the fetch-to-pin. The warm-up load runs in the background
// with no request attached — requests arriving mid-load coalesce behind
// it exactly as they do behind a demand cold start. Returns whether an
// actuation was started; instances already warm, already fetching, or
// impossible to place right now return false and are left untouched.
func (srv *Server) PrewarmInstance(id int) bool {
	if id < 0 || id >= len(srv.instances) {
		return false
	}
	inst := srv.instances[id]
	if inst.state == Warm || inst.fetching {
		return false
	}
	if e := inst.host; e != nil {
		srv.host.Touch(e, srv.sim.Now())
		if !srv.place(inst) {
			return false
		}
		srv.notePrewarm(inst)
		srv.startCold(inst)
		return true
	}
	// Unlike the demand path a prewarm carries no request: if host memory
	// cannot be freed right now it is abandoned instead of parking anything.
	if err := srv.admitHost(inst); err != nil {
		return false // cannot make room; the spike will pay on demand
	}
	srv.notePrewarm(inst)
	srv.fetch(inst, false, pending{}, false)
	return true
}

// notePrewarm counts one started prewarm actuation.
func (srv *Server) notePrewarm(inst *Instance) {
	srv.emit(kPrewarm, trace.ServerPID, inst, func() map[string]any {
		return map[string]any{"instance": inst.ID, "state": inst.state.String()}
	})
}

// ExecEstimate returns the named deployment's uncontended warm execution
// estimate — the per-replica service time the predictive autoscaler sizes
// replica counts with. ok is false for models never deployed here.
func (srv *Server) ExecEstimate(model string) (est sim.Duration, ok bool) {
	dep, ok := srv.deployments[model]
	if !ok {
		return 0, false
	}
	return dep.ExecEst, true
}
