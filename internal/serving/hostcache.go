package serving

import (
	"errors"
	"fmt"

	"deepplan/internal/dnn"
	"deepplan/internal/hostmem"
	"deepplan/internal/registry"
	"deepplan/internal/trace"
)

// PackMode selects how cold placement packs instances onto GPUs.
type PackMode string

const (
	// PackSpread is the paper's placement: shortest queue first, then most
	// free memory — load balance over density.
	PackSpread PackMode = "spread"
	// PackDense bin-packs fractional instances (footprint ≤ ¼ GPU, page
	// aligned) onto the fullest GPU that fits them without eviction, so
	// many small zoo models share one GPU's memory.
	PackDense PackMode = "dense"
)

// DeployVariant registers a single instance of a model with an explicit
// popularity weight — the model-zoo deploy path. Variants sharing an
// architectural shape share one profile/plan; each variant pins (or, under
// the cache policies, tries to pin) its own weights. It returns the new
// instance's ID, which is the same on every node that deploys the same
// sequence.
func (srv *Server) DeployVariant(model *dnn.Model, popularity float64) (int, error) {
	dep, err := srv.deployment(model)
	if err != nil {
		return 0, err
	}
	return srv.addInstance(dep, popularity)
}

// DeployZoo registers every variant of a model zoo, one instance per
// variant, in popularity order (variant index = instance index). Use a
// cache host policy: a zoo whose aggregate weights exceed host memory is a
// deploy-time error under the legacy pinned policy. A zoo serves
// single-shot inference only: LLM mode is refused before any variant
// deploys.
func (srv *Server) DeployZoo(z *registry.Zoo) error {
	if srv.cfg.LLM.Enabled {
		return ErrZooLLM
	}
	for i := range z.Variants {
		v := &z.Variants[i]
		if _, err := srv.DeployVariant(v.Model, v.Popularity); err != nil {
			return fmt.Errorf("serving: deploying %s: %w", v.Name, err)
		}
	}
	return nil
}

// ErrZooLLM refuses a model zoo in LLM mode: no caller combines the two, so
// the combination is rejected rather than left untested.
var ErrZooLLM = errors.New("serving: a model zoo serves single-shot inference; disable LLM mode to deploy a zoo")

// hostLocked is the host cache's lock (docs/ZOO.md §3): an instance's
// pinned weights must stay resident while it is warm on a GPU, because
// direct-host-access reads them, or while a fetch-to-pin is filling them.
func (srv *Server) hostLocked(id int) bool {
	inst := srv.instances[id]
	return inst.state == Warm || inst.fetching
}

// pinHost admits inst's weights into the host cache and records the entry
// on the instance. It returns the entries evicted to make room (valid until
// the next admission).
func (srv *Server) pinHost(inst *Instance) ([]*hostmem.Entry, error) {
	e, victims, err := srv.host.Admit(inst.ID, inst.pinName, inst.dep.Model.TotalParamBytes(),
		inst.dep.LoadEst, inst.popularity, srv.sim.Now())
	inst.host = e
	return victims, err
}

// relieveHostPressure evicts the least-recently-used idle warm instance
// across all GPUs so its host entry unlocks and becomes an eviction
// candidate for the cache tier. It reports whether any instance was
// evicted.
func (srv *Server) relieveHostPressure() bool {
	var victim *Instance
	for _, gs := range srv.gpus {
		v := srv.lruIdle(gs)
		if v == nil {
			continue
		}
		if victim == nil || lessRecent(v, victim) {
			victim = v
		}
	}
	if victim == nil {
		return false
	}
	srv.evict(victim)
	return true
}

// admitHost admits inst's weights into the host tier. While every resident
// entry is locked (warm or mid-fetch) it unlocks one by evicting an idle
// warm instance from its GPU and retries: host pressure must propagate to
// GPU residency, or a cache full of warm-locked entries would park every
// fetch forever. It returns ErrCacheBusy once nothing idle is left to
// evict, and another error when the weights exceed host memory outright.
func (srv *Server) admitHost(inst *Instance) error {
	for {
		victims, err := srv.pinHost(inst)
		srv.noteHostEvictions(victims, inst.pinName)
		if !errors.Is(err, hostmem.ErrCacheBusy) || !srv.relieveHostPressure() {
			return err
		}
	}
}

// startFetch begins the fetch-to-pin for an admitted cold request whose
// weights are not host-resident. A request that cannot be admitted parks
// until a completion unlocks an entry, or — if the model is larger than
// host memory — is shed.
func (srv *Server) startFetch(inst *Instance, p pending, fresh bool) {
	err := srv.admitHost(inst)
	switch {
	case errors.Is(err, hostmem.ErrCacheBusy):
		srv.park(inst, p, fresh)
	case err != nil:
		srv.shedRequest(inst, p, "host-capacity")
	default:
		srv.fetch(inst, true, p, fresh)
	}
}

// fetch runs the fetch-to-pin for a just-admitted entry: the entry stays
// locked for the duration (fetching), and after FetchEst the instance is
// placed and loaded — serving the demand request p (parked, with the entry
// unlocked, if no GPU has room), or as a background prewarm load when
// demand is false (which lapses if no GPU has room). Arrivals that
// coalesced onto the fetch re-dispatch when it lands.
func (srv *Server) fetch(inst *Instance, demand bool, p pending, fresh bool) {
	dep := inst.dep
	inst.fetching = true
	srv.emit(kHostFetch, trace.ServerPID, inst, func() map[string]any {
		return map[string]any{
			"instance": inst.ID,
			"bytes":    dep.Model.TotalParamBytes(),
			"fetch_us": float64(dep.FetchEst) / 1e3,
		}
	})
	srv.samplePinned()
	srv.sim.After(dep.FetchEst, func() {
		inst.fetching = false
		waiters := inst.fetchWait
		inst.fetchWait = nil
		switch {
		case !srv.place(inst):
			if demand { // evictable again while parked; a prewarm lapses
				srv.park(inst, p, fresh)
			}
		case demand:
			srv.startCold(inst, p)
		default:
			srv.startCold(inst)
		}
		for _, w := range waiters {
			srv.resume(inst, w, true)
		}
	})
}
