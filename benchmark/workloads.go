package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"deepplan/internal/cluster"
	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/hostmem"
	"deepplan/internal/monitor"
	"deepplan/internal/registry"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

// spec is one named benchmark workload: a fixed amount of work generated
// from the seed before any timing, a fresh-system set-up, and a serve phase
// that replays the work on that system.
type spec struct {
	name string
	// requests is the number of arrivals one rep replays.
	requests int
	// reps is the number of timed reps in an untraced run of -seconds 10,
	// sized so that they take about that long on a shared 2-vCPU VM. A
	// run's work never depends on the host's speed; see repCount.
	reps int
	// setups is how many fresh set-ups one timed set-up batch holds, sized so
	// that a batch takes about 0.2 s.
	setups int
	// inputs generates the arrival list from the seed.
	inputs func(seed int64, n int) (*inputs, error)
	// server builds, deploys and warms a single-node server on clock (a
	// private clock when nil); nil for the cluster workload.
	server func(tr *tracer, clock *sim.Simulator) (*serving.Server, error)
	// setup builds a fresh system ready to serve.
	setup func(tr *tracer) (system, error)
}

// inputs is the work of one rep: single-node arrivals or cluster arrivals.
type inputs struct {
	reqs  []workload.Request
	creqs []cluster.Request
}

// system is a freshly set-up serving system that serves one rep.
type system interface {
	serve(in *inputs, tr *tracer) (*outcome, error)
}

// outcome is what one rep's serve phase produced: the program's report and
// the numbers the benchmark derives from it.
type outcome struct {
	// report is the *serving.Report or *cluster.Report; reps compare it
	// whole, so any modelled difference between reps is caught.
	report any
	// attempted, completed and shed count requests.
	attempted, completed, shed int
	// modelled holds every modelled metric and report counter by name.
	modelled map[string]float64
}

// workloadOrder is the order "-workload all" runs and prints.
var workloadOrder = []string{"cold-start", "llm-decode", "zoo-churn", "fleet"}

// workloads returns the benchmark's workloads with each request count
// multiplied by scale (1 for the benchmark, smaller in tests).
func workloads(scale float64) map[string]*spec {
	n := func(full int) int { return int(math.Max(1, math.Round(float64(full)*scale))) }
	ws := []*spec{{
		name:     "cold-start",
		requests: n(20000),
		reps:     5,
		setups:   300,
		inputs: func(seed int64, n int) (*inputs, error) {
			return &inputs{reqs: workload.PoissonZipf(seed, 150, n, 216, 1.0)}, nil
		},
		server: func(tr *tracer, clock *sim.Simulator) (*serving.Server, error) {
			return newServer(tr, serving.Config{Sim: clock, Policy: serving.PolicyPTDHA, SLO: 100 * sim.Millisecond},
				deployModels([]string{"bert-base", "roberta-base", "gpt2"}, []int{96, 96, 24}))
		},
	}, {
		name:     "llm-decode",
		requests: n(10000),
		reps:     7,
		setups:   500,
		inputs: func(seed int64, n int) (*inputs, error) {
			reqs := workload.PoissonZipf(seed, 30, n, 40, 0.9)
			return &inputs{reqs: workload.WithTokens(reqs, seed, 256, 64)}, nil
		},
		server: func(tr *tracer, clock *sim.Simulator) (*serving.Server, error) {
			return newServer(tr, serving.Config{
				Sim:    clock,
				Policy: serving.PolicyDHA,
				SLO:    sim.Second,
				LLM: serving.LLMConfig{
					Enabled: true, Batching: serving.LLMBatchContinuous, TokenBudget: 16, MaxOutput: 128,
				},
			}, deployModels([]string{"gpt2"}, []int{40}))
		},
	}, {
		name:     "zoo-churn",
		requests: n(8000),
		reps:     5,
		setups:   8,
		inputs: func(seed int64, n int) (*inputs, error) {
			z, err := registry.New(zooSpec)
			if err != nil {
				return nil, err
			}
			return &inputs{reqs: z.Requests(seed, 25, n)}, nil
		},
		server: func(tr *tracer, clock *sim.Simulator) (*serving.Server, error) {
			sp := tr.begin("registry.New")
			z, err := registry.New(zooSpec)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			return newServer(tr, serving.Config{
				Sim:                clock,
				Policy:             serving.PolicyDHA,
				SLO:                100 * sim.Millisecond,
				HostPolicy:         hostmem.PolicyLRU,
				HostMemory:         244e9,
				HostFetchBandwidth: 25e9,
				Pack:               serving.PackDense,
			}, func(srv *serving.Server) error { return srv.DeployZoo(z) })
		},
	}, {
		name:     "fleet",
		requests: n(78000),
		reps:     5,
		setups:   30,
		inputs: func(seed int64, n int) (*inputs, error) {
			reqs, err := mafRequests(seed, 800, n, 2400)
			if err != nil {
				return nil, err
			}
			m, err := dnn.ByName(fleetModel)
			if err != nil {
				return nil, err
			}
			creqs := make([]cluster.Request, len(reqs))
			for i, r := range reqs {
				creqs[i] = cluster.Request{At: r.At, Model: m.Name, Key: r.Instance}
			}
			return &inputs{creqs: creqs}, nil
		},
		setup: setupFleet,
	}}
	out := map[string]*spec{}
	for _, w := range ws {
		if w.server != nil {
			build := w.server
			w.setup = func(tr *tracer) (system, error) {
				clock := sim.New()
				srv, err := build(tr, clock)
				if err != nil {
					return nil, err
				}
				return &node{sim: clock, srv: srv}, nil
			}
		}
		out[w.name] = w
	}
	return out
}

// repCount is the number of timed reps in an untraced run of the given
// seconds: reps scaled from 10 s, and at least minReps.
func (w *spec) repCount(seconds int) int {
	return max(minReps, w.reps*seconds/10)
}

// zooSpec is the zoo-churn registry.
var zooSpec = registry.Spec{N: 10000, Skew: 0.9}

// fleetModel is the model every fleet node serves.
const fleetModel = "bert-base"

// mafRequests returns the first n arrivals of a MAF-like trace at rate over
// functions, so a rep's work is a fixed request count whatever the seed.
func mafRequests(seed int64, rate float64, n, functions int) ([]workload.Request, error) {
	dur := sim.Duration(float64(n) / rate * 1.25 * float64(sim.Second))
	for {
		tr, err := workload.MAFLike(workload.TraceSpec{
			Seed: seed, Duration: dur, TotalRate: rate, NumFunctions: functions,
		})
		if err != nil {
			return nil, err
		}
		if len(tr.Requests) >= n {
			return tr.Requests[:n], nil
		}
		dur *= 2
	}
}

// newServer builds a server on a p3.8xlarge with the default cost model,
// deploys onto it and warms it up, recording a span around each step.
func newServer(tr *tracer, cfg serving.Config, deploy func(*serving.Server) error) (*serving.Server, error) {
	cfg.Topo = topology.P38xlarge()
	cfg.Cost = costmodel.Default()
	sp := tr.begin("serving.New")
	srv, err := serving.New(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serving.Deploy")
	err = deploy(srv)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serving.Warmup")
	srv.Warmup()
	tr.end(sp)
	return srv, nil
}

// deployModels deploys counts[i] instances of each named model in order.
func deployModels(names []string, counts []int) func(*serving.Server) error {
	return func(srv *serving.Server) error {
		for i, name := range names {
			m, err := dnn.ByName(name)
			if err != nil {
				return err
			}
			if err := srv.Deploy(m, counts[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// node is a single-node system on a benchmark-owned clock: the benchmark
// schedules every arrival, steps the clock, and reads the event count.
type node struct {
	sim *sim.Simulator
	srv *serving.Server
}

// serve schedules each arrival on the benchmark's clock as an open-loop
// Submit at its due time, runs the simulator to quiescence, and finishes
// the server.
func (n *node) serve(in *inputs, tr *tracer) (*outcome, error) {
	var submitErr error
	for i := range in.reqs {
		req := in.reqs[i]
		n.sim.At(req.At, func() {
			sp := tr.begin("serving.Submit")
			err := n.srv.Submit(req)
			tr.end(sp)
			if err != nil && submitErr == nil {
				submitErr = err
			}
		})
	}
	sp := tr.begin("sim.Run")
	n.sim.Run()
	tr.end(sp)
	if submitErr != nil {
		return nil, submitErr
	}
	sp = tr.begin("serving.Finish")
	rep, err := n.srv.Finish()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := n.srv.CheckInvariants(); err != nil {
		return nil, err
	}
	return serverOutcome(rep, len(in.reqs), n.sim.EventsFired()), nil
}

// serverOutcome derives a single-node rep's outcome from its report.
func serverOutcome(rep *serving.Report, attempted int, events uint64) *outcome {
	out := &outcome{report: rep, attempted: attempted, completed: rep.Requests - rep.Shed, shed: rep.Shed}
	ttft := rep.P99 // a single-shot response's first token is the whole response
	if rep.TokensGenerated > 0 {
		ttft = rep.TTFTP99
	}
	out.modelled = modelled(out, rep.Mean, rep.P50, rep.P99, rep.ColdP99, ttft, rep.Goodput, map[string]float64{
		"cold_starts":       float64(rep.ColdStarts),
		"pt_fallbacks":      float64(rep.PTFallbacks),
		"evictions":         float64(rep.Evictions),
		"deferred":          float64(rep.Deferred),
		"relocations":       float64(rep.Relocations),
		"host_hits":         float64(rep.HostHits),
		"host_misses":       float64(rep.HostMisses),
		"host_evictions":    float64(rep.HostEvictions),
		"decode_iters":      float64(rep.DecodeIters),
		"mean_decode_batch": rep.MeanDecodeBatch,
		"kv_deferred":       float64(rep.KVDeferred),
		"tokens_generated":  float64(rep.TokensGenerated),
		"events":            float64(events),
	})
	return out
}

// fleet is the cluster system. The cluster owns its clock and router, so
// the benchmark's boundary is cluster.Run.
type fleet struct {
	c *cluster.Cluster
}

func setupFleet(tr *tracer) (system, error) {
	sp := tr.begin("cluster.New")
	c, err := cluster.New(cluster.Config{
		Nodes:  16,
		Policy: serving.PolicyPTDHA,
		Route:  cluster.RouteLeastOutstanding,
		SLO:    100 * sim.Millisecond,
		Autoscale: cluster.AutoscaleConfig{
			Enabled: true, Policy: cluster.AutoscalePredictive, Interval: sim.Second,
		},
		Telemetry: true,
		Monitor:   monitor.New(),
		Alerts:    &monitor.SLOConfig{},
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	m, err := dnn.ByName(fleetModel)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("cluster.Deploy")
	err = c.Deploy(m, 150)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("cluster.Warmup")
	c.Warmup()
	tr.end(sp)
	return &fleet{c: c}, nil
}

func (f *fleet) serve(in *inputs, tr *tracer) (*outcome, error) {
	sp := tr.begin("cluster.Run")
	rep, err := f.c.Run(in.creqs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := f.c.CheckInvariants(); err != nil {
		return nil, err
	}
	out := &outcome{report: rep, attempted: len(in.creqs), completed: rep.Requests - rep.Shed, shed: rep.Shed}
	out.modelled = modelled(out, rep.Mean, rep.P50, rep.P99, rep.ColdP99, rep.P99, rep.Goodput, map[string]float64{
		"cold_starts":    float64(rep.ColdStarts),
		"evictions":      float64(rep.Evictions),
		"deferred":       float64(rep.Deferred),
		"relocations":    float64(rep.Relocations),
		"host_hits":      float64(rep.HostHits),
		"host_misses":    float64(rep.HostMisses),
		"host_evictions": float64(rep.HostEvictions),
		"scale_events":   float64(rep.ScaleUps + rep.ScaleDowns),
		"sleeps":         float64(rep.Sleeps),
		"wakes":          float64(rep.Wakes),
		"prewarms":       float64(rep.Prewarms),
		"alerts":         float64(len(rep.Alerts)),
	})
	return out, nil
}

// modelled assembles the modelled metrics and report counters of one rep.
// goodput counts a shed request as a miss: it is the requests completed
// within the SLO over the requests attempted.
func modelled(out *outcome, mean, p50, p99, coldP99, ttftP99 sim.Duration, completedGoodput float64, counters map[string]float64) map[string]float64 {
	m := map[string]float64{
		"mean_ms":     ms(mean),
		"p50_ms":      ms(p50),
		"p99_ms":      ms(p99),
		"cold_p99_ms": ms(coldP99),
		"ttft_p99_ms": ms(ttftP99),
		"goodput":     math.Round(completedGoodput*float64(out.completed)) / float64(out.attempted),
		"shed":        float64(out.shed),
		"completed":   float64(out.completed),
	}
	for k, v := range counters {
		m[k] = v
	}
	return m
}

func ms(d sim.Duration) float64 { return float64(d) / 1e6 }

// diffOutcomes describes how two reps of the same inputs differ, or returns
// "" when every modelled number and report field is identical.
func diffOutcomes(a, b *outcome) string {
	var diff []string
	for k, v := range a.modelled {
		if w, ok := b.modelled[k]; !ok || w != v {
			diff = append(diff, fmt.Sprintf("%s %v vs %v", k, v, w))
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return fmt.Sprintf("modelled metrics differ: %v", diff)
	}
	if !reflect.DeepEqual(a.report, b.report) {
		return "reports differ"
	}
	return ""
}
