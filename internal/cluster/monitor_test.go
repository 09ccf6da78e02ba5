package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/monitor"
	"deepplan/internal/sim"
	"deepplan/internal/workload"
)

// monitorFaultSpec mirrors the fig-faults schedule at test scale.
const monitorFaultSpec = "gpu=1@1s+1500ms; link=gpu0-lane*0.4@500ms+2s; straggler=copy/3@2s+1s"

// runMonitored builds a cluster from cfg (attaching a fresh registry, the
// SLO monitor, and an interval metrics export into a buffer), replays a
// Poisson workload, and returns the report, the interval exposition bytes,
// and the final exposition of the registry.
func runMonitored(t *testing.T, cfg Config, replicas, requests int, rate float64) (*Report, []byte, []byte) {
	t.Helper()
	reg := monitor.New()
	var exports bytes.Buffer
	cfg.Monitor = reg
	cfg.Alerts = &monitor.SLOConfig{}
	cfg.MetricsWriter = &exports
	cfg.MetricsInterval = sim.Second
	rep := runPlain(t, cfg, replicas, requests, rate)
	var final bytes.Buffer
	if err := reg.WriteOpenMetrics(&final); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	return rep, exports.Bytes(), final.Bytes()
}

// runPlain is runTraced without the trace recorder, over a BERT-Base
// Poisson workload: build, deploy, warm up, replay, check invariants,
// return the report.
func runPlain(t *testing.T, cfg Config, replicas, requests int, rate float64) *Report {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := dnn.ByName("bert-base")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if err := c.Deploy(m, replicas); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	c.Warmup()
	reqs := toCluster("BERT-Base", workload.Poisson(17, rate, requests, c.models["BERT-Base"].active))
	rep, err := c.Run(reqs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestMonitoringIsObservationFree pins the observation-freedom contract at
// the cluster level: attaching the full monitoring stack — registry, SLO
// burn-rate monitor, interval OpenMetrics export — must leave the run's
// report exactly as an unmonitored run produces it. Alerts is the one field
// monitoring adds; everything else must match field for field, including
// under a fault schedule (whose events interleave with monitor ticks).
func TestMonitoringIsObservationFree(t *testing.T) {
	sched, err := faults.Parse(monitorFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain-4", Config{Nodes: 4}},
		{"faulted-4", Config{Nodes: 4, Faults: sched}},
		{"autoscale-2", Config{
			Nodes:       2,
			WindowWidth: 10 * sim.Second,
			Autoscale:   AutoscaleConfig{Enabled: true, Interval: sim.Second},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runPlain(t, tc.cfg, 24, 400, 120)
			got, _, _ := runMonitored(t, tc.cfg, 24, 400, 120)
			if got.Alerts == nil {
				t.Fatal("monitored run returned a nil alert log (monitor not attached?)")
			}
			got.Alerts = nil
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("monitoring changed the report:\nplain:     %+v\nmonitored: %+v", want, got)
			}
		})
	}
}

// TestMetricsExportRerunIdentical is the exporter's determinism contract:
// the interval exposition stream, the final exposition and the report are
// byte-identical across reruns — under a fault schedule, which exercises
// the tick-skew ordering between pre-scheduled fault events and monitor
// ticks.
func TestMetricsExportRerunIdentical(t *testing.T) {
	sched, err := faults.Parse(monitorFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: 4, Faults: sched}
	rep, stream, final := runMonitored(t, cfg, 24, 400, 120)
	rerunRep, rerunStream, rerunFinal := runMonitored(t, cfg, 24, 400, 120)
	if len(stream) == 0 || len(final) == 0 {
		t.Fatal("no exposition bytes produced")
	}
	if !bytes.Equal(stream, rerunStream) {
		t.Fatalf("rerun interval exposition diverged (%d vs %d bytes)", len(stream), len(rerunStream))
	}
	if !bytes.Equal(final, rerunFinal) {
		t.Fatalf("rerun final exposition diverged (%d vs %d bytes)", len(final), len(rerunFinal))
	}
	if !reflect.DeepEqual(rep, rerunRep) {
		t.Fatal("monitored reports diverged across reruns")
	}
}
