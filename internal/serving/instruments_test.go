package serving

import (
	"reflect"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/monitor"
	"deepplan/internal/topology"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

// emitMix emits one event of each shape emit handles: unlabelled, per-GPU
// and per-model monitor counters, a telemetry column, and trace arguments
// built by a closure.
func emitMix(srv *Server, inst *Instance, why string) {
	srv.emit(kEviction, 0, inst, nil)
	srv.emit(kGPUFailure, 1, nil, nil)
	srv.emit(kColdStart, 0, inst, func() map[string]any {
		return map[string]any{"instance": inst.ID, "partitions": 2}
	})
	srv.emit(kShed, trace.ServerPID, inst, func() map[string]any {
		return map[string]any{"instance": inst.ID, "attempt": 1, "why": why}
	})
	srv.count(kToken, 3)
}

// TestEmitAllocatesNothing pins the spine's cost contract: with every sink
// off, and with the monitor and telemetry on but the trace off (once the
// series window exists), an emission allocates nothing.
func TestEmitAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sinks-off", Config{}},
		{"monitor-telemetry", Config{Monitor: monitor.New(), Telemetry: true}},
	} {
		cfg := tc.cfg
		cfg.Topo, cfg.Cost, cfg.Policy = topology.P38xlarge(), costmodel.Default(), PolicyPTDHA
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		deployBERT(t, srv, 1)
		inst := srv.instances[0]
		why := "admission"
		emitMix(srv, inst, why) // the series window for t=0 now exists
		if got := testing.AllocsPerRun(100, func() { emitMix(srv, inst, why) }); got != 0 {
			t.Errorf("%s: emit allocates %v times per call mix, want 0", tc.name, got)
		}
		if got, want := srv.n[kShed], 102; got != want {
			t.Errorf("%s: %d sheds counted, want %d", tc.name, got, want)
		}
	}
}

// TestKindTable checks the spine's table against Counters: every row names
// a real Counters field, every field is filled by exactly one kind, and
// every monitor row carries help text and a known label.
func TestKindTable(t *testing.T) {
	filled := map[string]kind{}
	ct := reflect.TypeOf(Counters{})
	for k, row := range kinds {
		if _, ok := ct.FieldByName(row.report); row.report != "" && !ok {
			t.Errorf("kind %d reports into unknown Counters field %q", k, row.report)
		}
		if row.report != "" {
			if prev, dup := filled[row.report]; dup {
				t.Errorf("kinds %d and %d both report into %s", prev, k, row.report)
			}
			filled[row.report] = kind(k)
		}
		if (row.metric == "") != (row.help == "") {
			t.Errorf("kind %d: metric %q with help %q", k, row.metric, row.help)
		}
		if row.label != "" && (row.metric == "" || (row.label != "gpu" && row.label != "model")) {
			t.Errorf("kind %d: label %q on metric %q", k, row.label, row.metric)
		}
	}
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if _, ok := filled[name]; !ok {
			t.Errorf("Counters.%s is filled by no kind", name)
		}
	}
}

// TestCountersAdd checks Add sums every field.
func TestCountersAdd(t *testing.T) {
	var a, b Counters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i))
		bv.Field(i).SetInt(int64(100 * i))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got := av.Field(i).Int(); got != int64(101*i) {
			t.Errorf("Counters.%s = %d after Add, want %d", av.Type().Field(i).Name, got, 101*i)
		}
	}
}

// TestReportCountersMatchEmissions: a run's Report counters are exactly the
// spine's per-kind counts.
func TestReportCountersMatchEmissions(t *testing.T) {
	srv := newServer(t, PolicyPTDHA)
	deployBERT(t, srv, 160)
	srv.Warmup()
	rep, err := srv.Run(workload.Poisson(17, 200, 400, 160))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStarts == 0 || rep.Evictions == 0 {
		t.Fatalf("test premise broken: %d cold starts, %d evictions", rep.ColdStarts, rep.Evictions)
	}
	v := reflect.ValueOf(rep.Counters)
	for k, row := range kinds {
		if row.report != "" && v.FieldByName(row.report).Int() != int64(srv.n[k]) {
			t.Errorf("Counters.%s = %d, kind %d counted %d", row.report, v.FieldByName(row.report).Int(), k, srv.n[k])
		}
	}
	if rep.Requests != srv.n[kArrival] || srv.n[kCompletion]+rep.Shed != rep.Requests {
		t.Errorf("requests %d, arrivals %d, completions %d, shed %d",
			rep.Requests, srv.n[kArrival], srv.n[kCompletion], rep.Shed)
	}
}
