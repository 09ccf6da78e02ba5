package experiments

import (
	"bytes"
	"testing"

	"deepplan/internal/cluster"
)

// TestFigForecastPredictiveWinsColdTail pins fig-forecast's headline
// claim: on the periodic spiky trace the predictive controller beats the
// reactive one on cold-start p99 while billing no more replica-seconds.
func TestFigForecastPredictiveWinsColdTail(t *testing.T) {
	p := defaultForecastParams(true)
	reqs, err := p.workload()
	if err != nil {
		t.Fatal(err)
	}
	reactive, err := runForecastPolicy(p, cluster.AutoscaleReactive, reqs)
	if err != nil {
		t.Fatal(err)
	}
	predictive, err := runForecastPolicy(p, cluster.AutoscalePredictive, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if predictive.Prewarms == 0 || predictive.Sleeps == 0 {
		t.Fatalf("predictive run did not actuate the lifecycle: %d prewarms, %d sleeps",
			predictive.Prewarms, predictive.Sleeps)
	}
	if reactive.Prewarms != 0 || reactive.Sleeps != 0 {
		t.Fatalf("reactive run actuated the predictive lifecycle: %d prewarms, %d sleeps",
			reactive.Prewarms, reactive.Sleeps)
	}
	if predictive.ColdP99 >= reactive.ColdP99 {
		t.Fatalf("predictive cold p99 %v not below reactive %v",
			predictive.ColdP99, reactive.ColdP99)
	}
	if rp, rr := replicaSeconds(predictive), replicaSeconds(reactive); rp > rr {
		t.Fatalf("predictive billed %v replica-seconds, more than reactive's %v", rp, rr)
	}
}

// TestFigForecastByteIdenticalAcrossWorkers: the experiment's stdout must
// not depend on whether its policies run serially or on a worker pool.
func TestFigForecastByteIdenticalAcrossWorkers(t *testing.T) {
	var serial, pooled bytes.Buffer
	if err := FigForecast(&serial, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if err := FigForecast(&pooled, Options{Quick: true, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 {
		t.Fatal("empty experiment output")
	}
	if !bytes.Equal(serial.Bytes(), pooled.Bytes()) {
		t.Fatalf("fig-forecast output differs between serial and workers=4:\n--- serial ---\n%s\n--- workers=4 ---\n%s",
			serial.String(), pooled.String())
	}
}
