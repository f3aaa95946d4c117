package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"m3/internal/faultinject"
	"m3/internal/packetsim"
	"m3/internal/pool"
)

// TestFallbackOnNaNPredictions poisons the model's batched predictions with
// NaN through the fault hook; with fallback enabled the estimate must come
// back finite (flowSim numbers) and flagged degraded.
func TestFallbackOnNaNPredictions(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	ft, flows := testWorkload(t, 1200, 1)
	net := tinyTrainedNet(t)

	faultinject.Set("core.predict", func(detail any) {
		preds := detail.([][]float64)
		for _, p := range preds {
			p[0] = math.NaN()
		}
	})
	est := NewEstimator(net, WithNumPaths(40), WithSeed(3), WithFlowSimFallback(true))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedPaths != res.DistinctPaths {
		t.Errorf("Degraded=%v DegradedPaths=%d, want all %d paths degraded",
			res.Degraded, res.DegradedPaths, res.DistinctPaths)
	}
	p99 := res.P99()
	if math.IsNaN(p99) || math.IsInf(p99, 0) || p99 < 1 {
		t.Errorf("degraded p99 = %v, want finite slowdown >= 1", p99)
	}
}

// TestFallbackNilModel proves the no-model case degrades to a whole-run
// flowSim estimate instead of erroring when fallback is on.
func TestFallbackNilModel(t *testing.T) {
	ft, flows := testWorkload(t, 1200, 1)
	est := NewEstimator(nil, WithNumPaths(40), WithSeed(3), WithFlowSimFallback(true))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedPaths != res.DistinctPaths {
		t.Errorf("Degraded=%v DegradedPaths=%d/%d", res.Degraded, res.DegradedPaths, res.DistinctPaths)
	}
	if p99 := res.P99(); math.IsNaN(p99) || p99 < 1 {
		t.Errorf("p99 = %v", p99)
	}
	// Must match a plain flowSim run exactly: same seed, same sample.
	fs := NewEstimator(nil, WithNumPaths(40), WithSeed(3), WithMethod(MethodFlowSim))
	want, err := fs.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.P99() != want.P99() {
		t.Errorf("degraded p99 %v != flowSim p99 %v", res.P99(), want.P99())
	}
}

// TestPathPanicIsolated injects a panic into one sampled path's simulation:
// the estimate must fail with a typed PanicError — not crash the process —
// and the estimator must still work afterwards.
func TestPathPanicIsolated(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	ft, flows := testWorkload(t, 1200, 1)
	net := tinyTrainedNet(t)

	// The hook runs on pool workers concurrently; CompareAndSwap lets
	// exactly one of them panic.
	var fired atomic.Bool
	faultinject.Set("core.path", func(detail any) {
		if fired.CompareAndSwap(false, true) {
			panic("injected path-sim panic")
		}
	})
	est := NewEstimator(net, WithNumPaths(40), WithSeed(3), WithFlowSimFallback(true))
	_, err := est.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T (%v), want *pool.PanicError", err, err)
	}
	if pe.Value != "injected path-sim panic" {
		t.Errorf("panic value = %v", pe.Value)
	}

	faultinject.Clear()
	res, err := est.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
	if err != nil {
		t.Fatalf("estimator unusable after recovered panic: %v", err)
	}
	if res.Degraded {
		t.Error("healthy rerun reported degraded")
	}
}

// TestEstimateRejectsInvalidWorkload checks the boundary validation added to
// Estimate: corrupt flows surface as typed errors before any simulation.
func TestEstimateRejectsInvalidWorkload(t *testing.T) {
	ft, flows := testWorkload(t, 600, 1)
	flows[3].Route = nil
	est := NewEstimator(nil, WithNumPaths(20), WithMethod(MethodFlowSim))
	_, err := est.Estimate(context.Background(), ft.Topology, flows, packetsim.DefaultConfig())
	if err == nil {
		t.Fatal("workload with routeless flow accepted")
	}
}
