package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"m3/internal/faultinject"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/pool"
)

// failingPredictor wraps a real backend and starts returning errors after
// failAfter successful PredictBatch calls (0 = fail immediately). It stands
// in for a model that breaks mid-estimate, which the faultinject hooks can't
// express (they fire only after a successful predict).
type failingPredictor struct {
	inner     model.Predictor
	failAfter int32
	calls     atomic.Int32
}

func (f *failingPredictor) PredictBatch(ctx context.Context, samples []*model.Sample) ([][]float64, error) {
	if f.calls.Add(1) > f.failAfter {
		return nil, errors.New("injected predict failure")
	}
	return f.inner.PredictBatch(ctx, samples)
}

func (f *failingPredictor) Fingerprint() uint64 { return f.inner.Fingerprint() }
func (f *failingPredictor) SelfCheck() error    { return f.inner.SelfCheck() }
func (f *failingPredictor) Kind() string        { return f.inner.Kind() }

// TestScheduleInvariantBitIdentical is the schedule-invariance property
// test (run with -count=2 under -race by scripts/check.sh): for both
// backends, across seeds and micro-batch sizes, RunShard on a 4-worker pool
// must reproduce, bit for bit, the per-path outputs of batch size 1 on a
// 1-worker pool — batch composition by completion order is invisible because
// PredictBatch output per sample is independent of its batchmates.
func TestScheduleInvariantBitIdentical(t *testing.T) {
	net := tinyTrainedNet(t)
	q, err := model.Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	ft, flows := testWorkload(t, 900, 31)
	cfg := packetsim.DefaultConfig()
	serial, wide := NewPool(1), NewPool(4)
	defer serial.Close()
	defer wide.Close()
	for _, backend := range []model.Predictor{net, model.Predictor(q)} {
		for seed := uint64(1); seed <= 2; seed++ {
			run := func(bs int, p *Pool) *ShardResult {
				est := NewEstimator(backend, WithNumPaths(50), WithSeed(seed),
					WithBatchSize(bs), WithPool(p))
				plan, err := est.Plan(ft.Topology, flows)
				if err != nil {
					t.Fatal(err)
				}
				sr, err := est.RunShard(context.Background(), plan.D, plan.Distinct, plan.Mult, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sr
			}
			want := run(1, serial)
			for _, bs := range []int{1, 5, DefaultBatchSize} {
				name := fmt.Sprintf("%s/bs=%d/seed=%d", backend.Kind(), bs, seed)
				got := run(bs, wide)
				if len(want.Outs) != len(got.Outs) {
					t.Fatalf("%s: %d vs %d outputs", name, len(want.Outs), len(got.Outs))
				}
				for i := range want.Outs {
					w, g := want.Outs[i], got.Outs[i]
					if w.Mult != g.Mult || fmt.Sprint(w.Counts) != fmt.Sprint(g.Counts) {
						t.Fatalf("%s: path %d skeleton differs", name, i)
					}
					for b := range w.Buckets {
						if len(w.Buckets[b]) != len(g.Buckets[b]) {
							t.Fatalf("%s: path %d bucket %d length differs", name, i, b)
						}
						for j := range w.Buckets[b] {
							if math.Float64bits(w.Buckets[b][j]) != math.Float64bits(g.Buckets[b][j]) {
								t.Fatalf("%s: path %d bucket %d[%d]: 4 workers %v != serial bs=1 %v",
									name, i, b, j, g.Buckets[b][j], w.Buckets[b][j])
							}
						}
					}
				}
			}
		}
	}
}

// TestStreamedPredictErrorDegradesToFallback: a predictor that dies
// mid-stream must degrade the failed batches to the flowSim numbers (the
// whole run, here, since every call fails) and still produce the exact
// no-ML estimate, under the streaming pipeline.
func TestStreamedPredictErrorDegradesToFallback(t *testing.T) {
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 1200, 1)
	cfg := packetsim.DefaultConfig()
	fp := &failingPredictor{inner: net, failAfter: 0}
	est := NewEstimator(fp, WithNumPaths(40), WithSeed(3), WithBatchSize(8),
		WithFlowSimFallback(true))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedPaths != res.DistinctPaths {
		t.Errorf("Degraded=%v DegradedPaths=%d/%d, want whole run degraded",
			res.Degraded, res.DegradedPaths, res.DistinctPaths)
	}
	fs := NewEstimator(nil, WithNumPaths(40), WithSeed(3), WithMethod(MethodFlowSim))
	want, err := fs.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.P99() != want.P99() {
		t.Errorf("degraded p99 %v != flowSim p99 %v", res.P99(), want.P99())
	}
}

// TestStreamedPredictErrorCancelsFeaturize: with fallback off, the first
// predict failure must cancel the in-flight featurize stage — the error
// comes back promptly with most of the sampled paths never simulated.
func TestStreamedPredictErrorCancelsFeaturize(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 1200, 1)
	cfg := packetsim.DefaultConfig()

	var featurized atomic.Int32
	faultinject.Set("core.path", func(any) { featurized.Add(1) })

	fp := &failingPredictor{inner: net, failAfter: 0}
	est := NewEstimator(fp, WithNumPaths(200), WithSeed(3), WithBatchSize(2))
	plan, err := est.Plan(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	_, err = est.RunShard(context.Background(), plan.D, plan.Distinct, plan.Mult, cfg)
	if err == nil || !strings.Contains(err.Error(), "injected predict failure") {
		t.Fatalf("RunShard = %v, want injected predict failure", err)
	}
	if n := int(featurized.Load()); n >= len(plan.Distinct) {
		t.Errorf("featurized %d of %d paths; predict failure did not cancel the featurize stage",
			n, len(plan.Distinct))
	}
}

// TestStreamedPredictPanicFailsRun: a panic in a streamed predict task is a
// bug, not a degradation — even with fallback enabled it must surface as a
// typed *pool.PanicError and leave the estimator reusable.
func TestStreamedPredictPanicFailsRun(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 1200, 1)
	cfg := packetsim.DefaultConfig()

	fired := atomic.Bool{}
	faultinject.Set("core.predict", func(any) {
		if fired.CompareAndSwap(false, true) {
			panic("injected predict panic")
		}
	})
	est := NewEstimator(net, WithNumPaths(40), WithSeed(3), WithBatchSize(4),
		WithFlowSimFallback(true))
	_, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T (%v), want *pool.PanicError", err, err)
	}
	if pe.Value != "injected predict panic" {
		t.Errorf("panic value = %v", pe.Value)
	}

	faultinject.Clear()
	res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatalf("estimator unusable after recovered predict panic: %v", err)
	}
	if res.Degraded {
		t.Error("healthy rerun reported degraded")
	}
}

// TestStreamedWallTimings: a successful cold ML estimate must report
// non-zero CPU time for every per-path stage, wall-clock extents for both
// ML stages, an overlap no larger than the shorter stage's wall, and an
// OverlapRatio in [0, 1].
func TestStreamedWallTimings(t *testing.T) {
	net := tinyTrainedNet(t)
	ft, flows := testWorkload(t, 900, 7)
	cfg := packetsim.DefaultConfig()
	est := NewEstimator(net, WithNumPaths(40), WithSeed(2), WithBatchSize(4))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stages
	if st.ScenarioBuild <= 0 || st.PathSim <= 0 || st.Featurize <= 0 || st.Predict <= 0 {
		t.Errorf("stages scenario=%v pathsim=%v featurize=%v predict=%v, want all > 0",
			st.ScenarioBuild, st.PathSim, st.Featurize, st.Predict)
	}
	if st.PathSimWall <= 0 || st.PredictWall <= 0 {
		t.Errorf("walls PathSim=%v Predict=%v, want both > 0", st.PathSimWall, st.PredictWall)
	}
	if st.Overlap < 0 || st.Overlap > min(st.PathSimWall, st.PredictWall) {
		t.Errorf("overlap %v out of range (walls %v/%v)", st.Overlap, st.PathSimWall, st.PredictWall)
	}
	if r := res.OverlapRatio(); r < 0 || r > 1 {
		t.Errorf("OverlapRatio = %v, want [0,1]", r)
	}
}

// tailShard is 40 distinct sampled paths of a test workload: at batch size
// tailBS that is two full micro-batches plus a partial tail of 8, the only
// PredictBatch call smaller than tailBS.
const tailBS = 16

func tailShard(t *testing.T) (*Plan, []int, []int) {
	t.Helper()
	ft, flows := testWorkload(t, 1200, 1)
	plan, err := NewEstimator(nil, WithNumPaths(200), WithSeed(3)).Plan(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Distinct) < 40 {
		t.Fatalf("plan has %d distinct paths, want >= 40", len(plan.Distinct))
	}
	return plan, plan.Distinct[:40], plan.Mult[:40]
}

// tailFailingPredictor fails the tail call: every PredictBatch smaller than
// tailBS.
type tailFailingPredictor struct {
	model.Predictor
	calls atomic.Int32
}

func (p *tailFailingPredictor) PredictBatch(ctx context.Context, samples []*model.Sample) ([][]float64, error) {
	p.calls.Add(1)
	if len(samples) < tailBS {
		return nil, errors.New("injected tail failure")
	}
	return p.Predictor.PredictBatch(ctx, samples)
}

// TestTailBatchPanicFailsRun: a panic on the final, partial PredictBatch
// surfaces as *pool.PanicError even with fallback on, and the estimator
// stays reusable.
func TestTailBatchPanicFailsRun(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	net := tinyTrainedNet(t)
	plan, distinct, mult := tailShard(t)
	cfg := packetsim.DefaultConfig()

	faultinject.Set("core.predict", func(v any) {
		if len(v.([][]float64)) < tailBS {
			panic("injected tail panic")
		}
	})
	est := NewEstimator(net, WithBatchSize(tailBS), WithFlowSimFallback(true))
	_, err := est.RunShard(context.Background(), plan.D, distinct, mult, cfg)
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T (%v), want *pool.PanicError", err, err)
	}
	if pe.Value != "injected tail panic" {
		t.Errorf("panic value = %v", pe.Value)
	}

	faultinject.Clear()
	sr, err := est.RunShard(context.Background(), plan.D, distinct, mult, cfg)
	if err != nil {
		t.Fatalf("estimator unusable after recovered tail panic: %v", err)
	}
	if sr.DegradedPaths != 0 {
		t.Errorf("healthy rerun degraded %d paths", sr.DegradedPaths)
	}
}

// TestTailBatchError: a predictor that fails only the tail call degrades
// exactly the tail's paths with fallback on, and fails the shard with that
// call's error with fallback off.
func TestTailBatchError(t *testing.T) {
	net := tinyTrainedNet(t)
	plan, distinct, mult := tailShard(t)
	for _, fallback := range []bool{true, false} {
		fp := &tailFailingPredictor{Predictor: net}
		est := NewEstimator(fp, WithBatchSize(tailBS), WithFlowSimFallback(fallback))
		sr, err := est.RunShard(context.Background(), plan.D, distinct, mult, packetsim.DefaultConfig())
		if !fallback {
			if err == nil || !strings.Contains(err.Error(), "injected tail failure") {
				t.Errorf("RunShard = %v, want injected tail failure", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := fp.calls.Load(); n != 3 {
			t.Errorf("PredictBatch called %d times, want 3", n)
		}
		if want := len(distinct) - 2*tailBS; sr.DegradedPaths != want {
			t.Errorf("DegradedPaths = %d, want %d (the tail batch)", sr.DegradedPaths, want)
		}
	}
}
