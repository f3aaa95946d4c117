package serve

import (
	"net/http"
	"testing"

	"m3/internal/model"
)

// TestServeWallTimingsAndEstimatorMetrics covers the PR 9 observability
// surface end to end: an ML estimate reports per-stage wall-clock extents and
// an overlap ratio, and /metrics carries both the cumulative wall counters
// and the estimator's configured batch size and predict parallelism.
func TestServeWallTimingsAndEstimatorMetrics(t *testing.T) {
	s, err := New(Options{
		Net: tinyNet(t, 1), Workers: 4, CacheSize: 8,
		BatchSize: 4, PredictParallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	uploadSpecWorkload(t, s, "web", 800)

	var est estimateResponse
	rec := do(t, s, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: 30}, &est)
	mustCode(t, rec, http.StatusOK)
	if est.StagesMS["pathsim_wall"] <= 0 || est.StagesMS["predict_wall"] <= 0 {
		t.Errorf("wall stages = %v/%v ms, want both > 0",
			est.StagesMS["pathsim_wall"], est.StagesMS["predict_wall"])
	}
	for _, k := range []string{"scenario", "pathsim", "featurize", "predict"} {
		if est.StagesMS[k] <= 0 {
			t.Errorf("stages_ms[%q] = %v, want > 0 on a cold ML estimate", k, est.StagesMS[k])
		}
	}
	if ov := est.StagesMS["overlap"]; ov < 0 {
		t.Errorf("overlap = %v ms, want >= 0", ov)
	}
	if est.OverlapRatio < 0 || est.OverlapRatio > 1 {
		t.Errorf("overlap_ratio = %v, want [0,1]", est.OverlapRatio)
	}

	var m struct {
		StagesMS     map[string]float64 `json:"stages_ms"`
		OverlapRatio float64            `json:"overlap_ratio"`
		Estimator    struct {
			BatchSize          int `json:"batch_size"`
			PredictParallelism int `json:"predict_parallelism"`
		} `json:"estimator"`
	}
	rec = do(t, s, "GET", "/metrics", nil, &m)
	mustCode(t, rec, http.StatusOK)
	if m.Estimator.BatchSize != 4 || m.Estimator.PredictParallelism != 2 {
		t.Errorf("estimator = %+v, want batch_size 4 predict_parallelism 2", m.Estimator)
	}
	if m.StagesMS["pathsim_wall"] <= 0 || m.StagesMS["predict_wall"] <= 0 {
		t.Errorf("metrics wall stages = %v/%v ms, want both > 0",
			m.StagesMS["pathsim_wall"], m.StagesMS["predict_wall"])
	}
	if m.StagesMS["scenario"] <= 0 || m.StagesMS["featurize"] <= 0 {
		t.Errorf("metrics stages scenario=%v featurize=%v ms, want both > 0",
			m.StagesMS["scenario"], m.StagesMS["featurize"])
	}
	if m.OverlapRatio < 0 || m.OverlapRatio > 1 {
		t.Errorf("metrics overlap_ratio = %v, want [0,1]", m.OverlapRatio)
	}
}

// TestPredictParallelismSurvivesReload: the sharding knob is a server option,
// not a backend property — a model swap builds fresh backends, and each must
// come up with the knob re-applied (for every registered kind).
func TestPredictParallelismSurvivesReload(t *testing.T) {
	s, err := New(Options{Net: tinyNet(t, 1), Workers: 2, PredictParallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	check := func(when string) {
		t.Helper()
		set := s.backends.Load()
		for kind, sm := range set.byKind {
			ps, ok := sm.pred.(model.ParallelismSetter)
			if !ok {
				t.Fatalf("%s: backend %s lost the parallelism seam", when, kind)
			}
			if got := ps.PredictParallelism(); got != 3 {
				t.Errorf("%s: backend %s parallelism = %d, want 3", when, kind, got)
			}
		}
	}
	check("initial")
	s.SwapPredictor(tinyNet(t, 2))
	check("after swap")
}

// TestOptionsRejectNegativeKnobs: the serving layer validates the estimator
// knobs up front instead of letting a negative value reach the core.
func TestOptionsRejectNegativeKnobs(t *testing.T) {
	if _, err := New(Options{Net: tinyNet(t, 1), BatchSize: -1}); err == nil {
		t.Error("negative BatchSize accepted")
	}
	if _, err := New(Options{Net: tinyNet(t, 1), PredictParallelism: -2}); err == nil {
		t.Error("negative PredictParallelism accepted")
	}
}
