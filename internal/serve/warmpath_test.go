package serve

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"

	"m3/internal/cluster"
	"m3/internal/model"
)

// countingPredictor counts Fingerprint calls on the predictor it wraps.
type countingPredictor struct {
	model.Predictor
	fingerprints atomic.Int64
}

func (c *countingPredictor) Fingerprint() uint64 {
	c.fingerprints.Add(1)
	return c.Predictor.Fingerprint()
}

// fleetOfOne is a server mounting the internal cluster routes (a one-member
// fleet: every key is owned locally, the prober is off) so shard calls can
// be driven through the handler directly.
func fleetOfOne(t *testing.T) *Server {
	t.Helper()
	s, err := New(Options{
		Net: tinyNet(t, 1), Workers: 2, CacheSize: 8,
		Advertise: "127.0.0.1:1", ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// shardCall posts one /internal/v1/paths shard over paths 0 and 1 of the
// "web" workload, pinned to fp, and returns its status and error body.
func shardCall(t *testing.T, s *Server, fp uint64) (int, cluster.ErrorBody) {
	t.Helper()
	wl, ok := s.workload("web")
	if !ok {
		t.Fatal("workload web not registered")
	}
	cfg, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, "POST", cluster.PathsEndpoint, cluster.PathsRequest{
		Workload: "web", Hash: uint64(wl.Hash), Method: "m3",
		ModelFP: fp, Backend: model.KindNet, Cfg: cfg,
		Indices: []int{0, 1}, Mults: []int{1, 1},
	}, nil)
	var body cluster.ErrorBody
	if rec.Code != http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("decode shard error: %v\nbody: %s", err, rec.Body.String())
		}
	}
	return rec.Code, body
}

// TestWarmPathNoFingerprint: the model fingerprint is computed once per
// backend set, never per request — cold and warm estimates, quantiles,
// what-if sweeps and shard calls all read the stored value.
func TestWarmPathNoFingerprint(t *testing.T) {
	s := fleetOfOne(t)
	cp := &countingPredictor{Predictor: tinyNet(t, 1)}
	s.SwapPredictor(cp)
	if got := cp.fingerprints.Load(); got != 1 {
		t.Fatalf("SwapPredictor fingerprinted %d times, want once", got)
	}
	uploadSpecWorkload(t, s, "web", 400)

	req := estimateRequest{Workload: "web", NumPaths: 20}
	var est estimateResponse
	mustCode(t, do(t, s, "POST", "/v1/estimate", req, &est), http.StatusOK)
	if est.Cached {
		t.Fatal("first estimate reported a cache hit")
	}
	for i := 0; i < 5; i++ {
		mustCode(t, do(t, s, "POST", "/v1/estimate", req, &est), http.StatusOK)
		var quant struct {
			Cached bool `json:"cached"`
		}
		mustCode(t, do(t, s, "GET", "/v1/quantiles?workload=web&paths=20&q=0.5,0.9,0.99", nil, &quant), http.StatusOK)
		if !est.Cached || !quant.Cached {
			t.Fatalf("warm hit %d missed the cache (estimate %v, quantiles %v)", i, est.Cached, quant.Cached)
		}
	}
	mustCode(t, do(t, s, "POST", "/v1/whatif", whatIfRequest{
		Workload: "web", NumPaths: 20,
		Sweeps: []whatIfSweep{{Knobs: map[string]string{"cc": "timely"}}},
	}, nil), http.StatusOK)
	if code, body := shardCall(t, s, s.modelFP.Load()); code != http.StatusOK {
		t.Fatalf("shard call = %d %+v, want 200", code, body)
	}
	if got := cp.fingerprints.Load(); got != 1 {
		t.Errorf("requests fingerprinted the model %d more times, want 0", got-1)
	}
}

// TestBackendSetFingerprints: every backend's stored fingerprint is its
// predictor's own, and the modelFP mirror is the default backend's.
func TestBackendSetFingerprints(t *testing.T) {
	s := testServer(t)
	check := func(when string) {
		t.Helper()
		set := s.backends.Load()
		for kind, sm := range set.byKind {
			if want := sm.pred.Fingerprint(); sm.fp != want {
				t.Errorf("%s: backend %s stored fingerprint %x, want %x", when, kind, sm.fp, want)
			}
		}
		if got, want := s.modelFP.Load(), set.byKind[set.def].fp; got != want {
			t.Errorf("%s: modelFP %x, want the default backend's %x", when, got, want)
		}
	}
	check("initial")
	s.SwapPredictor(tinyNet(t, 2))
	check("after swap")
}

// TestSwapNewCacheKey: a swap to different weights re-keys the cache (the
// old estimate is not served), and a shard pinned to the old fingerprint is
// refused with the retryable model_mismatch code.
func TestSwapNewCacheKey(t *testing.T) {
	s := fleetOfOne(t)
	uploadSpecWorkload(t, s, "web", 400)
	req := estimateRequest{Workload: "web", NumPaths: 20}
	var est estimateResponse
	mustCode(t, do(t, s, "POST", "/v1/estimate", req, &est), http.StatusOK)
	mustCode(t, do(t, s, "POST", "/v1/estimate", req, &est), http.StatusOK)
	if !est.Cached {
		t.Fatal("repeat estimate missed the cache")
	}

	oldFP := s.modelFP.Load()
	s.SwapPredictor(tinyNet(t, 2))
	if s.modelFP.Load() == oldFP {
		t.Fatal("fingerprint unchanged after swapping in different weights")
	}
	mustCode(t, do(t, s, "POST", "/v1/estimate", req, &est), http.StatusOK)
	if est.Cached {
		t.Error("pre-swap estimate served after the swap")
	}
	mustCode(t, do(t, s, "POST", "/v1/estimate", req, &est), http.StatusOK)
	if !est.Cached {
		t.Error("post-swap repeat estimate missed the cache")
	}

	code, body := shardCall(t, s, oldFP)
	if code != http.StatusConflict || body.Code != cluster.CodeModelMismatch {
		t.Errorf("stale pinned shard = %d %+v, want 409 %s", code, body, cluster.CodeModelMismatch)
	}
	if code, body := shardCall(t, s, s.modelFP.Load()); code != http.StatusOK {
		t.Errorf("current pinned shard = %d %+v, want 200", code, body)
	}
}
