// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced (Quick-derived) scale, plus component micro-benchmarks. Run a
// single experiment with e.g.
//
//	go test -bench=BenchmarkTable1 -benchtime=1x
//
// The experiment benchmarks print their tables to stdout on the first
// iteration so `go test -bench=.` doubles as a report generator. Use
// cmd/m3bench for full-scale runs.
package m3

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"m3/internal/core"
	"m3/internal/exp"
	"m3/internal/flowsim"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/parsimon"
	"m3/internal/pathsim"
	"m3/internal/rng"
	"m3/internal/routing"
	"m3/internal/sampling"
	"m3/internal/serve"
	"m3/internal/topo"
	"m3/internal/workload"
)

// benchScale is small enough to keep the full bench suite in minutes.
func benchScale() exp.Scale {
	s := exp.Quick()
	s.TestFlows = 2500
	s.LargeFlows = 6000
	s.Paths = 60
	s.Scenarios = 2
	return s
}

var (
	benchModelOnce sync.Once
	benchModel     *model.Net
	benchNoCtx     *model.Net
	benchModelErr  error
)

// benchNets trains (once per process) a small model pair on an
// all-protocol synthetic dataset shared by every experiment benchmark.
func benchNets(b *testing.B) (*model.Net, *model.Net) {
	b.Helper()
	benchModelOnce.Do(func() {
		cfg := model.DefaultConfig()
		cfg.Dim = 32
		cfg.Heads = 2
		cfg.Layers = 1
		cfg.Hidden = 64
		dc := model.DefaultDataConfig()
		dc.Scenarios = 40
		dc.Workers = 8
		samples, err := model.Generate(context.Background(), dc)
		if err != nil {
			benchModelErr = err
			return
		}
		opt := model.DefaultTrainOptions()
		opt.Epochs = 8
		full, err := model.New(cfg)
		if err != nil {
			benchModelErr = err
			return
		}
		if _, err := full.Train(samples, opt); err != nil {
			benchModelErr = err
			return
		}
		ncfg := cfg
		ncfg.UseContext = false
		noCtx, err := model.New(ncfg)
		if err != nil {
			benchModelErr = err
			return
		}
		if _, err := noCtx.Train(samples, opt); err != nil {
			benchModelErr = err
			return
		}
		benchModel, benchNoCtx = full, noCtx
	})
	if benchModelErr != nil {
		b.Fatal(benchModelErr)
	}
	return benchModel, benchNoCtx
}

func writerFor(i int) interface{ Write([]byte) (int, error) } {
	if i == 0 {
		return os.Stdout
	}
	return exp.Discard
}

func BenchmarkTable1(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunTable1(context.Background(), s, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig2(context.Background(), s, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig3(context.Background(), s, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig5(context.Background(), s, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	s := benchScale()
	net, _ := benchNets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig6(context.Background(), s, net, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	s := benchScale()
	net, _ := benchNets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunTable5(context.Background(), s, net, writerFor(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.RunFig12(rows, os.Stdout)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	s := benchScale()
	net, _ := benchNets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := exp.RunFig10(context.Background(), s, net, writerFor(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			exp.RunFig11(pts, os.Stdout) // Fig 11 reuses the same scenarios
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	s := benchScale()
	net, _ := benchNets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig13(context.Background(), s, net, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	s := benchScale()
	net, _ := benchNets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig14(context.Background(), s, net, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	s := benchScale()
	net, _ := benchNets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig15(context.Background(), s, net, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16(b *testing.B) {
	s := benchScale()
	net, noCtx := benchNets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig16(context.Background(), s, net, noCtx, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17(b *testing.B) {
	s := benchScale()
	s.Scenarios = 2 // 10 axis points x scenarios ground-truth runs
	net, _ := benchNets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig17(context.Background(), s, net, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.RunFig18(writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- component micro-benchmarks ---

func benchWorkload(b *testing.B, n int) (*topo.FatTree, []workload.Flow) {
	b.Helper()
	ft, err := topo.SmallFatTree(topo.Oversub2to1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	flows, err := workload.Generate(ft, routing.NewFatTreeRouter(ft), workload.Spec{
		NumFlows: n, Sizes: workload.WebServer, Matrix: workload.MatrixB(32, r),
		Burstiness: 2, MaxLoad: 0.5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ft, flows
}

func BenchmarkPacketSim10kFlows(b *testing.B) {
	ft, flows := benchWorkload(b, 10000)
	cfg := packetsim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packetsim.Run(ft.Topology, flows, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(flows))/b.Elapsed().Seconds()*float64(b.N), "flows/s")
}

func BenchmarkFlowSimPath(b *testing.B) {
	syn, err := workload.GenerateSynthetic(workload.SynthSpec{
		Hops: 4, NumFg: 2000, BgPerLink: 1,
		Sizes: workload.WebServer, Burstiness: 2, MaxLoad: 0.5, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flowsim.Run(syn.Lot.Topology, syn.Flows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(syn.Flows))/b.Elapsed().Seconds()*float64(b.N), "flows/s")
}

// BenchmarkScenarioBuild times the per-path scenario stage over 200
// fixed-seed sampled paths of the 8000-flow benchmark workload: "build"
// constructs every path's parking-lot scenario, "build+flowsim" also runs
// flowSim on it. flows/op counts the scenario flows built per iteration.
func BenchmarkScenarioBuild(b *testing.B) {
	ft, flows := benchWorkload(b, 8000)
	d, err := pathsim.Decompose(ft.Topology, flows)
	if err != nil {
		b.Fatal(err)
	}
	sample, err := sampling.Weighted(d.FgWeights(), 200, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	distinct, _ := sampling.Dedup(sample)
	for _, mode := range []struct {
		name    string
		flowSim bool
	}{{"build", false}, {"build+flowsim", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n = 0
				for _, pi := range distinct {
					sc, err := d.Scenario(&d.Paths[pi])
					if err != nil {
						b.Fatal(err)
					}
					n += len(sc.Flows)
					if mode.flowSim {
						if _, err := sc.RunFlowSim(); err != nil {
							b.Fatal(err)
						}
					}
					sc.Release()
				}
			}
			b.ReportMetric(float64(n), "flows/op")
		})
	}
}

func BenchmarkMaxMinAllocation(b *testing.B) {
	r := rng.New(3)
	caps := make([]float64, 64)
	for i := range caps {
		caps[i] = 1e10
	}
	routes := make([][]int32, 256)
	for i := range routes {
		hops := r.Intn(5) + 1
		start := r.Intn(len(caps) - hops)
		for h := 0; h < hops; h++ {
			routes[i] = append(routes[i], int32(start+h))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flowsim.MaxMinRates(caps, routes)
	}
}

func BenchmarkModelInference(b *testing.B) {
	net, _ := benchNets(b)
	r := rng.New(4)
	s := &model.Sample{
		FgFeat: make([]float64, net.Cfg.FeatDim),
		Spec:   make([]float64, net.Cfg.SpecDim),
	}
	for i := range s.FgFeat {
		s.FgFeat[i] = r.Float64()
	}
	for h := 0; h < 6; h++ {
		f := make([]float64, net.Cfg.FeatDim)
		for i := range f {
			f[i] = r.Float64()
		}
		s.BgFeats = append(s.BgFeats, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Predict(s); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatchSamples builds the shared 32-sample inference batch for the
// backend benchmarks.
func benchBatchSamples(net *model.Net) []*model.Sample {
	r := rng.New(4)
	const batch = 32
	samples := make([]*model.Sample, batch)
	for j := range samples {
		s := &model.Sample{
			FgFeat: make([]float64, net.Cfg.FeatDim),
			Spec:   make([]float64, net.Cfg.SpecDim),
		}
		for i := range s.FgFeat {
			s.FgFeat[i] = r.Float64()
		}
		for h := 0; h < 6; h++ {
			f := make([]float64, net.Cfg.FeatDim)
			for i := range f {
				f[i] = r.Float64()
			}
			s.BgFeats = append(s.BgFeats, f)
		}
		samples[j] = s
	}
	return samples
}

// BenchmarkModelInferenceBatch is the batched counterpart of
// BenchmarkModelInference: one PredictBatch call over 32 samples per
// iteration, reported per sample so the two are directly comparable.
func BenchmarkModelInferenceBatch(b *testing.B) {
	net, _ := benchNets(b)
	samples := benchBatchSamples(net)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.PredictBatch(ctx, samples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*len(samples))*1e9, "ns/sample")
}

// BenchmarkModelInferenceBatchInt8 runs the same 32-sample batch through the
// int8 weight-quantized backend — the float-vs-quantized latency ablation's
// inner loop, comparable line-for-line with BenchmarkModelInferenceBatch.
func BenchmarkModelInferenceBatchInt8(b *testing.B) {
	net, _ := benchNets(b)
	q, err := model.Quantize(net)
	if err != nil {
		b.Fatal(err)
	}
	samples := benchBatchSamples(net)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.PredictBatch(ctx, samples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*len(samples))*1e9, "ns/sample")
}

// BenchmarkModelInferenceBatchSharded times one 32-sample PredictBatch per
// iteration across backend x GEMM parallelism. par=1 is the serial baseline;
// par=4 shards each heavy layer's output rows across 4 goroutines with
// per-row accumulation order unchanged, so outputs are bit-identical and the
// delta is pure scheduling cost (a speedup needs multiple cores).
func BenchmarkModelInferenceBatchSharded(b *testing.B) {
	net, _ := benchNets(b)
	q, err := model.Quantize(net)
	if err != nil {
		b.Fatal(err)
	}
	samples := benchBatchSamples(net)
	ctx := context.Background()
	for _, backend := range []model.Predictor{net, q} {
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/par=%d", backend.Kind(), par), func(b *testing.B) {
				if !model.SetPredictParallelism(backend, par) {
					b.Fatalf("%s rejected the parallelism knob", backend.Kind())
				}
				defer model.SetPredictParallelism(backend, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := backend.PredictBatch(ctx, samples); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*len(samples))*1e9, "ns/sample")
			})
		}
	}
}

// BenchmarkEstimateEndToEnd times one cold ML estimate of 200 sampled paths
// on an 8000-flow workload through the featurize→predict schedule.
func BenchmarkEstimateEndToEnd(b *testing.B) {
	net, _ := benchNets(b)
	ft, flows := benchWorkload(b, 8000)
	est := core.NewEstimator(net, core.WithNumPaths(200))
	cfg := packetsim.DefaultConfig()
	ctx := context.Background()
	var predict, pathsim time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := est.Estimate(ctx, ft.Topology, flows, cfg)
		if err != nil {
			b.Fatal(err)
		}
		predict += res.Stages.Predict
		pathsim += res.Stages.PathSim
	}
	// Predict and PathSim are summed across workers (CPU time), attributing
	// the estimate's cost to the ML inference vs flowSim stages.
	b.ReportMetric(float64(predict.Nanoseconds())/float64(b.N), "predict-ns/op")
	b.ReportMetric(float64(pathsim.Nanoseconds())/float64(b.N), "pathsim-ns/op")
	b.ReportMetric(100*float64(predict)/float64(predict+pathsim), "predict-%")
}

func BenchmarkAblationPaths(b *testing.B) {
	s := benchScale()
	net, _ := benchNets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAblationPaths(context.Background(), s, net, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationKnockout(b *testing.B) {
	s := benchScale()
	net, _ := benchNets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAblationKnockout(context.Background(), s, net, writerFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeEstimate measures the serving layer's estimate latency
// through the full HTTP handler, cold (every iteration a fresh cache key)
// versus warm (every iteration the same key, served from the LRU), plus a
// warm /v1/quantiles query on that key.
func BenchmarkServeEstimate(b *testing.B) {
	net, _ := benchNets(b)
	srv, err := serve.New(serve.Options{Net: net, CacheSize: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	post := func(path string, body any) *httptest.ResponseRecorder {
		raw, err := json.Marshal(body)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
		return rec
	}
	rec := post("/v1/workloads", map[string]any{
		"name": "bench",
		"spec": map[string]any{"num_flows": 4000, "max_load": 0.5, "burstiness": 1.5, "seed": 9},
	})
	if rec.Code != 201 {
		b.Fatalf("workload upload: %d %s", rec.Code, rec.Body.String())
	}
	estimate := func(seed uint64) {
		rec := post("/v1/estimate", map[string]any{
			"workload": "bench", "num_paths": 100, "seed": seed,
		})
		if rec.Code != 200 {
			b.Fatalf("estimate: %d %s", rec.Code, rec.Body.String())
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			estimate(uint64(i) + 1e6) // unique key every iteration
		}
	})
	b.Run("warm", func(b *testing.B) {
		estimate(1) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			estimate(1)
		}
	})
	// A warm /v1/quantiles hit: the per-bucket and combined quantiles of a
	// cached estimate, the combined ones memoized after the first call.
	b.Run("quantiles", func(b *testing.B) {
		estimate(1) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET",
				"/v1/quantiles?workload=bench&paths=100&seed=1&q=0.5,0.9,0.99,0.999", nil))
			if rec.Code != 200 {
				b.Fatalf("quantiles: %d %s", rec.Code, rec.Body.String())
			}
		}
	})
}

// BenchmarkPacketsim is the ground-truth engine benchmark: one large
// parking-lot scenario (thousands of flows at packet granularity) per
// iteration. Allocations are reported because the engine is expected to run
// allocation-free in steady state (pooled per-run sim state).
func BenchmarkPacketsim(b *testing.B) {
	syn, err := workload.GenerateSynthetic(workload.SynthSpec{
		Hops: 4, NumFg: 300, BgPerLink: 4,
		Sizes: workload.WebServer, Burstiness: 1.5, MaxLoad: 0.45, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := packetsim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packetsim.Run(syn.Lot.Topology, syn.Flows, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(syn.Flows))/b.Elapsed().Seconds()*float64(b.N), "flows/s")
}

// BenchmarkParsimon measures the link-level baseline end to end: thousands
// of per-link packet simulations fanned out across the worker pool.
func BenchmarkParsimon(b *testing.B) {
	ft, flows := benchWorkload(b, 2500)
	cfg := packetsim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parsimon.Run(context.Background(), ft.Topology, flows, cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetGen measures synthetic training-set generation (flowSim
// features + packet-level ground-truth labels per scenario).
func BenchmarkDatasetGen(b *testing.B) {
	dc := model.DefaultDataConfig()
	dc.Scenarios = 16 // DefaultDataConfig workers (8) drive the fan-out
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Generate(context.Background(), dc); err != nil {
			b.Fatal(err)
		}
	}
}
