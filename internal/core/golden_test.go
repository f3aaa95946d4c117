package core

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/pathsim"
	"m3/internal/rng"
	"m3/internal/sampling"
	"m3/internal/unit"
)

// Frozen golden hashes of the per-path pipeline on the benchmark-sized
// workload: 8000 WebServer flows, matrix B, on the 256-host 2:1 fat tree,
// with 200 fixed-seed sampled paths. Each digest is FNV-1a over the
// float64 bits of one stage's outputs, so any numeric drift in scenario
// construction, flowSim, featurization or aggregation changes a hash.
// Regenerate only for a deliberate output change, by running
//
//	M3_GOLDEN_DUMP=1 go test ./internal/core -run TestPathPipelineGolden -v
//
// and pasting the logged values.
const (
	goldenFlowSim   uint64 = 0x33d6c56b6aba345c
	goldenInputs    uint64 = 0x319ea885eac60cf8
	goldenEstML     uint64 = 0x13061ee8d1e20fd3
	goldenEstFS     uint64 = 0x73bffaf2e4960e49
	goldenEstNS3Mic uint64 = 0x2b2ae2dc9f545deb
)

const (
	goldenFlows = 8000
	goldenPaths = 200
	goldenSeed  = 17
)

type goldenHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newGoldenHasher() *goldenHasher { return &goldenHasher{h: fnv.New64a()} }

func (g *goldenHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], v)
	g.h.Write(g.buf[:])
}

func (g *goldenHasher) floats(vs []float64) {
	g.u64(uint64(len(vs)))
	for _, v := range vs {
		g.u64(math.Float64bits(v))
	}
}

func (g *goldenHasher) sizes(vs []unit.ByteSize) {
	g.u64(uint64(len(vs)))
	for _, v := range vs {
		g.u64(math.Float64bits(float64(v)))
	}
}

func (g *goldenHasher) p99s(e *Estimate) {
	p := e.P99PerBucket()
	g.floats(p[:])
}

// goldenNet trains a small model by a fixed recipe, long enough that its
// p99s rise above the clamp at 1 and so depend on the featurized inputs.
func goldenNet(t *testing.T) *model.Net {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Dim, cfg.Heads, cfg.Layers, cfg.Hidden = 16, 2, 1, 32
	net, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := model.Generate(context.Background(), model.DataConfig{
		Scenarios: 12, FgPerScenario: 80, BgPerLink: 0.4,
		Hops: []int{2, 4}, Seed: 11, Workers: 4,
		CCs: []packetsim.CCType{packetsim.DCTCP},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(samples, model.TrainOptions{
		Epochs: 40, Batch: 4, LR: 1e-2, ValFrac: 0.1, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPathPipelineGolden(t *testing.T) {
	ft, flows := testWorkload(t, goldenFlows, goldenSeed)
	d, err := pathsim.Decompose(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := sampling.Weighted(d.FgWeights(), goldenPaths, rng.New(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	distinct, _ := sampling.Dedup(sample)
	cfg := packetsim.DefaultConfig()

	fsH, inH := newGoldenHasher(), newGoldenHasher()
	for _, pi := range distinct {
		p := &d.Paths[pi]
		sc, err := d.Scenario(p)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := sc.RunFlowSim()
		if err != nil {
			t.Fatal(err)
		}
		sc.Release()
		fsH.floats(fs.Fg.Slowdown)
		for l := range fs.BgSldn {
			fsH.sizes(fs.BgSizes[l])
			fsH.floats(fs.BgSldn[l])
		}
		in := model.BuildInputs(fs.Fg.Sizes, fs.Fg.Slowdown, fs.BgSizes, fs.BgSldn, cfg,
			d.T.RouteRates(p.Links), d.T.RouteDelays(p.Links))
		inH.floats(in.FgFeat)
		for _, bg := range in.BgFeats {
			inH.floats(bg)
		}
		inH.floats(in.Spec)
	}

	ctx := context.Background()
	estimate := func(est *Estimator, wl *pathsim.Decomposition) *Estimate {
		t.Helper()
		res, err := est.Estimate(ctx, wl.T, wl.Flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mlH, fsEstH, ns3H := newGoldenHasher(), newGoldenHasher(), newGoldenHasher()
	ml := estimate(NewEstimator(goldenNet(t), WithNumPaths(goldenPaths), WithSeed(goldenSeed), WithWorkers(2)), d)
	mlH.p99s(ml)
	fsEstH.p99s(estimate(NewEstimator(nil, WithMethod(MethodFlowSim),
		WithNumPaths(goldenPaths), WithSeed(goldenSeed), WithWorkers(2)), d))

	// Packet-level path simulation is slow, so ns3-path runs at micro scale.
	mft, mflows := testWorkload(t, 400, goldenSeed)
	md, err := pathsim.Decompose(mft.Topology, mflows)
	if err != nil {
		t.Fatal(err)
	}
	ns3H.p99s(estimate(NewEstimator(nil, WithMethod(MethodNS3Path),
		WithNumPaths(12), WithSeed(goldenSeed), WithWorkers(2)), md))

	all1 := true
	for _, v := range ml.P99PerBucket() {
		if !math.IsNaN(v) && v != 1 {
			all1 = false
		}
	}
	if all1 {
		t.Fatal("every ml p99 is exactly 1: the golden model does not exercise the inputs")
	}

	got := map[string][2]uint64{
		"flowsim":   {fsH.h.Sum64(), goldenFlowSim},
		"inputs":    {inH.h.Sum64(), goldenInputs},
		"est-ml":    {mlH.h.Sum64(), goldenEstML},
		"est-fs":    {fsEstH.h.Sum64(), goldenEstFS},
		"est-ns3-m": {ns3H.h.Sum64(), goldenEstNS3Mic},
	}
	for name, gw := range got {
		if os.Getenv("M3_GOLDEN_DUMP") != "" {
			t.Logf("%s: %#x", name, gw[0])
			continue
		}
		if gw[0] != gw[1] {
			t.Errorf("%s golden hash = %#x, want %#x (M3_GOLDEN_DUMP=1 to regenerate)", name, gw[0], gw[1])
		}
	}
}
