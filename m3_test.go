package m3

import (
	"context"
	"math"
	"path/filepath"
	"testing"
)

// trainTinyModel trains a minimal model for API-level integration tests.
func trainTinyModel(t *testing.T) *Model {
	t.Helper()
	mc := DefaultModelConfig()
	mc.Dim = 16
	mc.Heads = 2
	mc.Layers = 1
	mc.Hidden = 32
	dc := DefaultDataConfig()
	dc.Scenarios = 10
	dc.Workers = 8
	dc.CCs = []CCType{DCTCP}
	opt := DefaultTrainOptions()
	opt.Epochs = 3
	net, err := TrainModel(context.Background(), mc, dc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPublicAPIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	net := trainTinyModel(t)

	ft, err := SmallFatTree(Oversub2to1)
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := Matrix("B", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := GenerateWorkload(ft, WorkloadSpec{
		NumFlows: 3000, Sizes: WebServer, Matrix: matrix,
		Burstiness: 1.5, MaxLoad: 0.5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	est := NewEstimator(net, WithNumPaths(100))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, DefaultNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p99 := res.P99(); math.IsNaN(p99) || p99 < 1 {
		t.Errorf("p99 = %v", p99)
	}

	gt, err := GroundTruth(context.Background(), ft.Topology, flows, DefaultNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gt.P99() < 1 {
		t.Errorf("ground truth p99 = %v", gt.P99())
	}

	ps, err := Parsimon(context.Background(), ft.Topology, flows, DefaultNetConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Slowdown) != len(flows) {
		t.Errorf("parsimon returned %d slowdowns", len(ps.Slowdown))
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	net := trainTinyModel(t)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SavePredictor(net, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind() != net.Kind() {
		t.Errorf("round trip changed kind %q -> %q", net.Kind(), loaded.Kind())
	}
	if loaded.Fingerprint() != net.Fingerprint() {
		t.Errorf("round trip changed fingerprint %x -> %x", net.Fingerprint(), loaded.Fingerprint())
	}
}

func TestTopologyBuilders(t *testing.T) {
	small, err := SmallFatTree(Oversub1to1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(small.Hosts()); got != 256 {
		t.Errorf("small fat-tree has %d hosts", got)
	}
	large, err := LargeFatTree()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(large.Hosts()); got != 6144 {
		t.Errorf("large fat-tree has %d hosts", got)
	}
}

func TestMatrixNames(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "uniform"} {
		m, err := Matrix(name, 32, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Racks() != 32 {
			t.Errorf("%s: %d racks", name, m.Racks())
		}
	}
	if _, err := Matrix("bogus", 32, 5); err == nil {
		t.Error("unknown matrix accepted")
	}
}
