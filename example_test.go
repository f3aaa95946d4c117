package m3_test

import (
	"context"
	"fmt"
	"log"

	m3 "m3"
)

// Example shows the end-to-end estimation flow: build a topology, generate
// a calibrated workload, load a trained model, and estimate the tail.
// (Not executed as a test: training/loading a model takes minutes.)
func Example() {
	ft, err := m3.SmallFatTree(m3.Oversub2to1)
	if err != nil {
		log.Fatal(err)
	}
	matrix, err := m3.Matrix("B", 32, 7)
	if err != nil {
		log.Fatal(err)
	}
	flows, err := m3.GenerateWorkload(ft, m3.WorkloadSpec{
		NumFlows: 20000, Sizes: m3.WebServer, Matrix: matrix,
		Burstiness: 2, MaxLoad: 0.5, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	net, err := m3.LoadPredictor("m3.ckpt") // train with cmd/m3train
	if err != nil {
		log.Fatal(err)
	}
	est := m3.NewEstimator(net, m3.WithNumPaths(500))
	res, err := est.Estimate(context.Background(), ft.Topology, flows, m3.DefaultNetConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("p99 slowdown:", res.P99())
}

// ExampleGroundTruth shows how to validate an estimate against the
// packet-level simulator (slow but exact within this repository's model).
func ExampleGroundTruth() {
	ft, _ := m3.SmallFatTree(m3.Oversub1to1)
	matrix, _ := m3.Matrix("A", 32, 1)
	flows, err := m3.GenerateWorkload(ft, m3.WorkloadSpec{
		NumFlows: 5000, Sizes: m3.CacheFollower, Matrix: matrix,
		Burstiness: 1.5, MaxLoad: 0.4, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := m3.DefaultNetConfig()
	cfg.CC = m3.HPCC
	cfg.HPCCEta = 0.85
	gt, err := m3.GroundTruth(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("true p99 slowdown:", gt.P99())
}

// ExampleTrainModel shows training a model from scratch on the synthetic
// Table 2 scenario space restricted to DCTCP.
func ExampleTrainModel() {
	mc := m3.DefaultModelConfig()
	dc := m3.DefaultDataConfig()
	dc.Scenarios = 600
	dc.CCs = []m3.CCType{m3.DCTCP}
	opt := m3.DefaultTrainOptions()
	opt.Epochs = 60
	net, err := m3.TrainModel(context.Background(), mc, dc, opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := m3.SavePredictor(net, "m3-dctcp.ckpt"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("parameters:", net.NumParams())
}
