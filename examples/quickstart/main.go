// Quickstart: train a small m3 model on synthetic path scenarios, estimate
// the tail latency of a production-style workload on the 32-rack fat-tree,
// and compare against the packet-level ground truth.
//
// Run with:
//
//	go run ./examples/quickstart [-checkpoint m3.ckpt]
//
// With -checkpoint, the trained model is cached and reused across runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	m3 "m3"
)

func main() {
	checkpoint := flag.String("checkpoint", "", "optional path to cache the trained model")
	flag.Parse()
	log.SetFlags(0)

	// 1. Get a model: load the cached checkpoint or train a small one.
	var net m3.Predictor
	if *checkpoint != "" {
		if n, err := m3.LoadPredictor(*checkpoint); err == nil {
			log.Printf("loaded model from %s", *checkpoint)
			net = n
		}
	}
	if net == nil {
		log.Printf("training a small m3 model (this takes a minute or two)...")
		dc := m3.DefaultDataConfig()
		dc.Scenarios = 150
		dc.CCs = []m3.CCType{m3.DCTCP}
		opt := m3.DefaultTrainOptions()
		opt.Epochs = 30
		start := time.Now()
		n, err := m3.TrainModel(context.Background(), m3.DefaultModelConfig(), dc, opt)
		if err != nil {
			log.Fatal(err)
		}
		net = n
		log.Printf("trained %d-parameter model in %v", n.NumParams(), time.Since(start).Round(time.Second))
		if *checkpoint != "" {
			if err := m3.SavePredictor(net, *checkpoint); err != nil {
				log.Fatal(err)
			}
			log.Printf("saved checkpoint to %s", *checkpoint)
		}
	}

	// 2. Build the evaluation topology and a calibrated workload.
	ft, err := m3.SmallFatTree(m3.Oversub2to1)
	if err != nil {
		log.Fatal(err)
	}
	matrix, err := m3.Matrix("B", 32, 7)
	if err != nil {
		log.Fatal(err)
	}
	flows, err := m3.GenerateWorkload(ft, m3.WorkloadSpec{
		NumFlows:   20000,
		Sizes:      m3.WebServer,
		Matrix:     matrix,
		Burstiness: 2,   // high burstiness (lognormal sigma = 2)
		MaxLoad:    0.5, // most loaded link at 50%
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d flows on %d hosts\n", len(flows), len(ft.Hosts()))

	// 3. Estimate tail latency with m3.
	cfg := m3.DefaultNetConfig() // DCTCP, PFC on, Table 4 midpoint
	est := m3.NewEstimator(net)
	res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("m3 estimate: p99 slowdown %.2f (%d paths simulated in %v)\n",
		res.P99(), res.DistinctPaths, res.Elapsed.Round(time.Millisecond))
	buckets := res.P99PerBucket()
	names := []string{"(0,1KB]", "(1KB,10KB]", "(10KB,50KB]", "(50KB,inf)"}
	for b, v := range buckets {
		fmt.Printf("  %-12s p99 slowdown %.2f\n", names[b], v)
	}

	// 4. Compare against the packet-level ground truth.
	fmt.Println("running packet-level ground truth for comparison...")
	gt, err := m3.GroundTruth(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground truth: p99 slowdown %.2f (in %v)\n",
		gt.P99(), gt.Elapsed.Round(time.Millisecond))
	fmt.Printf("m3 relative error: %+.1f%%, speedup %.1fx\n",
		100*(res.P99()-gt.P99())/gt.P99(),
		gt.Elapsed.Seconds()/res.Elapsed.Seconds())
	os.Exit(0)
}
