// Counterfactual search (§5.4): use m3 to explore how HPCC's initial
// congestion window and eta affect tail latency for different flow classes —
// without rerunning the packet-level simulator for every configuration.
//
// Run with:
//
//	go run ./examples/counterfactual [-checkpoint m3-all.ckpt]
//
// The model must cover all four protocols; if no checkpoint is given, a
// fresh one is trained (slower).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	m3 "m3"
)

func main() {
	checkpoint := flag.String("checkpoint", "", "path to an all-protocol model checkpoint")
	flag.Parse()
	log.SetFlags(0)

	var net m3.Predictor
	if *checkpoint != "" {
		if n, err := m3.LoadPredictor(*checkpoint); err == nil {
			net = n
			log.Printf("loaded model from %s", *checkpoint)
		}
	}
	if net == nil {
		log.Printf("training an all-protocol model (several minutes)...")
		dc := m3.DefaultDataConfig()
		dc.Scenarios = 300
		opt := m3.DefaultTrainOptions()
		opt.Epochs = 40
		n, err := m3.TrainModel(context.Background(), m3.DefaultModelConfig(), dc, opt)
		if err != nil {
			log.Fatal(err)
		}
		net = n
		if *checkpoint != "" {
			if err := m3.SavePredictor(net, *checkpoint); err != nil {
				log.Fatal(err)
			}
		}
	}

	// The paper's §5.4 setup: 32-rack topology, WebServer workload, traffic
	// matrix C, 50% max load, PFC on, 400KB buffers.
	ft, err := m3.SmallFatTree(m3.Oversub2to1)
	if err != nil {
		log.Fatal(err)
	}
	matrix, err := m3.Matrix("C", 32, 11)
	if err != nil {
		log.Fatal(err)
	}
	flows, err := m3.GenerateWorkload(ft, m3.WorkloadSpec{
		NumFlows: 20000, Sizes: m3.WebServer, Matrix: matrix,
		Burstiness: 1.5, MaxLoad: 0.5, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	names := []string{"(0,1KB]", "(1KB,10KB]", "(10KB,50KB]", "(50KB,inf)"}
	est := m3.NewEstimator(net)

	fmt.Println("sweep 1: HPCC initial congestion window (eta = 0.90)")
	fmt.Printf("%-10s", "initWnd")
	for _, n := range names {
		fmt.Printf(" %12s", n)
	}
	fmt.Println()
	start := time.Now()
	for _, iw := range []m3.ByteSize{5 * m3.KB, 10 * m3.KB, 15 * m3.KB, 20 * m3.KB, 25 * m3.KB, 30 * m3.KB} {
		cfg := m3.DefaultNetConfig()
		cfg.CC = m3.HPCC
		cfg.HPCCEta = 0.90
		cfg.InitWindow = iw
		cfg.Buffer = 400 * m3.KB
		res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10v", iw)
		for _, v := range res.P99PerBucket() {
			fmt.Printf(" %12.2f", v)
		}
		fmt.Println()
	}
	fmt.Printf("6-point window sweep finished in %v\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Println("sweep 2: HPCC eta (initWnd = 20KB)")
	fmt.Printf("%-10s", "eta")
	for _, n := range names {
		fmt.Printf(" %12s", n)
	}
	fmt.Println()
	start = time.Now()
	for _, eta := range []float64{0.70, 0.75, 0.80, 0.85, 0.90, 0.95} {
		cfg := m3.DefaultNetConfig()
		cfg.CC = m3.HPCC
		cfg.HPCCEta = eta
		cfg.InitWindow = 20 * m3.KB
		cfg.Buffer = 400 * m3.KB
		res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10.2f", eta)
		for _, v := range res.P99PerBucket() {
			fmt.Printf(" %12.2f", v)
		}
		fmt.Println()
	}
	fmt.Printf("6-point eta sweep finished in %v\n", time.Since(start).Round(time.Millisecond))
}
