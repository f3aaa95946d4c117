// Large-scale estimation (§5.3): run m3 on the 384-rack, 6144-host fat-tree
// and show that its runtime is governed by the number of sampled paths, not
// the network size, while the packet-level simulator's cost grows with the
// workload.
//
// Run with:
//
//	go run ./examples/largescale [-checkpoint m3.ckpt] [-flows 100000] [-truth]
//
// Pass -truth to also run the full packet-level simulation for comparison
// (slow at large flow counts — that is the point).
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
	checkpoint := flag.String("checkpoint", "", "optional model checkpoint to load")
	numFlows := flag.Int("flows", 100000, "workload size")
	withTruth := flag.Bool("truth", false, "also run the packet-level ground truth")
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
		log.Printf("training a model first (use -checkpoint to cache)...")
		dc := m3.DefaultDataConfig()
		dc.Scenarios = 150
		dc.CCs = []m3.CCType{m3.DCTCP}
		opt := m3.DefaultTrainOptions()
		opt.Epochs = 30
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

	ft, err := m3.LargeFatTree()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %d hosts, %d nodes, %d directed links\n",
		len(ft.Hosts()), ft.NumNodes(), ft.NumLinks())

	matrix, err := m3.Matrix("B", 384, 9)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	flows, err := m3.GenerateWorkload(ft, m3.WorkloadSpec{
		NumFlows: *numFlows, Sizes: m3.WebServer, Matrix: matrix,
		Burstiness: 2, MaxLoad: 0.5, Seed: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d flows in %v\n", len(flows), time.Since(t0).Round(time.Millisecond))

	cfg := m3.DefaultNetConfig()
	cfg.InitWindow = 10 * m3.KB // Table 5's harder setting

	est := m3.NewEstimator(net)
	res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("m3: p99 slowdown %.2f over %d populated paths (%d sampled) in %v\n",
		res.P99(), res.TotalPaths, res.DistinctPaths, res.Elapsed.Round(time.Millisecond))

	if *withTruth {
		fmt.Println("running packet-level ground truth (this is the slow part)...")
		gt, err := m3.GroundTruth(context.Background(), ft.Topology, flows, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ground truth: p99 slowdown %.2f in %v — m3 error %+.1f%%, speedup %.0fx\n",
			gt.P99(), gt.Elapsed.Round(time.Millisecond),
			100*(res.P99()-gt.P99())/gt.P99(),
			gt.Elapsed.Seconds()/res.Elapsed.Seconds())
	}
}
