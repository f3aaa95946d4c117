// Sensitivity head-to-head (§5.2): one production-style scenario, three
// estimators — m3, Parsimon, and flowSim alone — scored against the
// packet-level ground truth, with per-bucket detail.
//
// Run with:
//
//	go run ./examples/sensitivity [-checkpoint m3.ckpt] [-load 0.6] [-matrix A]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	m3 "m3"
)

func main() {
	checkpoint := flag.String("checkpoint", "", "optional model checkpoint to load")
	load := flag.Float64("load", 0.6, "max link load")
	matrixName := flag.String("matrix", "A", "traffic matrix: A, B, C, or uniform")
	dist := flag.String("workload", "CacheFollower", "size distribution: WebServer, CacheFollower, Hadoop")
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

	sizes, err := metaDist(*dist)
	if err != nil {
		log.Fatal(err)
	}
	ft, err := m3.SmallFatTree(m3.Oversub2to1)
	if err != nil {
		log.Fatal(err)
	}
	matrix, err := m3.Matrix(*matrixName, 32, 21)
	if err != nil {
		log.Fatal(err)
	}
	flows, err := m3.GenerateWorkload(ft, m3.WorkloadSpec{
		NumFlows: 20000, Sizes: sizes, Matrix: matrix,
		Burstiness: 2, MaxLoad: *load, Seed: 22,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := m3.DefaultNetConfig()
	fmt.Printf("scenario: matrix %s, %s, %.0f%% load, %d flows, DCTCP\n",
		*matrixName, *dist, 100**load, len(flows))

	gt, err := m3.GroundTruth(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s p99 %.2f  (ground truth, %v)\n", "ns-3", gt.P99(),
		gt.Elapsed.Round(time.Millisecond))

	report := func(name string, p99 float64, elapsed time.Duration) {
		fmt.Printf("%-10s p99 %.2f  err %+6.1f%%  %v\n",
			name, p99, 100*(p99-gt.P99())/gt.P99(), elapsed.Round(time.Millisecond))
	}

	est := m3.NewEstimator(net)
	res, err := est.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		log.Fatal(err)
	}
	report("m3", res.P99(), res.Elapsed)

	fsEst := m3.NewEstimator(nil, m3.WithMethod(m3.MethodFlowSim))
	fsRes, err := fsEst.Estimate(context.Background(), ft.Topology, flows, cfg)
	if err != nil {
		log.Fatal(err)
	}
	report("flowSim", fsRes.P99(), fsRes.Elapsed)

	t0 := time.Now()
	ps, err := m3.Parsimon(context.Background(), ft.Topology, flows, cfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	report("parsimon", p99Of(ps.Slowdown), time.Since(t0))

	fmt.Println("\nper-bucket p99 slowdown:")
	names := []string{"(0,1KB]", "(1KB,10KB]", "(10KB,50KB]", "(50KB,inf)"}
	gb, mb, fb := gt.P99PerBucket(), res.P99PerBucket(), fsRes.P99PerBucket()
	for b := range names {
		fmt.Printf("  %-12s truth %6.2f | m3 %6.2f | flowSim %6.2f\n",
			names[b], gb[b], mb[b], fb[b])
	}
}

func metaDist(name string) (m3.SizeDist, error) {
	switch name {
	case "WebServer":
		return m3.WebServer, nil
	case "CacheFollower":
		return m3.CacheFollower, nil
	case "Hadoop":
		return m3.Hadoop, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func p99Of(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(0.99 * float64(len(sorted)-1))
	return sorted[idx]
}
