package exp

import (
	"context"
	"fmt"
	"io"

	"m3/internal/core"
	"m3/internal/feature"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/parsimon"
	"m3/internal/pathsim"
	"m3/internal/rng"
	"m3/internal/sampling"
	"m3/internal/stats"
)

// Fig15Result breaks down estimation error by source: the error of the
// ns-3-path decomposition alone, versus m3's total error (decomposition +
// flowSim/ML approximation), versus Parsimon's link-independence assumption —
// per size bucket and per path length, evaluated on the foreground flows of
// sampled paths against the full simulation.
type Fig15Result struct {
	// Err[method][bucket] collects per-path relative errors of mean bucket
	// slowdown. Methods: 0 ns-3-path, 1 m3, 2 Parsimon.
	ErrByBucket [3][feature.NumOutputBuckets][]float64
	ErrByHops   [3]map[int][]float64
}

// Fig15Methods names the indices of Fig15Result.
var Fig15Methods = [3]string{"ns3-path", "m3", "parsimon"}

// RunFig15 reproduces Fig. 15's error breakdown on the small fat-tree.
func RunFig15(ctx context.Context, s Scale, net *model.Net, w io.Writer) (*Fig15Result, error) {
	m := Table1Mixes(s.TestFlows)[2] // the high-load mix stresses all methods
	ft, flows, err := m.Build()
	if err != nil {
		return nil, err
	}
	cfg := packetsim.DefaultConfig()
	gt, err := core.RunGroundTruth(ctx, ft.Topology, flows, cfg)
	if err != nil {
		return nil, err
	}
	pr, err := parsimon.Run(ctx, ft.Topology, flows, cfg, s.Workers)
	if err != nil {
		return nil, err
	}
	d, err := pathsim.Decompose(ft.Topology, flows)
	if err != nil {
		return nil, err
	}
	sample, err := sampling.Weighted(d.FgWeights(), s.Paths, rng.New(m.Seed))
	if err != nil {
		return nil, err
	}
	distinct, _ := sampling.Dedup(sample)

	res := &Fig15Result{}
	for i := range res.ErrByHops {
		res.ErrByHops[i] = make(map[int][]float64)
	}
	for _, pi := range distinct {
		p := &d.Paths[pi]
		sc, err := d.Scenario(p)
		if err != nil {
			return nil, err
		}
		// ns-3-path per-flow slowdowns.
		np, err := sc.RunPacketContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		// m3 per-bucket predictions.
		fs, err := sc.RunFlowSimContext(ctx)
		sc.Release()
		if err != nil {
			return nil, err
		}
		in := model.BuildInputs(fs.Fg.Sizes, fs.Fg.Slowdown, fs.BgSizes, fs.BgSldn, cfg,
			d.T.RouteRates(p.Links), d.T.RouteDelays(p.Links))
		pred, err := net.Predict(in)
		if err != nil {
			return nil, err
		}

		// Group this path's fg flows by bucket, compare mean slowdowns.
		var perBucket [feature.NumOutputBuckets][][2]float64 // (truth, parsimon)
		var npBucket [feature.NumOutputBuckets][]float64
		for j, id := range np.Orig {
			b := feature.BucketOf(np.Sizes[j], feature.OutputBucketBounds)
			perBucket[b] = append(perBucket[b],
				[2]float64{gt.Result.Slowdown[id], pr.Slowdown[id]})
			npBucket[b] = append(npBucket[b], np.Slowdown[j])
		}
		var pathTruth, pathNP, pathM3, pathPS []float64
		for b := 0; b < feature.NumOutputBuckets; b++ {
			if len(perBucket[b]) == 0 {
				continue
			}
			var truth, ps float64
			for _, pair := range perBucket[b] {
				truth += pair[0]
				ps += pair[1]
			}
			truth /= float64(len(perBucket[b]))
			ps /= float64(len(perBucket[b]))
			npMean := stats.Mean(npBucket[b])
			m3Mean := stats.Mean(pred[b*100 : (b+1)*100])
			res.ErrByBucket[0][b] = append(res.ErrByBucket[0][b], stats.RelError(npMean, truth))
			res.ErrByBucket[1][b] = append(res.ErrByBucket[1][b], stats.RelError(m3Mean, truth))
			res.ErrByBucket[2][b] = append(res.ErrByBucket[2][b], stats.RelError(ps, truth))
			pathTruth = append(pathTruth, truth)
			pathNP = append(pathNP, npMean)
			pathM3 = append(pathM3, m3Mean)
			pathPS = append(pathPS, ps)
		}
		if len(pathTruth) > 0 {
			h := p.Hops()
			res.ErrByHops[0][h] = append(res.ErrByHops[0][h],
				stats.RelError(stats.Mean(pathNP), stats.Mean(pathTruth)))
			res.ErrByHops[1][h] = append(res.ErrByHops[1][h],
				stats.RelError(stats.Mean(pathM3), stats.Mean(pathTruth)))
			res.ErrByHops[2][h] = append(res.ErrByHops[2][h],
				stats.RelError(stats.Mean(pathPS), stats.Mean(pathTruth)))
		}
	}

	names := []string{"(0,1KB]", "(1KB,10KB]", "(10KB,50KB]", "(50KB,inf)"}
	fmt.Fprintf(w, "Fig 15: per-path error breakdown (%s, %d sampled paths)\n", m.Name, len(distinct))
	fmt.Fprintf(w, "  by size bucket (median |err|):\n")
	for b := 0; b < feature.NumOutputBuckets; b++ {
		if len(res.ErrByBucket[0][b]) == 0 {
			continue
		}
		fmt.Fprintf(w, "    %-12s", names[b])
		for mi := range Fig15Methods {
			absErrs := make([]float64, len(res.ErrByBucket[mi][b]))
			for i, e := range res.ErrByBucket[mi][b] {
				absErrs[i] = abs(e)
			}
			fmt.Fprintf(w, " %s %5.1f%% |", Fig15Methods[mi], 100*stats.Median(absErrs))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  by path length (median |err|):\n")
	for _, h := range []int{2, 4, 6} {
		if len(res.ErrByHops[0][h]) == 0 {
			continue
		}
		fmt.Fprintf(w, "    %d-hop      ", h)
		for mi := range Fig15Methods {
			absErrs := make([]float64, len(res.ErrByHops[mi][h]))
			for i, e := range res.ErrByHops[mi][h] {
				absErrs[i] = abs(e)
			}
			fmt.Fprintf(w, " %s %5.1f%% |", Fig15Methods[mi], 100*stats.Median(absErrs))
		}
		fmt.Fprintln(w)
	}
	return res, nil
}
