package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"m3/internal/core"
	"m3/internal/packetsim"
	"m3/internal/pathsim"
	"m3/internal/rng"
	"m3/internal/sampling"
	"m3/internal/stats"
)

// Fig2Result validates path-level decomposition (Fig. 2b-e) for one mix.
type Fig2Result struct {
	Mix Mix
	// HopHist[h] is the number of sampled paths with h hops (Fig. 2b).
	HopHist map[int]int
	// FgCounts / BgCounts per sampled path (Fig. 2d).
	FgCounts []int
	BgCounts []int
	// PathErr is the per-path relative error of ns-3-path vs full ns-3,
	// computed on the mean foreground slowdown of each sampled path
	// (Fig. 2c/2e use per-path slowdown agreement).
	PathErr []float64
	// ErrByHops groups PathErr by hop count (Fig. 2e, left).
	ErrByHops map[int][]float64
}

// RunFig2 reproduces Fig. 2: how faithful path-level packet simulation is to
// the full simulation, per sampled path, across the three mixes.
func RunFig2(ctx context.Context, s Scale, w io.Writer) ([]Fig2Result, error) {
	mixes := Table1Mixes(s.TestFlows)
	var out []Fig2Result
	for _, m := range mixes {
		ft, flows, err := m.Build()
		if err != nil {
			return nil, err
		}
		cfg := packetsim.DefaultConfig()
		gt, err := core.RunGroundTruth(ctx, ft.Topology, flows, cfg)
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

		res := Fig2Result{Mix: m, HopHist: make(map[int]int), ErrByHops: make(map[int][]float64)}
		for _, pi := range distinct {
			p := &d.Paths[pi]
			sc, err := d.Scenario(p)
			if err != nil {
				return nil, err
			}
			fg, err := sc.RunPacketContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			res.HopHist[p.Hops()]++
			res.FgCounts = append(res.FgCounts, len(p.Fg))
			res.BgCounts = append(res.BgCounts, sc.NumBg())
			sc.Release()
			var truth []float64
			for _, id := range fg.Orig {
				truth = append(truth, gt.Result.Slowdown[id])
			}
			e := stats.RelError(stats.Mean(fg.Slowdown), stats.Mean(truth))
			res.PathErr = append(res.PathErr, e)
			res.ErrByHops[p.Hops()] = append(res.ErrByHops[p.Hops()], e)
		}
		out = append(out, res)

		fmt.Fprintf(w, "\nFig 2 — %s (%s, %s, oversub %s)\n",
			m.Name, m.MatrixName, m.Sizes.Name(), m.Oversub)
		hops := make([]int, 0, len(res.HopHist))
		for h := range res.HopHist {
			hops = append(hops, h)
		}
		sort.Ints(hops)
		fmt.Fprintf(w, "  2b hop counts: ")
		for _, h := range hops {
			fmt.Fprintf(w, "%d-hop:%d  ", h, res.HopHist[h])
		}
		fmt.Fprintln(w)
		abs := make([]float64, len(res.PathErr))
		for i, e := range res.PathErr {
			abs[i] = e
			if abs[i] < 0 {
				abs[i] = -abs[i]
			}
		}
		fmt.Fprintf(w, "  2c per-path |err|: mean %.1f%%, median %.1f%%, p90 %.1f%%\n",
			100*stats.Mean(abs), 100*stats.Median(abs), 100*stats.Percentile(abs, 90))
		fmt.Fprintf(w, "  2d flows/path: fg median %.0f, bg median %.0f\n",
			stats.Median(toF(res.FgCounts)), stats.Median(toF(res.BgCounts)))
		for _, h := range hops {
			es := res.ErrByHops[h]
			fmt.Fprintf(w, "  2e %d-hop err: median %+.1f%% [p25 %+.1f%%, p75 %+.1f%%] (n=%d)\n",
				h, 100*stats.Median(es), 100*stats.Percentile(es, 25),
				100*stats.Percentile(es, 75), len(es))
		}
	}
	return out, nil
}

func toF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Fig5Result holds Fig. 5 data for one scenario.
type Fig5Result struct {
	Mix Mix
	// ActivePaths is the number of populated paths (Fig. 5 left).
	ActivePaths int
	// ErrByK[k] is the distribution of relative p99 errors when sampling k
	// paths (Fig. 5 right), over repeated draws.
	ErrByK map[int][]float64
}

// RunFig5 reproduces Fig. 5: the populated-path count distribution and how
// the p99 sampling error shrinks with the number of sampled paths. It uses
// the ground-truth per-flow slowdowns directly (sampling study only — no
// per-path simulation).
func RunFig5(ctx context.Context, s Scale, w io.Writer) ([]Fig5Result, error) {
	ks := []int{50, 100, 200, 500, 1000}
	const draws = 20
	root := rng.New(55)
	var out []Fig5Result
	for i := 0; i < s.Scenarios; i++ {
		m := RandomMix(root.Split(uint64(i)), s.TestFlows, uint64(200+i))
		ft, flows, err := m.Build()
		if err != nil {
			return nil, err
		}
		gt, err := core.RunGroundTruth(ctx, ft.Topology, flows, packetsim.DefaultConfig())
		if err != nil {
			return nil, err
		}
		trueP99 := gt.P99()
		d, err := pathsim.Decompose(ft.Topology, flows)
		if err != nil {
			return nil, err
		}
		weights := d.FgWeights()
		res := Fig5Result{Mix: m, ActivePaths: len(d.Paths), ErrByK: make(map[int][]float64)}
		r := root.Split(uint64(1000 + i))
		for _, k := range ks {
			for rep := 0; rep < draws; rep++ {
				sample, err := sampling.Weighted(weights, k, r)
				if err != nil {
					return nil, err
				}
				var pooled []float64
				for _, pi := range sample {
					for _, id := range d.Paths[pi].Fg {
						pooled = append(pooled, gt.Result.Slowdown[id])
					}
				}
				res.ErrByK[k] = append(res.ErrByK[k],
					stats.AbsRelError(stats.P99(pooled), trueP99))
			}
		}
		out = append(out, res)
	}
	fmt.Fprintf(w, "Fig 5: path counts and sampling error (%d scenarios, %d flows each)\n",
		s.Scenarios, s.TestFlows)
	var counts []float64
	for _, r := range out {
		counts = append(counts, float64(r.ActivePaths))
	}
	fmt.Fprintf(w, "  5a populated paths: min %.0f, median %.0f, max %.0f\n",
		stats.Min(counts), stats.Median(counts), stats.Max(counts))
	for _, k := range ks {
		var all []float64
		for _, r := range out {
			all = append(all, r.ErrByK[k]...)
		}
		fmt.Fprintf(w, "  5b k=%4d sampled paths: median |p99 err| %.1f%%, p90 %.1f%%\n",
			k, 100*stats.Median(all), 100*stats.Percentile(all, 90))
	}
	return out, nil
}
