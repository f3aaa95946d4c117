package model

import (
	"context"
	"fmt"

	"m3/internal/packetsim"
	"m3/internal/parsimon"
	"m3/internal/pathsim"
	"m3/internal/pool"
	"m3/internal/rng"
	"m3/internal/routing"
	"m3/internal/sampling"
	"m3/internal/topo"
	"m3/internal/unit"
	"m3/internal/workload"
)

// NetworkDataConfig controls training-data generation from full-network
// decompositions: random workloads are generated on the small fat-tree,
// decomposed into paths, and sampled paths are labeled with ns-3-path (the
// path-level packet simulation, §2.1) — the same ground-truth protocol the
// paper trains against. Mixing these samples with the synthetic parking-lot
// set puts real decomposed-path feature distributions (sparse foregrounds,
// superposed background arrivals) into the training distribution.
type NetworkDataConfig struct {
	Workloads        int // number of full-network workloads to decompose
	FlowsPerWorkload int
	PathsPerWorkload int // sampled paths per workload
	Seed             uint64
	Workers          int
	// CCs restricts the ground-truth protocols (empty = all four).
	CCs []packetsim.CCType
	// LinkLabels switches ground-truth labeling from one packet-level path
	// simulation per sampled path (ns-3-path) to one clustered Parsimon run
	// per workload: sampled paths are labeled with the decomposition's
	// per-flow slowdowns. This is the Parsimon lever — labeling cost stops
	// scaling with the sampled-path count and the cluster count replaces the
	// congested-link count.
	LinkLabels bool
	// ClusterThreshold is the distance-tier threshold for LinkLabels runs
	// (zero keeps only the lossless exact tier).
	ClusterThreshold float64
}

// DefaultNetworkDataConfig matches DefaultDataConfig's scale.
func DefaultNetworkDataConfig() NetworkDataConfig {
	return NetworkDataConfig{
		Workloads:        8,
		FlowsPerWorkload: 8000,
		PathsPerWorkload: 50,
		Seed:             2,
		Workers:          8,
	}
}

// GenerateFromNetworks produces network-derived training samples on a
// worker pool, aborting early with ctx.Err() on cancellation. Each workload
// is memory-heavy (a full fat-tree decomposition), so concurrency is capped
// at a quarter of the worker count.
func GenerateFromNetworks(ctx context.Context, nc NetworkDataConfig) ([]*Sample, error) {
	if nc.Workloads <= 0 || nc.FlowsPerWorkload <= 0 || nc.PathsPerWorkload <= 0 {
		return nil, fmt.Errorf("model: bad network data config %+v", nc)
	}
	workers := nc.Workers
	if workers <= 0 {
		workers = 1
	}
	p := pool.New(max(1, workers/4))
	defer p.Close()
	root := rng.New(nc.Seed)
	results := make([][]*Sample, nc.Workloads)
	err := p.Run(ctx, nc.Workloads, func(ctx context.Context, i int) error {
		r := root.Split(uint64(i) + 1)
		samples, err := networkSamples(ctx, r, nc)
		if err != nil {
			return fmt.Errorf("model: network workload %d: %w", i, err)
		}
		results[i] = samples
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Sample
	for _, samples := range results {
		out = append(out, samples...)
	}
	return out, nil
}

// networkSamples generates one workload, decomposes it, and labels sampled
// paths with the path-level packet simulation.
func networkSamples(ctx context.Context, r *rng.RNG, nc NetworkDataConfig) ([]*Sample, error) {
	oversubs := []topo.Oversub{topo.Oversub1to1, topo.Oversub2to1, topo.Oversub4to1}
	ft, err := topo.SmallFatTree(oversubs[r.Intn(len(oversubs))])
	if err != nil {
		return nil, err
	}
	// Synthetic matrices with varying skew (distinct seeds from the
	// evaluation instances).
	matNames := []string{"A", "B", "C", "uniform"}
	mat, err := workload.Matrix(matNames[r.Intn(len(matNames))], ft.Cfg.NumRacks(), r.Split(7))
	if err != nil {
		return nil, err
	}
	flows, err := workload.Generate(ft, routing.NewFatTreeRouter(ft), workload.Spec{
		NumFlows:   nc.FlowsPerWorkload,
		Sizes:      RandomSizeDist(r),
		Matrix:     mat,
		Burstiness: 1 + r.Float64(),
		MaxLoad:    0.1 + 0.7*r.Float64(),
		Seed:       r.Uint64(),
	})
	if err != nil {
		return nil, err
	}
	cfg := RandomNetConfig(r, nc.CCs...)

	d, err := pathsim.Decompose(ft.Topology, flows)
	if err != nil {
		return nil, err
	}
	sample, err := sampling.Weighted(d.FgWeights(), nc.PathsPerWorkload, r)
	if err != nil {
		return nil, err
	}
	distinct, _ := sampling.Dedup(sample)

	// Link-label mode: one clustered Parsimon run labels every sampled path
	// of this workload, instead of one packet-level path simulation each.
	var ps *parsimon.Result
	if nc.LinkLabels {
		lp := pool.New(max(1, nc.Workers/2))
		defer lp.Close()
		ps, err = parsimon.RunWithOptions(ctx, ft.Topology, flows, cfg, lp,
			parsimon.Options{Cluster: true, ClusterThreshold: nc.ClusterThreshold})
		if err != nil {
			return nil, err
		}
	}

	var out []*Sample
	for _, pi := range distinct {
		p := &d.Paths[pi]
		sc, err := d.Scenario(p)
		if err != nil {
			return nil, err
		}
		fs, err := sc.RunFlowSimContext(ctx)
		if err != nil {
			sc.Release()
			return nil, err
		}
		s := BuildInputs(fs.Fg.Sizes, fs.Fg.Slowdown, fs.BgSizes, fs.BgSldn, cfg,
			d.T.RouteRates(p.Links), d.T.RouteDelays(p.Links))
		if ps != nil {
			sizes := make([]unit.ByteSize, len(p.Fg))
			sldn := make([]float64, len(p.Fg))
			for j, id := range p.Fg {
				sizes[j] = flows[id].Size
				sldn[j] = ps.Slowdown[id]
			}
			s.SetTarget(sizes, sldn)
		} else {
			gt, err := sc.RunPacketContext(ctx, cfg) // ns-3-path ground truth
			if err != nil {
				sc.Release()
				return nil, err
			}
			s.SetTarget(gt.Sizes, gt.Slowdown)
		}
		sc.Release()
		out = append(out, s)
	}
	return out, nil
}
