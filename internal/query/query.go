// Package query implements the paper's interactive interface (§3.1,
// component 8): targeted queries over a loaded workload — network-wide
// slowdown quantiles per flow-size class, per-host-pair path queries, and
// live network-configuration what-ifs, all served from the m3 estimator
// with caching per configuration.
package query

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"m3/internal/agg"
	"m3/internal/core"
	"m3/internal/feature"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/pathsim"
	"m3/internal/stats"
	"m3/internal/topo"
	"m3/internal/unit"
	"m3/internal/workload"
)

// BucketNames labels the four output size buckets.
var BucketNames = [feature.NumOutputBuckets]string{
	"(0,1KB]", "(1KB,10KB]", "(10KB,50KB]", "(50KB,inf)",
}

// Session answers queries about one workload on one topology.
type Session struct {
	T     *topo.Topology
	Flows []workload.Flow
	// Net is the inference backend — any model.Predictor (*model.Net,
	// *model.QuantizedNet, ...). The name predates the interface cut.
	Net model.Predictor
	// Cfg is the network configuration under query; mutate via SetConfig.
	cfg packetsim.Config
	// NumPaths is the sampled path budget per estimate (default 500).
	NumPaths int
	// Workers bounds parallelism (ignored when Pool is set).
	Workers int
	Seed    uint64
	// BatchSize is the ML inference micro-batch size (0 = core default).
	BatchSize int
	// Pool, when set, supplies per-path workers shared with other sessions
	// (the estimation service sets it). Nil means a transient pool per
	// estimate.
	Pool *core.Pool
	// Cache holds finished estimates keyed by (workload, config, method,
	// paths, seed, model). Sessions get a private cache by default; set it
	// before the first query to share one cache across sessions and with
	// the serving layer. Because the cache is keyed by configuration,
	// SetConfig no longer discards still-useful estimates — switching back
	// to an earlier configuration is a cache hit.
	Cache *core.EstimateCache

	mu      sync.Mutex
	decomp  *pathsim.Decomposition
	hash    core.WorkloadHash
	hashed  bool
	modelFP uint64
}

// NewSession builds a session with the paper's defaults. net is any
// inference backend (Predictor); existing callers passing a *model.Net
// compile unchanged.
func NewSession(t *topo.Topology, flows []workload.Flow, net model.Predictor,
	cfg packetsim.Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model.IsNil(net) {
		return nil, fmt.Errorf("query: nil model")
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("query: empty workload")
	}
	return &Session{
		T: t, Flows: flows, Net: net, cfg: cfg, NumPaths: 500, Seed: 1,
		Cache: core.NewEstimateCache(16),
	}, nil
}

// Config returns the configuration under query.
func (s *Session) Config() packetsim.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// SetConfig swaps the network configuration (a counterfactual). Estimates
// for other configurations stay cached; re-estimating under a previously
// queried configuration is served from the cache.
func (s *Session) SetConfig(cfg packetsim.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg = cfg
	return nil
}

func (s *Session) decomposition() (*pathsim.Decomposition, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.decomp == nil {
		d, err := pathsim.Decompose(s.T, s.Flows)
		if err != nil {
			return nil, err
		}
		s.decomp = d
	}
	return s.decomp, nil
}

// workloadHash fingerprints the session's workload and model once.
func (s *Session) workloadHash() (core.WorkloadHash, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hashed {
		s.hash = core.HashWorkload(s.T, s.Flows)
		s.modelFP = s.Net.Fingerprint()
		s.hashed = true
	}
	return s.hash, s.modelFP
}

// Estimate returns (computing and caching if needed) the network-wide
// estimate for the current configuration. A done ctx aborts in-flight path
// simulations and batched inference.
func (s *Session) Estimate(ctx context.Context) (*core.Estimate, error) {
	cfg := s.Config()
	d, err := s.decomposition()
	if err != nil {
		return nil, err
	}
	hash, fp := s.workloadHash()
	key := core.EstimateKey{
		Workload: hash,
		Cfg:      cfg,
		Method:   core.MethodML,
		NumPaths: s.NumPaths,
		Seed:     s.Seed,
		Model:    fp,
		Backend:  s.Net.Kind(),
	}
	res, _, err := s.Cache.Do(ctx, key, func() (*core.Estimate, error) {
		est := core.NewEstimator(s.Net,
			core.WithNumPaths(s.NumPaths),
			core.WithWorkers(s.Workers),
			core.WithSeed(s.Seed),
			core.WithBatchSize(s.BatchSize),
			core.WithPool(s.Pool),
			core.WithDecomposition(d))
		return est.Estimate(ctx, s.T, s.Flows, cfg)
	})
	return res, err
}

// Quantile answers "what is the q-quantile slowdown of bucket b" (b = -1 for
// the combined distribution). q is in (0, 1].
func (s *Session) Quantile(ctx context.Context, bucket int, q float64) (float64, error) {
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("query: quantile %v out of (0,1]", q)
	}
	if bucket < -1 || bucket >= feature.NumOutputBuckets {
		return 0, fmt.Errorf("query: bucket %d out of range", bucket)
	}
	res, err := s.Estimate(ctx)
	if err != nil {
		return 0, err
	}
	if bucket == -1 {
		return res.Agg.CombinedQuantile(q), nil
	}
	return res.Agg.BucketQuantile(bucket, q), nil
}

// P99 is shorthand for Quantile(ctx, bucket, 0.99).
func (s *Session) P99(ctx context.Context, bucket int) (float64, error) {
	return s.Quantile(ctx, bucket, 0.99)
}

// PathReport answers a targeted per-host-pair query: the predicted slowdown
// distribution of traffic from src to dst, over every populated path between
// them.
type PathReport struct {
	Src, Dst topo.NodeID
	// Paths is the number of populated src->dst paths.
	Paths int
	// FgFlows is the total foreground flow count across those paths.
	FgFlows int
	// P50, P99 are quantiles of the pooled predicted distribution, per
	// bucket (NaN when a bucket is empty).
	P50, P99 [feature.NumOutputBuckets]float64
}

// Path estimates the slowdown distribution for traffic between a specific
// host pair under the current configuration ("sampling from specific paths
// of interest", §3.6). A done ctx aborts in-flight path simulations.
func (s *Session) Path(ctx context.Context, src, dst topo.NodeID) (*PathReport, error) {
	d, err := s.decomposition()
	if err != nil {
		return nil, err
	}
	report := &PathReport{Src: src, Dst: dst}
	var outs []agg.PathOutput
	for i := range d.Paths {
		p := &d.Paths[i]
		first := d.T.Link(p.Links[0])
		last := d.T.Link(p.Links[len(p.Links)-1])
		if first.Src != src || last.Dst != dst {
			continue
		}
		report.Paths++
		report.FgFlows += len(p.Fg)
		out, err := s.pathOutput(ctx, d, p)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	if report.Paths == 0 {
		return nil, fmt.Errorf("query: no populated path %d -> %d", src, dst)
	}
	a, err := agg.Aggregate(outs)
	if err != nil {
		return nil, err
	}
	for b := 0; b < feature.NumOutputBuckets; b++ {
		report.P50[b] = a.BucketQuantile(b, 0.50)
		report.P99[b] = a.BucketQuantile(b, 0.99)
	}
	return report, nil
}

func (s *Session) pathOutput(ctx context.Context, d *pathsim.Decomposition, p *pathsim.Path) (agg.PathOutput, error) {
	sc, err := d.Scenario(p)
	if err != nil {
		return agg.PathOutput{}, err
	}
	fs, err := sc.RunFlowSimContext(ctx)
	sc.Release()
	if err != nil {
		return agg.PathOutput{}, err
	}
	in := model.BuildInputs(fs.Fg.Sizes, fs.Fg.Slowdown, fs.BgSizes, fs.BgSldn, s.Config(),
		d.T.RouteRates(p.Links), d.T.RouteDelays(p.Links))
	preds, err := s.Net.PredictBatch(ctx, []*model.Sample{in})
	if err != nil {
		return agg.PathOutput{}, err
	}
	pred := preds[0]
	counts := feature.BuildOutput(fs.Fg.Sizes, fs.Fg.Slowdown).Counts
	out := agg.PathOutput{
		Buckets: make([][]float64, feature.NumOutputBuckets),
		Counts:  counts,
		Mult:    1,
	}
	for b := 0; b < feature.NumOutputBuckets; b++ {
		if counts[b] > 0 {
			out.Buckets[b] = pred[b*feature.NumPercentiles : (b+1)*feature.NumPercentiles]
		}
	}
	return out, nil
}

// Summary describes the loaded workload.
type Summary struct {
	Flows       int
	Hosts       int
	Paths       int
	TotalBytes  unit.ByteSize
	MeanSize    float64
	MedianSize  float64
	Horizon     unit.Time
	BucketShare [feature.NumOutputBuckets]float64
}

// Summarize reports workload statistics (no simulation).
func (s *Session) Summarize() (*Summary, error) {
	d, err := s.decomposition()
	if err != nil {
		return nil, err
	}
	sum := &Summary{Flows: len(s.Flows), Paths: len(d.Paths)}
	hosts := map[topo.NodeID]bool{}
	sizes := make([]float64, 0, len(s.Flows))
	var counts [feature.NumOutputBuckets]int
	for i := range s.Flows {
		f := &s.Flows[i]
		hosts[f.Src] = true
		hosts[f.Dst] = true
		sum.TotalBytes += f.Size
		sizes = append(sizes, float64(f.Size))
		if f.Arrival > sum.Horizon {
			sum.Horizon = f.Arrival
		}
		counts[feature.BucketOf(f.Size, feature.OutputBucketBounds)]++
	}
	sum.Hosts = len(hosts)
	sum.MeanSize = stats.Mean(sizes)
	sort.Float64s(sizes)
	sum.MedianSize = stats.Median(sizes)
	for b := range counts {
		sum.BucketShare[b] = float64(counts[b]) / float64(len(s.Flows))
	}
	return sum, nil
}
