// Package core is the m3 estimator itself (§3): it decomposes a
// full-network workload into paths, draws a flow-weighted path sample, runs
// flowSim on each sampled path to build feature maps, corrects them with the
// trained ML model, and aggregates the per-path outputs into network-wide
// slowdown distributions.
//
// For the paper's ablations the same pipeline can be driven by two
// alternative per-path backends: the raw flowSim estimates (the "no ML"
// ablation of Fig. 16) and the packet-level path simulation ns-3-path (the
// decomposition-only oracle of §2.1 / Fig. 15).
package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"m3/internal/agg"
	"m3/internal/faultinject"
	"m3/internal/feature"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/parsimon"
	"m3/internal/pathsim"
	"m3/internal/rng"
	"m3/internal/sampling"
	"m3/internal/stats"
	"m3/internal/topo"
	"m3/internal/unit"
	"m3/internal/workload"
)

// Method selects the per-path backend.
type Method uint8

// Per-path estimation backends.
const (
	// MethodML is full m3: flowSim features refined by the trained model.
	MethodML Method = iota
	// MethodFlowSim reports flowSim's estimates directly (no-ML ablation).
	MethodFlowSim
	// MethodNS3Path simulates each sampled path at packet level (the
	// ns-3-path oracle; slow, used for ground-truth decomposition studies).
	MethodNS3Path
)

func (m Method) String() string {
	switch m {
	case MethodML:
		return "m3"
	case MethodFlowSim:
		return "flowsim"
	case MethodNS3Path:
		return "ns3-path"
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

// Defaults for NewEstimator.
const (
	// DefaultNumPaths is the paper's sampled-path budget.
	DefaultNumPaths = 500
	// DefaultBatchSize is the ML micro-batch size: large enough that the
	// per-batch fixed costs (scratch checkout, result slab) amortize, small
	// enough that batches from concurrent estimates interleave on a shared
	// pool.
	DefaultBatchSize = 32
)

// Estimator runs the m3 pipeline. Construct with NewEstimator; the
// configuration is fixed at construction (an Estimator is immutable and safe
// to share between goroutines).
type Estimator struct {
	pred      model.Predictor
	numPaths  int
	workers   int
	method    Method
	seed      uint64
	batchSize int
	pool      *Pool
	decomp    *pathsim.Decomposition
	fallback  bool
}

// Option configures an Estimator at construction.
type Option func(*Estimator)

// WithNumPaths sets the sampled-path budget (default DefaultNumPaths).
func WithNumPaths(n int) Option { return func(e *Estimator) { e.numPaths = n } }

// WithWorkers bounds per-path parallelism (0 = GOMAXPROCS). Ignored when a
// shared pool is set — the pool's size governs.
func WithWorkers(n int) Option { return func(e *Estimator) { e.workers = n } }

// WithMethod selects the per-path backend (default MethodML).
func WithMethod(m Method) Option { return func(e *Estimator) { e.method = m } }

// WithSeed seeds the path sampling (default 1).
func WithSeed(seed uint64) Option { return func(e *Estimator) { e.seed = seed } }

// WithBatchSize sets the ML inference micro-batch size (default
// DefaultBatchSize; values < 1 fall back to the default). Batch 1 degrades
// to per-path prediction.
func WithBatchSize(n int) Option { return func(e *Estimator) { e.batchSize = n } }

// WithPool points the estimator at a shared worker pool. Long-lived callers
// (the estimation service) share one Pool across estimators so concurrent
// estimates divide the cores instead of oversubscribing them. Without it,
// Estimate spins up a transient pool per call.
func WithPool(p *Pool) Option { return func(e *Estimator) { e.pool = p } }

// WithFlowSimFallback enables graceful degradation for MethodML: when the
// model is missing, fails to predict, or emits non-finite slowdowns, the
// affected paths fall back to the raw flowSim estimate instead of failing the
// whole run. The result carries Degraded/DegradedPaths so callers can see the
// answer is the weaker no-ML estimate (Fig. 16's ablation), not full m3.
// Off by default: library callers get hard errors; the serving layer opts in.
func WithFlowSimFallback(on bool) Option { return func(e *Estimator) { e.fallback = on } }

// WithPredictor replaces the estimator's inference backend after
// construction options ran — useful when the backend is chosen per request
// (the serving layer's `"backend"` field) while the rest of the options stay
// fixed. A nil (or typed-nil) predictor clears the model.
func WithPredictor(p model.Predictor) Option {
	return func(e *Estimator) {
		if model.IsNil(p) {
			p = nil
		}
		e.pred = p
	}
}

// WithDecomposition supplies a precomputed decomposition, which must be of
// exactly the (topology, flows) passed to Estimate; the decompose stage is
// then skipped. Callers that estimate the same workload repeatedly under
// different configurations (sessions, the service) cache it.
func WithDecomposition(d *pathsim.Decomposition) Option {
	return func(e *Estimator) { e.decomp = d }
}

// NewEstimator returns an estimator for the given inference backend with
// the paper's defaults, adjusted by opts. Any model.Predictor works —
// *model.Net (the float transformer) and *model.QuantizedNet (int8) are the
// built-in kinds — and existing callers passing a *model.Net compile
// unchanged. p may be nil for the model-free backends
// (WithMethod(MethodFlowSim) or MethodNS3Path).
func NewEstimator(p model.Predictor, opts ...Option) *Estimator {
	if model.IsNil(p) {
		p = nil // a typed-nil *Net must read as "no model", like before the interface cut
	}
	e := &Estimator{
		pred:      p,
		numPaths:  DefaultNumPaths,
		seed:      1,
		batchSize: DefaultBatchSize,
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// StageTimings breaks an estimation's cost down by pipeline stage.
// Decompose, Sample, and Aggregate are wall-clock; ScenarioBuild, PathSim,
// Featurize and Predict are summed across workers (CPU time spent building
// per-path scenarios, in the per-path backend alone — flowSim or the packet
// simulator — in BuildInputs + BucketCounts, and in ML inference), feeding
// the serving layer's /metrics endpoint. Because the ML schedule overlaps
// featurize and predict, the summed stages can exceed the shard's wall
// clock — PathSimWall (the whole featurize stage) and PredictWall carry the
// per-stage wall-clock extents (first task start to last task end), and
// Overlap is the wall-clock span during which both stages were running at
// once.
type StageTimings struct {
	Decompose     time.Duration
	Sample        time.Duration
	ScenarioBuild time.Duration
	PathSim       time.Duration
	Featurize     time.Duration
	Predict       time.Duration
	Aggregate     time.Duration

	PathSimWall time.Duration
	PredictWall time.Duration
	Overlap     time.Duration
}

// Estimate is the result of a network-wide estimation.
type Estimate struct {
	Agg *agg.NetworkEstimate
	// DistinctPaths is the number of unique paths simulated (after
	// deduplicating the weighted sample).
	DistinctPaths int
	// TotalPaths is the number of populated paths in the decomposition.
	TotalPaths int
	// Elapsed is the wall-clock estimation time (excluding workload
	// generation, matching how the paper reports simulation time).
	Elapsed time.Duration
	// Stages attributes the cost to pipeline stages.
	Stages StageTimings
	// Degraded reports that at least one path fell back from the ML
	// correction to the raw flowSim estimate (see WithFlowSimFallback).
	Degraded bool
	// DegradedPaths counts the distinct paths that fell back.
	DegradedPaths int
}

// OverlapRatio reports how much of the shorter ML stage's wall clock was
// hidden under the longer one: Overlap / min(PathSimWall, PredictWall),
// in [0, 1]. 1 means the predict stage ran entirely inside the featurize
// window (or vice versa); 0 means the stages serialized, as for a
// model-free method.
func (e *Estimate) OverlapRatio() float64 {
	shorter := min(e.Stages.PathSimWall, e.Stages.PredictWall)
	if shorter <= 0 || e.Stages.Overlap <= 0 {
		return 0
	}
	r := float64(e.Stages.Overlap) / float64(shorter)
	return min(r, 1)
}

// P99PerBucket returns the estimated p99 slowdown for the four output size
// buckets.
func (e *Estimate) P99PerBucket() [feature.NumOutputBuckets]float64 {
	var out [feature.NumOutputBuckets]float64
	for b := range out {
		out[b] = e.Agg.BucketP99(b)
	}
	return out
}

// P99 returns the network-wide combined p99 slowdown.
func (e *Estimate) P99() float64 { return e.Agg.CombinedP99() }

// Plan is the deterministic front half of an estimate: the path
// decomposition plus the deduplicated weighted path sample. Given the same
// (topology, flows, numPaths, seed), Plan is identical in every process —
// pathsim.Decompose orders paths by first appearance in the flow list and
// the sampler is seeded — which is what lets a cluster coordinator ship
// bare path indices to replicas and trust they name the same paths there.
type Plan struct {
	D *pathsim.Decomposition
	// Distinct holds the distinct sampled path indices (into D.Paths);
	// Mult[i] is how many times Distinct[i] was drawn.
	Distinct []int
	Mult     []int

	decomposeTime time.Duration
	sampleTime    time.Duration
}

// Plan decomposes and samples the workload without running any per-path
// backend. Callers that scatter the per-path work across processes run the
// plan's shards via RunShard and combine them with Assemble; Estimate does
// exactly that in-process.
func (e *Estimator) Plan(t *topo.Topology, flows []workload.Flow) (*Plan, error) {
	if e.numPaths <= 0 {
		return nil, fmt.Errorf("core: NumPaths must be positive")
	}
	start := time.Now()
	d := e.decomp
	if d == nil {
		// An injected decomposition was validated when it was built; a raw
		// (topology, flows) pair gets the full structural gate here, before
		// any simulator code can trip over it.
		if err := (workload.Workload{Topo: t, Flows: flows}).Validate(); err != nil {
			return nil, err
		}
		var err error
		d, err = pathsim.Decompose(t, flows)
		if err != nil {
			return nil, err
		}
	}
	p := &Plan{D: d}
	p.decomposeTime = time.Since(start)

	sampleStart := time.Now()
	r := rng.New(e.seed)
	sample, err := sampling.Weighted(d.FgWeights(), e.numPaths, r)
	if err != nil {
		return nil, err
	}
	p.Distinct, p.Mult = sampling.Dedup(sample)
	p.sampleTime = time.Since(sampleStart)
	return p, nil
}

// ShardResult is one shard's per-path outputs plus its backend cost; it is
// also the body the cluster's /internal/v1/paths endpoint returns. Fields
// marked omitempty were added after the first wire version: replicas that
// predate them answer zero.
type ShardResult struct {
	// Outs[i] is the output of path distinct[i] (same order as the request).
	Outs []agg.PathOutput `json:"outs"`
	// ScenarioNs, PathSimNs, FeaturizeNs and PredictNs are summed stage
	// time across workers.
	ScenarioNs  int64 `json:"scenario_ns,omitempty"`
	PathSimNs   int64 `json:"path_sim_ns"`
	FeaturizeNs int64 `json:"featurize_ns,omitempty"`
	PredictNs   int64 `json:"predict_ns"`
	// PathSimWallNs and PredictWallNs are the wall-clock extents of the two
	// ML stages, and OverlapNs the span both ran concurrently (zero for
	// model-free methods).
	PathSimWallNs int64 `json:"path_sim_wall_ns,omitempty"`
	PredictWallNs int64 `json:"predict_wall_ns,omitempty"`
	OverlapNs     int64 `json:"overlap_ns,omitempty"`
	// DegradedPaths counts paths that fell back from ML to flowSim.
	DegradedPaths int `json:"degraded_paths"`
}

// Merge folds another shard's costs into sr. Shards run concurrently, so
// stage CPU times and degraded counts sum while the wall-clock extents
// combine via max: the fleet-level stage wall is the slowest shard's (a
// lower bound when shards skew, exact when they align). Outs is untouched.
func (sr *ShardResult) Merge(o *ShardResult) {
	sr.ScenarioNs += o.ScenarioNs
	sr.PathSimNs += o.PathSimNs
	sr.FeaturizeNs += o.FeaturizeNs
	sr.PredictNs += o.PredictNs
	sr.PathSimWallNs = max(sr.PathSimWallNs, o.PathSimWallNs)
	sr.PredictWallNs = max(sr.PredictWallNs, o.PredictWallNs)
	sr.OverlapNs = max(sr.OverlapNs, o.OverlapNs)
	sr.DegradedPaths += o.DegradedPaths
}

// Stages returns the shard's per-path stage timings; Assemble fills in the
// plan-level stages.
func (sr *ShardResult) Stages() StageTimings {
	return StageTimings{
		ScenarioBuild: time.Duration(sr.ScenarioNs),
		PathSim:       time.Duration(sr.PathSimNs),
		Featurize:     time.Duration(sr.FeaturizeNs),
		Predict:       time.Duration(sr.PredictNs),
		PathSimWall:   time.Duration(sr.PathSimWallNs),
		PredictWall:   time.Duration(sr.PredictWallNs),
		Overlap:       time.Duration(sr.OverlapNs),
	}
}

// stageCounters accumulates a shard's per-path stage time across workers,
// plus its degraded-path count.
type stageCounters struct {
	scenario, pathSim, featurize, predict, degraded atomic.Int64
}

// since adds the time elapsed from start to c and returns the current time,
// so consecutive stages can be timed back to back.
func since(c *atomic.Int64, start time.Time) time.Time {
	now := time.Now()
	c.Add(int64(now.Sub(start)))
	return now
}

// RunShard executes the per-path backends for one slice of a plan's
// distinct paths — distinct[i] indexes d.Paths and mult[i] is its sampling
// multiplicity. It is the unit of scatter-gather: a coordinator partitions
// a plan's paths into contiguous shards and runs each wherever it likes;
// concatenating the shard outputs in plan order reproduces exactly what a
// single-process Estimate computes.
func (e *Estimator) RunShard(ctx context.Context, d *pathsim.Decomposition,
	distinct, mult []int, cfg packetsim.Config) (*ShardResult, error) {

	if len(distinct) != len(mult) {
		return nil, fmt.Errorf("core: shard has %d paths but %d multiplicities", len(distinct), len(mult))
	}
	for i, pi := range distinct {
		if pi < 0 || pi >= len(d.Paths) {
			return nil, fmt.Errorf("core: shard path index %d out of range [0,%d)", pi, len(d.Paths))
		}
		if mult[i] <= 0 {
			return nil, fmt.Errorf("core: shard multiplicity %d must be positive", mult[i])
		}
	}
	method := e.method
	wholeDegraded := false
	if method == MethodML && e.pred == nil {
		if !e.fallback {
			return nil, fmt.Errorf("core: MethodML requires a trained model")
		}
		// No model at all: the entire shard degrades to the flowSim backend.
		method = MethodFlowSim
		wholeDegraded = true
	}
	// Workers pull path indices from the pool; the first error (or a done
	// ctx) cancels the remaining paths instead of running them all out.
	pool := e.pool
	if pool == nil {
		pool = NewPool(e.workers)
		defer pool.Close()
	}
	sr := &ShardResult{Outs: make([]agg.PathOutput, len(distinct))}
	var st stageCounters
	var walls stageWalls
	var err error
	if method == MethodML {
		walls, err = e.estimateML(ctx, pool, d, distinct, mult, cfg, sr.Outs, &st)
	} else {
		wallStart := time.Now()
		err = pool.Run(ctx, len(distinct), func(ctx context.Context, i int) error {
			faultinject.At("core.path", distinct[i])
			out, err := e.estimatePath(ctx, d, &d.Paths[distinct[i]], mult[i], cfg, method, &st)
			if err != nil {
				return fmt.Errorf("core: path %d: %w", distinct[i], err)
			}
			sr.Outs[i] = out
			return nil
		})
		walls.pathSim = time.Since(wallStart)
	}
	if err != nil {
		return nil, err
	}
	sr.ScenarioNs = st.scenario.Load()
	sr.PathSimNs = st.pathSim.Load()
	sr.FeaturizeNs = st.featurize.Load()
	sr.PredictNs = st.predict.Load()
	sr.PathSimWallNs = int64(walls.pathSim)
	sr.PredictWallNs = int64(walls.predict)
	sr.OverlapNs = int64(walls.overlap)
	sr.DegradedPaths = int(st.degraded.Load())
	if wholeDegraded {
		sr.DegradedPaths = len(distinct)
	}
	return sr, nil
}

// Assemble aggregates per-path outputs — ordered exactly as p.Distinct —
// into the final estimate. st carries the caller's per-path stage totals;
// the plan's Decompose/Sample timings and the Aggregate stage are filled in
// here. Elapsed is left zero for the caller to stamp.
func (p *Plan) Assemble(outs []agg.PathOutput, st StageTimings, degradedPaths int) (*Estimate, error) {
	if len(outs) != len(p.Distinct) {
		return nil, fmt.Errorf("core: assemble got %d outputs for %d sampled paths", len(outs), len(p.Distinct))
	}
	st.Decompose = p.decomposeTime
	st.Sample = p.sampleTime
	aggStart := time.Now()
	a, err := agg.Aggregate(outs)
	if err != nil {
		return nil, err
	}
	st.Aggregate = time.Since(aggStart)
	return &Estimate{
		Agg:           a,
		DistinctPaths: len(p.Distinct),
		TotalPaths:    len(p.D.Paths),
		Stages:        st,
		Degraded:      degradedPaths > 0,
		DegradedPaths: degradedPaths,
	}, nil
}

// Estimate runs the pipeline on the given workload and network config, with
// cooperative cancellation threaded down to the per-path backends: when ctx
// ends (a client disconnect, a deadline), in-flight path simulations abort
// mid-run and the estimate returns ctx.Err() promptly instead of running
// every path to completion.
func (e *Estimator) Estimate(ctx context.Context, t *topo.Topology,
	flows []workload.Flow, cfg packetsim.Config) (*Estimate, error) {

	start := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := e.Plan(t, flows)
	if err != nil {
		return nil, err
	}
	sr, err := e.RunShard(ctx, plan.D, plan.Distinct, plan.Mult, cfg)
	if err != nil {
		return nil, err
	}
	res, err := plan.Assemble(sr.Outs, sr.Stages(), sr.DegradedPaths)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// stageWalls carries the ML pipeline's wall-clock extents: pathSim and
// predict span first-task-start to last-task-end per stage, and overlap is
// the concurrent span (how much of the two stages ran at once).
type stageWalls struct {
	pathSim time.Duration
	predict time.Duration
	overlap time.Duration
}

// mlRun is one ML shard's per-call state: the featurized samples, the
// fallback retention slabs, and the batch/predict plumbing.
type mlRun struct {
	e        *Estimator
	d        *pathsim.Decomposition
	distinct []int
	mult     []int
	cfg      packetsim.Config
	samples  []*model.Sample
	outs     []agg.PathOutput
	// With fallback enabled, the featurize stage retains each path's raw
	// flowSim slowdowns (slices RunFlowSimContext already allocated) so a
	// failed or non-finite prediction can be bucketized per-path without
	// re-simulating. The happy path pays only the two slice stores —
	// bucketizing happens lazily, at failure time. When fallback is off the
	// slices stay nil and featurize is unchanged.
	fbSizes [][]unit.ByteSize
	fbSldn  [][]float64

	st *stageCounters
}

// featurize builds sampled path i's scenario, runs flowSim on it and turns
// the result into model inputs, storing them and the path's output
// skeleton.
func (r *mlRun) featurize(ctx context.Context, i int) error {
	faultinject.At("core.path", r.distinct[i])
	p := &r.d.Paths[r.distinct[i]]
	start := time.Now()
	sc, err := r.d.Scenario(p)
	if err != nil {
		return fmt.Errorf("core: path %d: %w", r.distinct[i], err)
	}
	start = since(&r.st.scenario, start)
	fs, err := sc.RunFlowSimContext(ctx)
	sc.Release()
	start = since(&r.st.pathSim, start)
	if err != nil {
		return fmt.Errorf("core: path %d: %w", r.distinct[i], err)
	}
	rates := r.d.T.RouteRates(p.Links)
	delays := r.d.T.RouteDelays(p.Links)
	r.samples[i] = model.BuildInputs(fs.Fg.Sizes, fs.Fg.Slowdown, fs.BgSizes, fs.BgSldn, r.cfg, rates, delays)
	r.outs[i] = agg.PathOutput{
		Counts: feature.BucketCounts(fs.Fg.Sizes, feature.OutputBucketBounds),
		Mult:   r.mult[i],
	}
	since(&r.st.featurize, start)
	if r.fbSizes != nil {
		r.fbSizes[i], r.fbSldn[i] = fs.Fg.Sizes, fs.Fg.Slowdown
	}
	return nil
}

// predict flushes the featurized paths named by idx (indices into distinct,
// in whatever order the batch formed) through PredictBatch, writing final
// bucket vectors — or flowSim fallbacks — into outs. A PredictBatch error
// degrades the whole batch when fallback is on; non-finite rows degrade
// per path. Per-sample outputs are independent of batch composition
// (PredictBatch agrees with per-sample prediction bitwise), so batches
// formed in completion order give the same estimate on any pool size.
func (r *mlRun) predict(ctx context.Context, idx []int) error {
	batch := make([]*model.Sample, len(idx))
	for k, i := range idx {
		batch[k] = r.samples[i]
	}
	predStart := time.Now()
	preds, err := r.e.pred.PredictBatch(ctx, batch)
	since(&r.st.predict, predStart)
	if err != nil {
		if r.fbSizes == nil {
			return fmt.Errorf("core: predict batch [path %d..]: %w", r.distinct[idx[0]], err)
		}
		// The model refused the whole batch; serve its paths from the
		// flowSim estimates instead of failing the run.
		for _, i := range idx {
			r.outs[i] = outputFromSamples(r.fbSizes[i], r.fbSldn[i], r.mult[i])
			r.samples[i] = nil
		}
		r.st.degraded.Add(int64(len(idx)))
		return nil
	}
	faultinject.At("core.predict", preds)
	for k, pred := range preds {
		i := idx[k]
		if r.fbSizes != nil && !finiteSlice(pred) {
			r.outs[i] = outputFromSamples(r.fbSizes[i], r.fbSldn[i], r.mult[i])
			r.samples[i] = nil
			r.st.degraded.Add(1)
			continue
		}
		out := &r.outs[i]
		out.Buckets = make([][]float64, feature.NumOutputBuckets)
		for b := 0; b < feature.NumOutputBuckets; b++ {
			if out.Counts[b] > 0 {
				out.Buckets[b] = pred[b*feature.NumPercentiles : (b+1)*feature.NumPercentiles]
			}
		}
		r.samples[i] = nil // release featurized inputs as batches drain
	}
	return nil
}

// pprof labels for the ML pipeline's two stages, so a CPU profile of the
// serving layer shows featurize and predict as separate label sets and the
// overlap is visible in the profile timeline.
var (
	featurizeLabels = pprof.Labels("stage", "featurize")
	predictLabels   = pprof.Labels("stage", "predict")
)

// estimateML is the ML backend's featurize→predict schedule: featurize
// tasks fan out over the pool and deliver completed samples to a batch
// accumulator, and the task that fills a micro-batch — or featurizes the
// last path, flushing the partial tail — predicts it inline, so flowSim and
// inference overlap without a stage barrier and batches from concurrent
// estimates interleave on a shared pool. A predict error fails its
// featurize task, so Run's first-error cancel aborts the in-flight
// featurize work.
func (e *Estimator) estimateML(ctx context.Context, pool *Pool,
	d *pathsim.Decomposition, distinct, mult []int, cfg packetsim.Config,
	outs []agg.PathOutput, st *stageCounters) (stageWalls, error) {

	r := &mlRun{
		e: e, d: d, distinct: distinct, mult: mult, cfg: cfg,
		samples: make([]*model.Sample, len(distinct)), outs: outs, st: st,
	}
	if e.fallback {
		r.fbSizes = make([][]unit.ByteSize, len(distinct))
		r.fbSldn = make([][]float64, len(distinct))
	}
	bs := e.batchSize
	if bs <= 0 {
		bs = DefaultBatchSize
	}

	start := time.Now()
	// mu guards the batch accumulator and the stage walls, all offsets from
	// start: the featurize stage ends when its last path does, and the
	// predict extent runs from the earliest batch start to the latest end.
	var (
		mu                sync.Mutex
		pending           = make([]int, 0, bs)
		featurized        int
		featEnd, predLast time.Duration
		predFirst         = time.Duration(math.MaxInt64)
	)
	predict := func(ctx context.Context, idx []int) error {
		var err error
		pprof.Do(ctx, predictLabels, func(ctx context.Context) {
			t0 := time.Since(start)
			err = r.predict(ctx, idx)
			t1 := time.Since(start)
			mu.Lock()
			predFirst, predLast = min(predFirst, t0), max(predLast, t1)
			mu.Unlock()
		})
		return err
	}
	err := pool.Run(ctx, len(distinct), func(ctx context.Context, i int) error {
		var err error
		pprof.Do(ctx, featurizeLabels, func(ctx context.Context) {
			err = r.featurize(ctx, i)
		})
		if err != nil {
			return err
		}
		mu.Lock()
		pending = append(pending, i)
		featurized++
		last := featurized == len(distinct)
		if last {
			featEnd = time.Since(start)
		}
		var batch []int
		if len(pending) >= bs || last {
			batch, pending = pending, make([]int, 0, bs)
		}
		mu.Unlock()
		if batch == nil {
			return nil
		}
		return predict(ctx, batch)
	})
	total := time.Since(start)
	walls := stageWalls{pathSim: featEnd}
	if predLast > predFirst {
		walls.predict = predLast - predFirst
	}
	// Overlap: how much longer the two stages would have taken end-to-end
	// had they serialized, versus the wall clock they actually took.
	if over := walls.pathSim + walls.predict - total; over > 0 {
		walls.overlap = over
	}
	return walls, err
}

// finiteSlice reports whether every value is a usable slowdown — Predict
// clamps below-1 outputs but NaN and Inf pass through a broken model
// untouched, so they are the degradation signal.
func finiteSlice(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// estimatePath produces one sampled path's bucketed percentile vectors for
// the model-free backends, accumulating scenario-build and backend time into
// the stage counters.
func (e *Estimator) estimatePath(ctx context.Context, d *pathsim.Decomposition,
	p *pathsim.Path, mult int, cfg packetsim.Config, method Method,
	st *stageCounters) (agg.PathOutput, error) {

	start := time.Now()
	sc, err := d.Scenario(p)
	if err != nil {
		return agg.PathOutput{}, err
	}
	defer sc.Release()
	start = since(&st.scenario, start)
	var fg *pathsim.FgResult
	switch method {
	case MethodNS3Path:
		fg, err = sc.RunPacketContext(ctx, cfg)
	case MethodFlowSim:
		var fs *pathsim.FlowSimResult
		if fs, err = sc.RunFlowSimContext(ctx); err == nil {
			fg = fs.Fg
		}
	default:
		return agg.PathOutput{}, fmt.Errorf("core: unknown method %v", method)
	}
	since(&st.pathSim, start)
	if err != nil {
		return agg.PathOutput{}, err
	}
	return outputFromSamples(fg.Sizes, fg.Slowdown, mult), nil
}

// outputFromSamples bucketizes raw per-flow slowdowns into a PathOutput.
func outputFromSamples(sizes []unit.ByteSize, sldn []float64, mult int) agg.PathOutput {
	m := feature.BuildOutput(sizes, sldn)
	out := agg.PathOutput{
		Buckets: make([][]float64, feature.NumOutputBuckets),
		Counts:  m.Counts,
		Mult:    mult,
	}
	for b := 0; b < feature.NumOutputBuckets; b++ {
		if m.Counts[b] > 0 {
			out.Buckets[b] = m.Row(b)
		}
	}
	return out
}

// GroundTruth holds full-network packet-level results bucketized the same
// way as estimates, for error computation.
type GroundTruth struct {
	// Result is the full-network packet simulation output. Nil when the
	// ground truth came from the clustered Parsimon decomposition
	// (RunClusteredGroundTruth), which has no single network-wide run.
	Result   *packetsim.Result
	Sizes    []unit.ByteSize
	Slowdown []float64
	Elapsed  time.Duration
	// LinksSimulated/LinksTotal report the clustered decomposition's
	// coverage (zero for the full packet-level path).
	LinksSimulated int
	LinksTotal     int
}

// RunGroundTruth executes the full-network packet simulation (the ns-3
// stand-in) and returns bucketizable results. Cancelling ctx aborts the
// simulation mid-run with ctx.Err().
func RunGroundTruth(ctx context.Context, t *topo.Topology, flows []workload.Flow, cfg packetsim.Config) (*GroundTruth, error) {
	start := time.Now()
	res, err := packetsim.RunContext(ctx, t, flows, cfg)
	if err != nil {
		return nil, err
	}
	gt := &GroundTruth{Result: res, Elapsed: time.Since(start)}
	for i := range flows {
		gt.Sizes = append(gt.Sizes, flows[i].Size)
		gt.Slowdown = append(gt.Slowdown, res.Slowdown[flows[i].ID])
	}
	return gt, nil
}

// RunClusteredGroundTruth produces ground truth from the Parsimon link-level
// decomposition with clustering, on the caller's shared pool. This is the
// scale path: where RunGroundTruth's single packet simulation caps out
// around the 6144-host topology, the clustered decomposition simulates one
// representative per link cluster and stays tractable at O(100k) hosts. The
// exact tier is lossless relative to unclustered Parsimon; the distance tier
// (opts.ClusterThreshold > 0) trades accuracy for fewer simulations, bounded
// in EXPERIMENTS.md.
func RunClusteredGroundTruth(ctx context.Context, t *topo.Topology, flows []workload.Flow,
	cfg packetsim.Config, p *Pool, opts parsimon.Options) (*GroundTruth, error) {

	start := time.Now()
	res, err := parsimon.RunWithOptions(ctx, t, flows, cfg, p, opts)
	if err != nil {
		return nil, err
	}
	gt := &GroundTruth{
		Elapsed:        time.Since(start),
		LinksSimulated: res.LinksSimulated,
		LinksTotal:     res.LinksTotal,
	}
	for i := range flows {
		gt.Sizes = append(gt.Sizes, flows[i].Size)
		gt.Slowdown = append(gt.Slowdown, res.Slowdown[flows[i].ID])
	}
	return gt, nil
}

// P99 returns the overall p99 slowdown of the ground truth.
func (g *GroundTruth) P99() float64 { return stats.P99(g.Slowdown) }

// P99PerBucket returns ground-truth p99 slowdowns per output bucket.
func (g *GroundTruth) P99PerBucket() [feature.NumOutputBuckets]float64 {
	var per [feature.NumOutputBuckets][]float64
	for i, s := range g.Sizes {
		b := feature.BucketOf(s, feature.OutputBucketBounds)
		per[b] = append(per[b], g.Slowdown[i])
	}
	var out [feature.NumOutputBuckets]float64
	for b := range out {
		out[b] = stats.P99(per[b])
	}
	return out
}
