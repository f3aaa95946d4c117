package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"m3/internal/agg"
	"m3/internal/cluster"
	"m3/internal/core"
	"m3/internal/feature"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/rng"
	"m3/internal/sampling"
)

// replayer re-runs a workload's requests by calling the layers' public
// functions in pipeline order, one call at a time, with a span around each
// call. The pipeline is the one core.Estimator runs (sample → scenario →
// flowSim → BuildInputs → predict → aggregate), so a replayed estimate
// equals the served one bit for bit, which the traced run checks. With a
// nil recorder the same code runs untraced.
type replayer struct {
	def *workloadDef
	net *model.Net
	q8  model.Predictor
	lw  *localWorkload
	// cache holds the primed warm keys (warm-queries only).
	cache *core.EstimateCache
	// fleet, peer and shardPool serve the scatter replay: the coordinator's
	// partition, a client for the other replica, and a one-worker pool
	// matching a replica's, for running the remote shard in process.
	fleet     *cluster.Fleet
	peer      *cluster.Client
	shardPool *core.Pool

	// stats holds the per-request counts spans do not carry.
	stats map[int]*reqStats
}

// reqStats are one traced request's work counts.
type reqStats struct {
	drawn, distinct int
	repeats         int
	wireBytes       int
	// batches and remote keep the request's predict batches and peer
	// shards for the shadow run.
	batches [][]*model.Sample
	remote  []*cluster.PathsRequest
}

func (rp *replayer) statsFor(rec *recorder, req int) *reqStats {
	if rec == nil {
		return &reqStats{}
	}
	st := rp.stats[req]
	if st == nil {
		st = &reqStats{}
		rp.stats[req] = st
	}
	return st
}

// replay runs request r under span "request" and returns the estimates its
// answer is built from.
func (rp *replayer) replay(ctx context.Context, rec *recorder, req int, r request) ([]*core.Estimate, error) {
	root := rec.begin("request", req, -1)
	defer rec.end(root)
	switch {
	case rp.cache != nil:
		return rp.replayWarm(ctx, rec, req, root, r)
	case rp.fleet != nil:
		return rp.replayScatter(ctx, rec, req, root, r)
	}
	cfgs, err := rp.def.configs(r)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	var out []*core.Estimate
	for _, cfg := range cfgs {
		parent := root
		if len(cfgs) > 1 {
			parent = rec.begin("estimate", req, root)
		}
		est, err := rp.replayEstimate(ctx, rec, req, parent, r.seed, cfg, seen)
		if parent != root {
			rec.end(parent)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, est)
	}
	return out, nil
}

// fingerprint is the per-request model identity the server keys its cache
// with.
func (rp *replayer) fingerprint(rec *recorder, req, parent int) uint64 {
	sp := rec.begin("model.fingerprint", req, parent)
	fp := rp.net.Fingerprint()
	rec.end(sp)
	return fp
}

// sample draws and deduplicates the weighted path sample.
func (rp *replayer) sample(rec *recorder, req, parent int, seed uint64) ([]int, []int, error) {
	sp := rec.begin("sampling", req, parent)
	drawn, err := sampling.Weighted(rp.lw.d.FgWeights(), rp.def.NumPaths, rng.New(seed))
	if err != nil {
		return nil, nil, err
	}
	distinct, mult := sampling.Dedup(drawn)
	rec.end(sp)
	st := rp.statsFor(rec, req)
	st.drawn += len(drawn)
	st.distinct += len(distinct)
	return distinct, mult, nil
}

// replayEstimate is one estimate: fingerprint, sample, per-path work,
// aggregate, and the quantiles its answer prints.
func (rp *replayer) replayEstimate(ctx context.Context, rec *recorder, req, parent int,
	seed uint64, cfg packetsim.Config, seen map[int]bool) (*core.Estimate, error) {

	rp.fingerprint(rec, req, parent)
	distinct, mult, err := rp.sample(rec, req, parent, seed)
	if err != nil {
		return nil, err
	}
	outs, err := rp.replayShard(ctx, rec, req, parent, distinct, mult, cfg, seen)
	if err != nil {
		return nil, err
	}
	return rp.aggregate(rec, req, parent, outs)
}

// aggregate combines per-path outputs and computes the answer's p99s.
func (rp *replayer) aggregate(rec *recorder, req, parent int, outs []agg.PathOutput) (*core.Estimate, error) {
	sp := rec.begin("agg.aggregate", req, parent)
	a, err := agg.Aggregate(outs)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	est := &core.Estimate{Agg: a}
	sp = rec.begin("agg.bucket_quantile", req, parent)
	est.P99PerBucket()
	rec.end(sp)
	sp = rec.begin("agg.quantile", req, parent)
	est.P99()
	rec.end(sp)
	return est, nil
}

// replayShard runs the per-path layers for the given sampled paths in
// order: scenario build, flowSim, BuildInputs, and a PredictBatch each
// time a micro-batch fills. seen marks paths whose flowSim input already
// ran in this request.
func (rp *replayer) replayShard(ctx context.Context, rec *recorder, req, parent int,
	distinct, mult []int, cfg packetsim.Config, seen map[int]bool) ([]agg.PathOutput, error) {

	st := rp.statsFor(rec, req)
	d := rp.lw.d
	outs := make([]agg.PathOutput, len(distinct))
	batch := make([]*model.Sample, 0, core.DefaultBatchSize)
	idx := make([]int, 0, core.DefaultBatchSize)
	flush := func() error {
		sp := rec.begin("model.predict", req, parent)
		preds, err := rp.net.PredictBatch(ctx, batch)
		rec.count(sp, int64(len(batch)), 0)
		rec.end(sp)
		if err != nil {
			return err
		}
		for k, pred := range preds {
			if !finite(pred) {
				return fmt.Errorf("perfbench: non-finite prediction for path %d", distinct[idx[k]])
			}
			out := &outs[idx[k]]
			out.Buckets = make([][]float64, feature.NumOutputBuckets)
			for b := range out.Buckets {
				if out.Counts[b] > 0 {
					out.Buckets[b] = pred[b*feature.NumPercentiles : (b+1)*feature.NumPercentiles]
				}
			}
		}
		if rec != nil {
			st.batches = append(st.batches, batch)
		}
		batch = make([]*model.Sample, 0, core.DefaultBatchSize)
		idx = idx[:0]
		return nil
	}
	for i, pi := range distinct {
		p := &d.Paths[pi]
		sp := rec.begin("pathsim.scenario", req, parent)
		var a0 int64
		if rec != nil {
			a0 = allocBytes()
		}
		sc, err := d.Scenario(p)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.count(sp, int64(len(sc.Flows)), allocBytes()-a0)
		}
		rec.end(sp)

		sp = rec.begin("flowsim", req, parent)
		fs, err := sc.RunFlowSimContext(ctx)
		rec.count(sp, int64(len(sc.Flows)), 0)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		if seen[pi] {
			st.repeats++
		}
		seen[pi] = true

		sp = rec.begin("model.build_inputs", req, parent)
		s := model.BuildInputs(fs.Fg.Sizes, fs.Fg.Slowdown, fs.BgSizes, fs.BgSldn, cfg,
			d.T.RouteRates(p.Links), d.T.RouteDelays(p.Links))
		outs[i] = agg.PathOutput{
			Counts: feature.BucketCounts(fs.Fg.Sizes, feature.OutputBucketBounds),
			Mult:   mult[i],
		}
		rec.end(sp)

		batch = append(batch, s)
		idx = append(idx, i)
		if len(batch) == core.DefaultBatchSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if len(batch) > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// replayWarm is one cache hit: fingerprint, cache lookup, and the
// quantiles the answer prints. Nothing is computed on a miss: every key
// was primed.
func (rp *replayer) replayWarm(ctx context.Context, rec *recorder, req, parent int, r request) ([]*core.Estimate, error) {
	fp := rp.fingerprint(rec, req, parent)
	sp := rec.begin("cache.lookup", req, parent)
	est, cached, err := rp.cache.Do(ctx, rp.warmKey(r.seed, fp), func() (*core.Estimate, error) {
		return nil, fmt.Errorf("perfbench: warm key %d was not primed", r.key)
	})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if !cached {
		return nil, fmt.Errorf("perfbench: warm key %d missed the cache", r.key)
	}
	if r.kind != reqQuantiles {
		sp = rec.begin("agg.bucket_quantile", req, parent)
		est.P99PerBucket()
		rec.end(sp)
		sp = rec.begin("agg.quantile", req, parent)
		est.P99()
		rec.end(sp)
		return []*core.Estimate{est}, nil
	}
	qs, _, err := parseQuantiles(rp.def.Quantiles)
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		sp = rec.begin("agg.bucket_quantile", req, parent)
		for b := 0; b < feature.NumOutputBuckets; b++ {
			est.Agg.BucketQuantile(b, q)
		}
		rec.end(sp)
		sp = rec.begin("agg.quantile", req, parent)
		est.Agg.CombinedQuantile(q)
		rec.end(sp)
	}
	return []*core.Estimate{est}, nil
}

// warmKey is the cache key the server files a warm request under.
func (rp *replayer) warmKey(seed, fp uint64) core.EstimateKey {
	return core.EstimateKey{
		Workload: rp.lw.hash, Cfg: packetsim.DefaultConfig(), Method: core.MethodML,
		NumPaths: rp.def.NumPaths, Seed: seed, Model: fp, Backend: model.KindNet,
	}
}

// replayScatter is one scattered estimate: the coordinator's own shard
// through the per-path layers, the other shard through the peer's
// /internal/v1/paths, then the merge.
func (rp *replayer) replayScatter(ctx context.Context, rec *recorder, req, parent int, r request) ([]*core.Estimate, error) {
	cfg := packetsim.DefaultConfig()
	fp := rp.fingerprint(rec, req, parent)
	distinct, mult, err := rp.sample(rec, req, parent, r.seed)
	if err != nil {
		return nil, err
	}
	st := rp.statsFor(rec, req)
	outs := make([]agg.PathOutput, len(distinct))
	for _, sh := range rp.fleet.Partition(len(distinct)) {
		if sh.Member == rp.fleet.Self() {
			sp := rec.begin("cluster.shard_local", req, parent)
			part, err := rp.replayShard(ctx, rec, req, sp, distinct[sh.Lo:sh.Hi], mult[sh.Lo:sh.Hi], cfg, map[int]bool{})
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			copy(outs[sh.Lo:], part)
			continue
		}
		preq := &cluster.PathsRequest{
			Workload: workloadName, Hash: uint64(rp.lw.hash), Method: core.MethodML.String(),
			ModelFP: fp, Backend: model.KindNet, Cfg: cfg,
			Indices: distinct[sh.Lo:sh.Hi], Mults: mult[sh.Lo:sh.Hi],
		}
		sp := rec.begin("cluster.rpc", req, parent)
		resp, err := rp.peer.Paths(ctx, preq)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		copy(outs[sh.Lo:], resp.Outs)
		if rec != nil {
			reqJSON, _ := json.Marshal(preq)
			respJSON, _ := json.Marshal(resp)
			st.wireBytes += len(reqJSON) + len(respJSON)
			st.remote = append(st.remote, preq)
		}
	}
	est, err := rp.aggregate(rec, req, parent, outs)
	if err != nil {
		return nil, err
	}
	return []*core.Estimate{est}, nil
}

// shadow re-runs request req's work outside its root span, so it adds
// nothing to the request: its predict batches on the net-int8 backend, and
// each shard it sent to the peer through RunShard in process (the
// reference cluster.rpc_ms is compared with).
func (rp *replayer) shadow(ctx context.Context, rec *recorder, req int) error {
	st := rp.stats[req]
	if st == nil {
		return nil
	}
	for _, b := range st.batches {
		sp := rec.begin("model.predict.int8", req, -1)
		_, err := rp.q8.PredictBatch(ctx, b)
		rec.count(sp, int64(len(b)), 0)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	for _, preq := range st.remote {
		est := core.NewEstimator(rp.net, core.WithMethod(core.MethodML), core.WithPool(rp.shardPool),
			core.WithDecomposition(rp.lw.d), core.WithFlowSimFallback(true))
		sp := rec.begin("cluster.shard_local_ref", req, -1)
		_, err := est.RunShard(ctx, rp.lw.d, preq.Indices, preq.Mults, preq.Cfg)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	st.batches, st.remote = nil, nil
	return nil
}

func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
