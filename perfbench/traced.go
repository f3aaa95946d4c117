package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"m3/internal/cluster"
	"m3/internal/core"
	"m3/internal/model"
	"m3/internal/pathsim"
)

// httpObs is what one traced request's real HTTP answer says about the
// program: the counters it already returns.
type httpObs struct {
	lat       time.Duration
	bodyBytes int
	ests      []estimateReply
	cached    int
	answers   int
}

// runTraced measures def's per-layer metrics. It sets the server up once,
// then, until the window ends, sends each request over HTTP (reading the
// counters the answer carries) and replays it through the layers twice,
// traced and untraced, alternating which goes first; the replayed answer
// must equal the served one bit for bit.
func runTraced(ctx context.Context, net *model.Net, def *workloadDef, seed uint64,
	window time.Duration, outDir string) (*runResult, error) {

	h, hash, err := setUp(net, def, seed)
	if err != nil {
		return nil, err
	}
	defer h.close()

	rec := newRecorder()
	// Set-up layers, replayed setupReps times as requests -1, -2, ...
	var lw *localWorkload
	for rep := 0; rep < setupReps; rep++ {
		req := -1 - rep
		sp := rec.begin("workload.generate", req, -1)
		ft, flows, err := generateWorkload(seed)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.begin("pathsim.decompose", req, -1)
		d, err := pathsim.Decompose(ft.Topology, flows)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		lw = &localWorkload{ft: ft, flows: flows, d: d, hash: core.HashWorkload(ft.Topology, flows)}
	}
	if err := lw.checkHash(hash); err != nil {
		return nil, err
	}

	q8, err := model.BuildBackend(model.KindNetInt8, net)
	if err != nil {
		return nil, err
	}
	rp := &replayer{def: def, net: net, q8: q8, lw: lw, stats: map[int]*reqStats{}}
	if def.Keys > 0 {
		// The replay's own cache, primed with the same keys the server was.
		rp.cache = core.NewEstimateCache(0)
		pool := core.NewPool(2)
		fp := net.Fingerprint()
		for _, r := range def.priming(seed) {
			ests, err := directEstimate(ctx, net, pool, lw, def, r)
			if err != nil {
				pool.Close()
				return nil, err
			}
			if _, _, err := rp.cache.Do(ctx, rp.warmKey(r.seed, fp), func() (*core.Estimate, error) {
				return ests[0], nil
			}); err != nil {
				pool.Close()
				return nil, err
			}
		}
		pool.Close()
	}
	if def.Replicas > 1 {
		rp.fleet = h.servers[0].Fleet()
		rp.peer = cluster.NewClient(h.addrs[1], 0)
		rp.shardPool = core.NewPool(def.Workers)
		defer rp.shardPool.Close()
	}

	m0, err := h.metricsSnapshot()
	if err != nil {
		return nil, err
	}
	var (
		obs               []httpObs
		tracedNs, plainNs []float64
		attempted, wrong  int
		firstErr          string
	)
	deadline := time.Now().Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		attempted++
		r := def.next(seed, i%def.Clients, i/def.Clients)
		a, rep, err := h.send(def, r)
		if err == nil {
			err = checkAnswer(def, r, a, def.Keys > 0)
		}
		var ests []*core.Estimate
		if err == nil {
			o := httpObs{lat: rep.lat, bodyBytes: len(rep.body), ests: a.ests, answers: len(a.ests)}
			if a.quantiles != nil {
				o.answers = 1
				if a.quantiles.Cached {
					o.cached = 1
				}
			}
			for _, e := range a.ests {
				if e.Cached {
					o.cached++
				}
			}
			obs = append(obs, o)

			for k := 0; k < 2 && err == nil; k++ {
				traced := (i+k)%2 == 0
				var rc *recorder
				if traced {
					rc = rec
				}
				start := time.Now()
				var got []*core.Estimate
				got, err = rp.replay(ctx, rc, i, r)
				el := float64(time.Since(start))
				if traced {
					tracedNs = append(tracedNs, el)
					ests = got
				} else {
					plainNs = append(plainNs, el)
				}
			}
		}
		if err == nil {
			err = rp.shadow(ctx, rec, i)
		}
		if err == nil {
			err = matchEstimates(def, a, ests)
		}
		if err != nil {
			wrong++
			if firstErr == "" {
				firstErr = err.Error()
			}
		}
	}
	m1, err := h.metricsSnapshot()
	if err != nil {
		return nil, err
	}

	res := &runResult{
		Correct:   wrong == 0,
		Attempted: attempted,
		Failed:    wrong,
		Metrics:   layerMetrics(def, rec, rp, obs, m0, m1, tracedNs, plainNs),
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("perfbench: traced run completed no request")
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", def.Name, seed))
	if err := rec.writeJSONL(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%d spans over %d traced requests written to %s", len(rec.spans), len(tracedNs), path),
		fmt.Sprintf("tracing overhead %.3g%% (traced replay median %.4g ms, untraced %.4g ms)",
			res.Metrics["trace.overhead_pct"].Value, median(tracedNs)/1e6, median(plainNs)/1e6))
	if firstErr != "" {
		res.notes = append(res.notes, "first failure: "+firstErr)
	}
	return res, nil
}

// layerMetrics reduces the spans and HTTP observations to the per-layer
// metrics: per request (median over requests) unless named per call.
func layerMetrics(def *workloadDef, rec *recorder, rp *replayer, obs []httpObs,
	m0, m1 serverMetrics, tracedNs, plainNs []float64) map[string]metric {

	self := selfTimes(rec.spans)
	byReq := totalsByRequest(rec.spans, self)
	var setups, reqs []*layerTotals
	var reqIDs []int
	for id, t := range byReq {
		if id < 0 {
			setups = append(setups, t)
		} else {
			reqs = append(reqs, t)
			reqIDs = append(reqIDs, id)
		}
	}
	perReq := func(f func(t *layerTotals, st *reqStats) (float64, bool)) float64 {
		var xs []float64
		for i, t := range reqs {
			st := rp.stats[reqIDs[i]]
			if st == nil {
				st = &reqStats{}
			}
			if v, ok := f(t, st); ok {
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	ms := func(name string) float64 {
		return perReq(func(t *layerTotals, _ *reqStats) (float64, bool) {
			return float64(t.selfNs[name]) / 1e6, true
		})
	}
	perCall := func(name string, scale float64) float64 {
		return perReq(func(t *layerTotals, _ *reqStats) (float64, bool) {
			c := t.calls[name]
			return float64(t.selfNs[name]) / float64(c) / scale, c > 0
		})
	}
	perUnit := func(name string) float64 { // µs per counted unit of work
		return perReq(func(t *layerTotals, _ *reqStats) (float64, bool) {
			n := t.n[name]
			return float64(t.selfNs[name]) / 1e3 / float64(n), n > 0
		})
	}
	setupMS := func(name string) float64 {
		var xs []float64
		for _, t := range setups {
			xs = append(xs, float64(t.selfNs[name])/1e6)
		}
		return median(xs)
	}

	out := map[string]metric{
		"workload.generate_ms": {setupMS("workload.generate"), "ms"},
		"pathsim.decompose_ms": {setupMS("pathsim.decompose"), "ms"},
		"pathsim.scenario_ms":  {ms("pathsim.scenario"), "ms"},
		"pathsim.scenario_alloc_mb": {perReq(func(t *layerTotals, _ *reqStats) (float64, bool) {
			return float64(t.bytes["pathsim.scenario"]) / 1e6, true
		}), "MB"},
		"pathsim.scenario_flows": {perReq(func(t *layerTotals, _ *reqStats) (float64, bool) {
			return float64(t.n["pathsim.scenario"]), true
		}), "count"},
		"sampling.ms": {ms("sampling"), "ms"},
		"sampling.distinct_ratio": {perReq(func(_ *layerTotals, st *reqStats) (float64, bool) {
			return float64(st.distinct) / float64(st.drawn), st.drawn > 0
		}), "ratio"},
		"flowsim.ms":          {ms("flowsim"), "ms"},
		"flowsim.us_per_flow": {perUnit("flowsim"), "us"},
		"flowsim.repeat_ratio": {perReq(func(t *layerTotals, st *reqStats) (float64, bool) {
			c := t.calls["flowsim"]
			return float64(st.repeats) / float64(c), c > 0
		}), "ratio"},
		"model.build_inputs_ms": {ms("model.build_inputs"), "ms"},
		"model.predict_ms":      {ms("model.predict"), "ms"},
		"model.batches": {perReq(func(t *layerTotals, _ *reqStats) (float64, bool) {
			return float64(t.calls["model.predict"]), true
		}), "count"},
		"model.predict_us_per_sample":      {perUnit("model.predict"), "us"},
		"model.predict_us_per_sample.int8": {perUnit("model.predict.int8"), "us"},
		"model.fingerprint_ms":             {perCall("model.fingerprint", 1e6), "ms"},
		"agg.aggregate_ms":                 {ms("agg.aggregate"), "ms"},
		"agg.quantile_us":                  {perCall("agg.quantile", 1e3), "us"},
		"cluster.rpc_ms":                   {ms("cluster.rpc"), "ms"},
		"cluster.shard_local_ms":           {ms("cluster.shard_local_ref"), "ms"},
		"cluster.rpc_overhead_ms": {perReq(func(t *layerTotals, _ *reqStats) (float64, bool) {
			return float64(t.selfNs["cluster.rpc"]-t.selfNs["cluster.shard_local_ref"]) / 1e6, t.calls["cluster.rpc"] > 0
		}), "ms"},
		"cluster.wire_kb": {perReq(func(_ *layerTotals, st *reqStats) (float64, bool) {
			return float64(st.wireBytes) / 1e3, true
		}), "kB"},
		"replay.request_ms": {median(tracedNs) / 1e6, "ms"},
		"replay.glue_ms":    {ms("request") + ms("estimate"), "ms"},
		"trace.spans": {perReq(func(t *layerTotals, _ *reqStats) (float64, bool) {
			var n int64
			for _, c := range t.calls {
				n += c
			}
			return float64(n), true
		}), "count"},
		"trace.overhead_pct": {0, "%"},
	}
	if p := median(plainNs); p > 0 {
		out["trace.overhead_pct"] = metric{100 * (median(tracedNs) - p) / p, "%"}
	}

	// Counters the program returns.
	var (
		pathsimCPU, predictCPU, pathsimWall, predictWall, overlap, busy, degraded []float64
		overheadMS, respKB                                                        []float64
		cached, answers                                                           int
	)
	for _, o := range obs {
		computeMS := 0.0
		for _, e := range o.ests {
			if e.Cached {
				continue // a cached answer repeats the filling request's counters
			}
			s := e.StagesMS
			computeMS += e.ElapsedMS
			pathsimCPU = append(pathsimCPU, s["pathsim"])
			predictCPU = append(predictCPU, s["predict"])
			pathsimWall = append(pathsimWall, s["pathsim_wall"])
			predictWall = append(predictWall, s["predict_wall"])
			overlap = append(overlap, e.OverlapRatio)
			if e.ElapsedMS > 0 {
				busy = append(busy, (s["pathsim"]+s["predict"])/(e.ElapsedMS*float64(def.Workers*def.Replicas)))
			}
			degraded = append(degraded, float64(e.DegradedPaths))
		}
		overheadMS = append(overheadMS, float64(o.lat)/1e6-computeMS)
		respKB = append(respKB, float64(o.bodyBytes)/1e3)
		cached += o.cached
		answers += o.answers
	}
	hit := 0.0
	if answers > 0 {
		hit = float64(cached) / float64(answers)
	}
	perHTTP := func(d int64) float64 {
		if len(obs) == 0 {
			return 0
		}
		return float64(d) / float64(len(obs))
	}
	var remote, fallback int64
	if m0.Cluster != nil && m1.Cluster != nil {
		remote = m1.Cluster.Scatter.RemoteShards - m0.Cluster.Scatter.RemoteShards
		fallback = m1.Cluster.Scatter.FallbackShards - m0.Cluster.Scatter.FallbackShards
	}
	for k, v := range map[string]metric{
		"core.pathsim_cpu_ms":     {median(pathsimCPU), "ms"},
		"core.predict_cpu_ms":     {median(predictCPU), "ms"},
		"core.pathsim_wall_ms":    {median(pathsimWall), "ms"},
		"core.predict_wall_ms":    {median(predictWall), "ms"},
		"core.overlap_ratio":      {median(overlap), "ratio"},
		"core.pool_busy_ratio":    {median(busy), "ratio"},
		"core.degraded_paths":     {median(degraded), "count"},
		"cache.hit_ratio":         {hit, "ratio"},
		"serve.overhead_ms":       {median(overheadMS), "ms"},
		"serve.response_kb":       {median(respKB), "kB"},
		"serve.shed":              {float64(m1.Shed - m0.Shed), "count"},
		"cluster.remote_shards":   {perHTTP(remote), "count"},
		"cluster.fallback_shards": {perHTTP(fallback), "count"},
		"cluster.peer_retries":    {float64(m1.peerRetries() - m0.peerRetries()), "count"},
	} {
		out[k] = v
	}
	return out
}
