package serve

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"m3/internal/core"
)

// latencyBucketsMS are the upper bounds (milliseconds) of the request
// latency histogram; the last bucket is +inf.
var latencyBucketsMS = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	counts [len(latencyBucketsMS) + 1]atomic.Int64
	sumNs  atomic.Int64
	n      atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := sort.SearchFloat64s(latencyBucketsMS[:], ms)
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.n.Add(1)
}

func (h *histogram) snapshot() map[string]any {
	buckets := make(map[string]int64, len(h.counts))
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		label := "+inf"
		if i < len(latencyBucketsMS) {
			label = formatMS(latencyBucketsMS[i])
		}
		buckets["le_"+label] = c
	}
	n := h.n.Load()
	out := map[string]any{"count": n, "buckets_ms": buckets}
	if n > 0 {
		out["mean_ms"] = float64(h.sumNs.Load()) / float64(n) / float64(time.Millisecond)
	}
	return out
}

func formatMS(v float64) string {
	if v == float64(int64(v)) {
		return itoa(int64(v))
	}
	return itoa(int64(v)) + "." + itoa(int64(v*10)%10)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// routeStats tracks one route's request counters and latencies.
type routeStats struct {
	count   atomic.Int64
	errors  atomic.Int64
	latency histogram
}

// backendStats tracks one inference backend kind's usage: how many ML
// estimates it computed (cache misses only) and their cumulative predict
// stage time.
type backendStats struct {
	estimates atomic.Int64
	predictNs atomic.Int64
}

// Metrics aggregates server-wide counters exposed as expvar-style JSON by
// the /metrics endpoint.
type Metrics struct {
	start time.Time

	mu     sync.Mutex
	routes map[string]*routeStats

	// backendMu guards the per-backend-kind split (keys are Predictor.Kind
	// strings; values are created on first use).
	backendMu sync.Mutex
	backends  map[string]*backendStats

	inflight  atomic.Int64
	estimates atomic.Int64
	reloads   atomic.Int64

	// Fault-tolerance counters: requests shed by admission control,
	// reloads rejected by integrity checks, handler panics recovered, and
	// estimates (and their path counts) that fell back to flowSim.
	shed              atomic.Int64
	reloadRejected    atomic.Int64
	panics            atomic.Int64
	degradedEstimates atomic.Int64
	degradedPaths     atomic.Int64

	// estLatencyNs is an EWMA of computed-estimate wall latency; admission
	// control derives the Retry-After hint from it (drain time is one
	// estimate's latency, so clients back off proportionally to reality).
	estLatencyNs atomic.Int64

	// Cluster counters: estimates executed via scatter-gather, shards peers
	// actually computed, shards that fell back to local compute, registry
	// mutations applied from peers, fire-and-forget peer calls that failed
	// (replication, cache puts, invalidate broadcasts), and model
	// invalidation broadcasts received.
	scatterEstimates      atomic.Int64
	scatterRemoteShards   atomic.Int64
	scatterFallbackShards atomic.Int64
	workloadsSynced       atomic.Int64
	syncErrors            atomic.Int64
	invalidations         atomic.Int64

	// Cumulative per-stage estimator time (ns). The scenario, pathSim,
	// featurize and predict stages are CPU time summed across pool workers;
	// the wall pair is per-estimate elapsed time, and overlapNs how much of
	// the two extents ran concurrently.
	decomposeNs   atomic.Int64
	sampleNs      atomic.Int64
	scenarioNs    atomic.Int64
	pathSimNs     atomic.Int64
	featurizeNs   atomic.Int64
	predictNs     atomic.Int64
	aggregateNs   atomic.Int64
	pathSimWallNs atomic.Int64
	predictWallNs atomic.Int64
	overlapNs     atomic.Int64
}

func newMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		routes:   make(map[string]*routeStats),
		backends: make(map[string]*backendStats),
	}
}

func (m *Metrics) route(name string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[name]
	if !ok {
		rs = &routeStats{}
		m.routes[name] = rs
	}
	return rs
}

// recordBackend accumulates one ML estimate under its backend kind.
func (m *Metrics) recordBackend(kind string, predict time.Duration) {
	m.backendMu.Lock()
	bs, ok := m.backends[kind]
	if !ok {
		bs = &backendStats{}
		m.backends[kind] = bs
	}
	m.backendMu.Unlock()
	bs.estimates.Add(1)
	bs.predictNs.Add(int64(predict))
}

// recordStages accumulates an estimate's per-stage cost.
func (m *Metrics) recordStages(st core.StageTimings) {
	m.estimates.Add(1)
	m.decomposeNs.Add(int64(st.Decompose))
	m.sampleNs.Add(int64(st.Sample))
	m.scenarioNs.Add(int64(st.ScenarioBuild))
	m.pathSimNs.Add(int64(st.PathSim))
	m.featurizeNs.Add(int64(st.Featurize))
	m.predictNs.Add(int64(st.Predict))
	m.aggregateNs.Add(int64(st.Aggregate))
	m.pathSimWallNs.Add(int64(st.PathSimWall))
	m.predictWallNs.Add(int64(st.PredictWall))
	m.overlapNs.Add(int64(st.Overlap))
}

// observeEstimateLatency folds one computed estimate's wall latency into
// the EWMA (weight 1/4 — responsive to load shifts, stable against one
// outlier). Lock-free CAS loop; a lost race just means the other sample won.
func (m *Metrics) observeEstimateLatency(d time.Duration) {
	for {
		old := m.estLatencyNs.Load()
		nw := int64(d)
		if old != 0 {
			nw = old + (int64(d)-old)/4
		}
		if m.estLatencyNs.CompareAndSwap(old, nw) {
			return
		}
	}
}

// retryAfterSeconds converts the latency EWMA into the Retry-After hint:
// ceil to whole seconds (the header's unit), clamped to [1, 30]. Before the
// first computed estimate it answers the floor.
func (m *Metrics) retryAfterSeconds() int {
	ns := m.estLatencyNs.Load()
	secs := int((ns + int64(time.Second) - 1) / int64(time.Second))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// snapshot renders all counters for the /metrics endpoint. defBackend and
// kinds describe the serving backend set; clusterInfo is the fleet section
// (nil when standalone).
func (m *Metrics) snapshot(cacheStats core.CacheStats, modelParams int, modelFP uint64,
	defBackend string, kinds []string, clusterInfo map[string]any) map[string]any {
	m.mu.Lock()
	routes := make(map[string]any, len(m.routes))
	for name, rs := range m.routes {
		routes[name] = map[string]any{
			"count":   rs.count.Load(),
			"errors":  rs.errors.Load(),
			"latency": rs.latency.snapshot(),
		}
	}
	m.mu.Unlock()

	m.backendMu.Lock()
	backends := make(map[string]any, len(m.backends))
	for kind, bs := range m.backends {
		backends[kind] = map[string]any{
			"estimates":  bs.estimates.Load(),
			"predict_ms": float64(bs.predictNs.Load()) / float64(time.Millisecond),
		}
	}
	m.backendMu.Unlock()

	ms := func(ns *atomic.Int64) float64 { return float64(ns.Load()) / float64(time.Millisecond) }
	hitRate := 0.0
	if total := cacheStats.Hits + cacheStats.Misses; total > 0 {
		hitRate = float64(cacheStats.Hits) / float64(total)
	}
	out := map[string]any{
		"uptime_seconds": time.Since(m.start).Seconds(),
		"inflight":       m.inflight.Load(),
		"shed":           m.shed.Load(),
		"retry_after_s":  m.retryAfterSeconds(),
		"panics":         m.panics.Load(),
		"degraded": map[string]any{
			"estimates": m.degradedEstimates.Load(),
			"paths":     m.degradedPaths.Load(),
		},
		"requests": routes,
		"cache": map[string]any{
			"hits":          cacheStats.Hits,
			"misses":        cacheStats.Misses,
			"entries":       cacheStats.Entries,
			"hit_rate":      hitRate,
			"peer_hits":     cacheStats.PeerHits,
			"peer_misses":   cacheStats.PeerMisses,
			"owned_entries": cacheStats.OwnedEntries,
		},
		"estimates": m.estimates.Load(),
		"stages_ms": map[string]any{
			"decompose":    ms(&m.decomposeNs),
			"sample":       ms(&m.sampleNs),
			"scenario":     ms(&m.scenarioNs),
			"pathsim":      ms(&m.pathSimNs),
			"featurize":    ms(&m.featurizeNs),
			"predict":      ms(&m.predictNs),
			"aggregate":    ms(&m.aggregateNs),
			"pathsim_wall": ms(&m.pathSimWallNs),
			"predict_wall": ms(&m.predictWallNs),
			"overlap":      ms(&m.overlapNs),
		},
		"overlap_ratio": overlapRatio(m.pathSimWallNs.Load(), m.predictWallNs.Load(), m.overlapNs.Load()),
		"model": map[string]any{
			"params":           modelParams,
			"fingerprint":      fingerprintString(modelFP),
			"backend":          defBackend,
			"backends_loaded":  kinds,
			"reloads":          m.reloads.Load(),
			"reloads_rejected": m.reloadRejected.Load(),
		},
		"backends": backends,
	}
	if clusterInfo != nil {
		clusterInfo["scatter"] = map[string]any{
			"estimates":       m.scatterEstimates.Load(),
			"remote_shards":   m.scatterRemoteShards.Load(),
			"fallback_shards": m.scatterFallbackShards.Load(),
		}
		clusterInfo["workloads_synced"] = m.workloadsSynced.Load()
		clusterInfo["sync_errors"] = m.syncErrors.Load()
		clusterInfo["invalidations"] = m.invalidations.Load()
		out["cluster"] = clusterInfo
	}
	return out
}

// overlapRatio mirrors core.Estimate.OverlapRatio over the cumulative
// counters: the fraction of the shorter stage extent that ran concurrently
// with the other stage, clamped to [0, 1]; 0 when either stage never ran.
func overlapRatio(pathSimWall, predictWall, overlap int64) float64 {
	shorter := pathSimWall
	if predictWall < shorter {
		shorter = predictWall
	}
	if shorter <= 0 || overlap <= 0 {
		return 0
	}
	r := float64(overlap) / float64(shorter)
	if r > 1 {
		r = 1
	}
	return r
}

func fingerprintString(fp uint64) string {
	const hex = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hex[fp&0xf]
		fp >>= 4
	}
	return string(buf[:])
}

// instrument wraps a handler with per-route counters, the in-flight gauge,
// the latency histogram, and last-resort panic containment: a handler that
// panics answers 500 (when no bytes have been written yet) and the server
// keeps serving — one poisoned request must never take the process down.
func (m *Metrics) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	rs := m.route(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				m.panics.Add(1)
				if !sw.wrote {
					sw.status = http.StatusInternalServerError
					http.Error(sw.ResponseWriter, "internal error", http.StatusInternalServerError)
				}
			}
			m.inflight.Add(-1)
			rs.count.Add(1)
			if sw.status >= 400 {
				rs.errors.Add(1)
			}
			rs.latency.observe(time.Since(start))
		}()
		h(sw, r)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}
