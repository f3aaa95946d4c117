// Package serve exposes the m3 estimator as a concurrent HTTP service: a
// registry of named workloads, estimation under any of the three per-path
// backends, quantile queries, and configuration what-if sweeps. All requests
// share one bounded worker pool (so concurrent estimates divide the cores
// instead of oversubscribing them), one estimate LRU with single-flight
// semantics, and one hot-swappable model checkpoint.
//
// Endpoints:
//
//	GET  /healthz                readiness probe
//	GET  /metrics                expvar-style JSON counters
//	POST /v1/workloads           register a workload (spec or inline trace)
//	GET  /v1/workloads           list registered workloads
//	GET  /v1/workloads/{name}    one workload's summary
//	DELETE /v1/workloads/{name}  unregister
//	POST /v1/estimate            run (or fetch from cache) an estimate
//	GET  /v1/quantiles           slowdown quantiles for a workload
//	POST /v1/whatif              estimate a batch of config counterfactuals
//	POST /v1/reload              hot-reload the model checkpoint
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"m3/internal/cluster"
	"m3/internal/core"
	"m3/internal/faultinject"
	"m3/internal/feature"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/validate"
)

// Request-shape bounds: anything beyond these is a malformed request, not a
// bigger job.
const (
	// maxBodyBytes caps request bodies (trace uploads dominate).
	maxBodyBytes = 64 << 20
	// maxNumPaths bounds one estimate's sampled-path budget.
	maxNumPaths = 100_000
	// maxSweeps bounds one what-if batch.
	maxSweeps = 64
	// maxWorkloadName bounds registry entry names.
	maxWorkloadName = 128
	// DefaultEstimateTimeout bounds one estimate's wall clock when
	// Options.EstimateTimeout is zero.
	DefaultEstimateTimeout = 2 * time.Minute
)

// Options configures a Server.
type Options struct {
	// Net is the model serving MethodML estimates (required). Its float
	// weights seed every registered backend kind (net, net-int8, ...);
	// requests pick among them with the "backend" field.
	Net *model.Net
	// CheckpointPath, when set, is where POST /v1/reload (and SIGHUP in
	// cmd/m3serve) re-reads the model from.
	CheckpointPath string
	// Workers sizes the shared path-simulation pool (0 = GOMAXPROCS).
	Workers int
	// CacheSize bounds the estimate LRU (0 = 64).
	CacheSize int
	// BatchSize is the ML inference micro-batch size (0 = core default).
	BatchSize int
	// PredictParallelism bounds the intra-batch GEMM sharding inside each
	// PredictBatch call (0 or 1 = serial). Sharding splits output rows
	// across that many goroutines with per-row accumulation order
	// unchanged, so outputs stay bit-identical at every setting. Applied
	// to every backend kind and re-applied across reloads.
	PredictParallelism int
	// MaxInflight bounds concurrently admitted estimation requests
	// (estimate, quantiles, whatif); excess requests are shed immediately
	// with 429 + Retry-After instead of queueing until they time out.
	// 0 = 4× the pool's worker count; negative = unlimited.
	MaxInflight int
	// EstimateTimeout bounds one estimate's wall clock
	// (0 = DefaultEstimateTimeout).
	EstimateTimeout time.Duration

	// Advertise is this replica's address as peers dial it (host:port).
	// Setting it together with Peers runs the server as one replica of an
	// N-member fleet: the workload registry replicates on create/delete,
	// the estimate cache grows a peer tier partitioned by rendezvous hash,
	// and (with Scatter) big estimates fan their per-path work out across
	// the live members. Empty = standalone, exactly the pre-cluster server.
	Advertise string
	// Peers lists the other replicas' advertised addresses.
	Peers []string
	// PeerTimeout bounds each internal peer call (0 = cluster default).
	PeerTimeout time.Duration
	// PeerRetries bounds retries per peer call (0 = cluster default,
	// negative = no retries).
	PeerRetries int
	// RetryBudget is the per-peer retry token-bucket capacity (0 = cluster
	// default, negative = unlimited).
	RetryBudget int
	// ProbeInterval is the active health prober's cadence (0 = cluster
	// default, negative = prober disabled).
	ProbeInterval time.Duration
	// Scatter enables scatter-gather execution of estimates across the
	// fleet. Off, replicas still share the registry and the two-tier
	// cache but each computes its own estimates whole.
	Scatter bool
}

// servedModel is one servable backend: the predictor and its fingerprint,
// computed once when the backend set is built. Fingerprinting hashes every
// weight, so no request path recomputes it; a served predictor is never
// mutated in place — a new checkpoint arrives as a new backend set.
type servedModel struct {
	pred model.Predictor
	fp   uint64
}

// backendSet is one checkpoint's worth of inference backends: every
// registered kind built from the same float weights, plus the kind served
// when a request names none. Swapped atomically as a unit so one estimate
// never mixes weight generations across backends, and never pairs a
// predictor with another generation's fingerprint.
type backendSet struct {
	// def is the kind served when a request's "backend" field is empty —
	// the kind of the loaded artifact.
	def string
	// byKind holds one ready backend per registered kind.
	byKind map[string]servedModel
}

// resolve maps a request's backend name ("" = default) to its backend.
// Unknown names return *model.UnknownBackendError.
func (bs *backendSet) resolve(kind string) (servedModel, error) {
	if kind == "" {
		kind = bs.def
	}
	sm, ok := bs.byKind[kind]
	if !ok {
		return servedModel{}, &model.UnknownBackendError{Kind: kind}
	}
	return sm, nil
}

// fingerprints lists every backend's fingerprint in the set — the "keep"
// list for model-swap cache invalidation (one checkpoint yields one
// fingerprint per kind).
func (bs *backendSet) fingerprints() []uint64 {
	fps := make([]uint64, 0, len(bs.byKind))
	for _, sm := range bs.byKind {
		fps = append(fps, sm.fp)
	}
	return fps
}

// Server is the m3 estimation service. Create with New, mount as an
// http.Handler, Close when done.
type Server struct {
	opts     Options
	backends atomic.Pointer[backendSet]
	// modelFP mirrors the default backend's fingerprint (healthz, reload
	// broadcasts, tests).
	modelFP atomic.Uint64
	pool    *core.Pool
	cache   *core.EstimateCache
	metrics *Metrics

	mu        sync.RWMutex
	workloads map[string]*Workload

	// sem is the admission-control semaphore for estimation endpoints;
	// nil means unlimited.
	sem chan struct{}
	// reloadMu serializes checkpoint reloads (TryLock: a concurrent reload
	// is rejected with 409, not queued).
	reloadMu   sync.Mutex
	estTimeout time.Duration

	// fleet is the cluster membership view; nil when standalone.
	fleet *cluster.Fleet

	// stop is closed by Close; background delivery loops (durable
	// replication retries) watch it so shutdown never waits on a backoff.
	stop     chan struct{}
	stopOnce sync.Once

	mux *http.ServeMux
}

// New builds a server around a loaded model.
func New(opts Options) (*Server, error) {
	if opts.Net == nil {
		return nil, fmt.Errorf("serve: Options.Net is required")
	}
	if opts.BatchSize < 0 {
		return nil, fmt.Errorf("serve: Options.BatchSize %d must be >= 0", opts.BatchSize)
	}
	if opts.PredictParallelism < 0 {
		return nil, fmt.Errorf("serve: Options.PredictParallelism %d must be >= 0", opts.PredictParallelism)
	}
	s := &Server{
		opts:      opts,
		pool:      core.NewPool(opts.Workers),
		cache:     core.NewEstimateCache(opts.CacheSize),
		metrics:   newMetrics(),
		workloads: make(map[string]*Workload),
		stop:      make(chan struct{}),
		mux:       http.NewServeMux(),
	}
	maxInflight := opts.MaxInflight
	if maxInflight == 0 {
		workers := opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		maxInflight = 4 * workers
	}
	if maxInflight > 0 {
		s.sem = make(chan struct{}, maxInflight)
	}
	s.estTimeout = opts.EstimateTimeout
	if s.estTimeout <= 0 {
		s.estTimeout = DefaultEstimateTimeout
	}
	if opts.Advertise != "" || len(opts.Peers) > 0 {
		fleet, err := cluster.New(opts.Advertise, opts.Peers, cluster.Options{
			PeerTimeout:   opts.PeerTimeout,
			MaxRetries:    opts.PeerRetries,
			RetryBudget:   opts.RetryBudget,
			ProbeInterval: opts.ProbeInterval,
		})
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.fleet = fleet
		// The estimate cache becomes two-tier: local miss → ask the key's
		// rendezvous owner; local compute → offer the result to the owner.
		s.cache.SetPeerTier(s.peerFetch, s.peerPut)
	}
	s.SwapPredictor(opts.Net)
	s.routes()
	return s, nil
}

// Close releases the worker pool and the peer fan-out pool. In-flight Run
// calls must have finished (drain the HTTP server first).
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.pool.Close()
	if s.fleet != nil {
		s.fleet.Close()
	}
}

// Fleet returns the cluster membership view (nil when standalone).
func (s *Server) Fleet() *cluster.Fleet { return s.fleet }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// SwapPredictor atomically replaces the serving model with p, rebuilding
// every registered backend kind from p's float weights (so a float swap also
// refreshes the int8 backend, and vice versa). p's own kind becomes the
// default for requests that name no backend. Each backend is fingerprinted
// here, once; p must not be mutated afterwards (swap in a new predictor
// instead). Estimates keyed under fingerprints outside the new set are
// dropped before the serving fingerprint flips, so an observer of the new
// fingerprint never finds stale entries (they could never be served again
// anyway; holding them only wastes capacity).
func (s *Server) SwapPredictor(p model.Predictor) {
	preds := map[string]model.Predictor{p.Kind(): p}
	if src := model.SourceNet(p); src != nil {
		for _, kind := range model.BackendKinds() {
			if _, ok := preds[kind]; ok {
				continue
			}
			alt, err := model.BuildBackend(kind, src)
			if err != nil {
				// A sibling backend that fails to build is simply absent;
				// requests naming it get unknown_backend, and the loaded
				// artifact itself still serves.
				continue
			}
			preds[kind] = alt
		}
	}
	set := &backendSet{def: p.Kind(), byKind: make(map[string]servedModel, len(preds))}
	for kind, pred := range preds {
		// Re-apply the GEMM sharding knob on every swap so it survives
		// reloads (freshly built backends default to serial).
		if s.opts.PredictParallelism > 0 {
			model.SetPredictParallelism(pred, s.opts.PredictParallelism)
		}
		set.byKind[kind] = servedModel{pred: pred, fp: pred.Fingerprint()}
	}
	s.backends.Store(set)
	s.cache.InvalidateModel(set.fingerprints()...)
	s.modelFP.Store(set.byKind[set.def].fp)
}

// Predictor returns the default serving backend.
func (s *Server) Predictor() model.Predictor {
	bs := s.backends.Load()
	return bs.byKind[bs.def].pred
}

// Backends lists the backend kinds currently servable, sorted.
func (s *Server) Backends() []string {
	bs := s.backends.Load()
	kinds := make([]string, 0, len(bs.byKind))
	for k := range bs.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// errReloadInProgress reports a reload racing another reload; the caller
// should retry after the winner finishes.
var errReloadInProgress = errors.New("serve: a reload is already in progress")

// Reload re-reads the checkpoint from path (empty = the configured
// CheckpointPath), vets it, and swaps it in. The checkpoint may be of any
// backend kind — its kind becomes the serving default. A candidate that
// fails to load, fails integrity checks, or cannot produce finite
// predictions is rejected through the Predictor's own SelfCheck (so a
// corrupt quantized checkpoint takes the same 422 path as a float one) and
// the current model keeps serving — a bad artifact on disk can degrade a
// reload, never the running service.
func (s *Server) Reload(path string) error {
	if !s.reloadMu.TryLock() {
		return errReloadInProgress
	}
	defer s.reloadMu.Unlock()
	if path == "" {
		path = s.opts.CheckpointPath
	}
	if path == "" {
		return fmt.Errorf("serve: no checkpoint path configured")
	}
	p, err := model.LoadPredictorFile(path)
	if err != nil {
		s.metrics.reloadRejected.Add(1)
		return fmt.Errorf("serve: reload rejected, keeping current model: %w", err)
	}
	if err := p.SelfCheck(); err != nil {
		s.metrics.reloadRejected.Add(1)
		return fmt.Errorf("serve: reload rejected, keeping current model: %w", err)
	}
	s.SwapPredictor(p)
	s.metrics.reloads.Add(1)
	return nil
}

// Inflight reports the number of requests currently being served (all
// routes); cmd/m3serve logs it when draining at shutdown.
func (s *Server) Inflight() int64 { return s.metrics.inflight.Load() }

func (s *Server) routes() {
	h := func(name string, fn http.HandlerFunc) http.HandlerFunc {
		return s.metrics.instrument(name, fn)
	}
	s.mux.HandleFunc("GET /healthz", h("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", h("metrics", s.handleMetrics))
	s.mux.HandleFunc("POST /v1/workloads", h("workloads_create", s.handleWorkloadCreate))
	s.mux.HandleFunc("GET /v1/workloads", h("workloads_list", s.handleWorkloadList))
	s.mux.HandleFunc("GET /v1/workloads/{name}", h("workloads_get", s.handleWorkloadGet))
	s.mux.HandleFunc("DELETE /v1/workloads/{name}", h("workloads_delete", s.handleWorkloadDelete))
	s.mux.HandleFunc("POST /v1/estimate", h("estimate", s.handleEstimate))
	s.mux.HandleFunc("GET /v1/quantiles", h("quantiles", s.handleQuantiles))
	s.mux.HandleFunc("POST /v1/whatif", h("whatif", s.handleWhatIf))
	s.mux.HandleFunc("POST /v1/reload", h("reload", s.handleReload))
	if s.fleet != nil {
		s.mux.HandleFunc("GET "+cluster.HealthEndpoint, h("internal_health", s.handleInternalHealth))
		s.mux.HandleFunc("POST "+cluster.PathsEndpoint, h("internal_paths", s.handleInternalPaths))
		s.mux.HandleFunc("POST "+cluster.CacheFetchEndpoint, h("internal_cachefetch", s.handleInternalCacheFetch))
		s.mux.HandleFunc("POST "+cluster.CachePutEndpoint, h("internal_cacheput", s.handleInternalCachePut))
		s.mux.HandleFunc("POST "+cluster.WorkloadSyncEndpoint, h("internal_workload_sync", s.handleInternalWorkloadSync))
		s.mux.HandleFunc("POST "+cluster.InvalidateEndpoint, h("internal_invalidate", s.handleInternalInvalidate))
		s.mux.HandleFunc("POST "+cluster.MembershipEndpoint, h("internal_membership", s.handleInternalMembership))
	}
}

// --- plumbing ---------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError answers with the JSON error envelope {"error", "code"}: the
// human-readable message plus a stable machine-readable code, so cluster
// peers (and clients) distinguish retryable failures (shed, timeout) from
// terminal ones (validation) without matching message strings. The code is
// derived from the HTTP status; handlers with a sharper classification use
// writeErrorCode directly.
func writeError(w http.ResponseWriter, status int, err error) {
	writeErrorCode(w, status, codeForStatus(status), err)
}

func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, cluster.ErrorBody{Error: err.Error(), Code: code})
}

// codeForStatus maps an HTTP status to the default machine-readable code.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return cluster.CodeValidation
	case http.StatusNotFound:
		return cluster.CodeNotFound
	case http.StatusConflict:
		return cluster.CodeConflict
	case http.StatusTooManyRequests:
		return cluster.CodeShed
	case http.StatusGatewayTimeout:
		return cluster.CodeTimeout
	case 499:
		return cluster.CodeCanceled
	case http.StatusUnprocessableEntity:
		return cluster.CodeUnprocessable
	}
	return cluster.CodeInternal
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// errorCode maps an estimation error to an HTTP status: a dead client
// context is 499-style (client closed request), a blown deadline 504, a
// validation failure 400, everything else 500 unless the handler classified
// it earlier.
func errorCode(r *http.Request, err error) int {
	if errors.Is(err, context.Canceled) || r.Context().Err() != nil {
		return 499 // client closed request (nginx convention)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if validate.IsValidation(err) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// admit reserves an estimation slot, shedding the request with 429 +
// Retry-After when MaxInflight slots are taken. Shedding immediately beats
// queueing: the client learns in microseconds that it should back off,
// instead of tying up a connection until the deadline kills it. Returns
// whether the caller may proceed (and must release()).
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.sem == nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		s.metrics.shed.Add(1)
		// Retry-After tracks observed estimate latency: a slot frees when
		// one estimate drains, so that EWMA (clamped to [1s, 30s]) is the
		// honest "come back when something might have changed" hint —
		// hardcoding 1s would invite hammering when estimates run long.
		w.Header().Set("Retry-After", strconv.Itoa(s.metrics.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("serve: estimation capacity exhausted (%d in flight); retry", cap(s.sem)))
		return false
	}
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
}

func (s *Server) workload(name string) (*Workload, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	wl, ok := s.workloads[name]
	return wl, ok
}

func parseMethod(name string) (core.Method, error) {
	switch strings.ToLower(name) {
	case "", "m3", "ml":
		return core.MethodML, nil
	case "flowsim":
		return core.MethodFlowSim, nil
	case "ns3-path", "ns3path", "ns3":
		return core.MethodNS3Path, nil
	}
	return 0, fmt.Errorf("serve: unknown method %q (want m3, flowsim, or ns3-path)", name)
}

// buildConfig applies knob overrides (packetsim.Config.Set names) over the
// default configuration.
func buildConfig(knobs map[string]string) (packetsim.Config, error) {
	cfg := packetsim.DefaultConfig()
	// Deterministic application order (irrelevant semantically, stable errors).
	names := make([]string, 0, len(knobs))
	for k := range knobs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if err := cfg.Set(k, knobs[k]); err != nil {
			return cfg, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// runEstimate serves one (workload, method, config) estimate through the
// shared cache and pool, under the resolved inference backend sm. The
// bool reports a cache hit.
func (s *Server) runEstimate(ctx context.Context, wl *Workload, method core.Method,
	numPaths int, seed uint64, cfg packetsim.Config, sm servedModel) (*core.Estimate, bool, error) {

	if numPaths == 0 {
		numPaths = 500
	}
	if numPaths < 0 || numPaths > maxNumPaths {
		return nil, false, validate.Errf("serve", "num_paths", "%d outside [1,%d]", numPaths, maxNumPaths)
	}
	if seed == 0 {
		seed = 1
	}
	faultinject.At("serve.estimate", nil)
	ctx, cancel := context.WithTimeout(ctx, s.estTimeout)
	defer cancel()
	d, err := wl.Decomposition()
	if err != nil {
		return nil, false, err
	}
	// Model identity (fingerprint + backend kind) keys the cache only for
	// the ML method: flowsim and ns3-path answers are model-free, and keying
	// them by backend would split identical entries.
	var fp uint64
	var backend string
	if method == core.MethodML {
		fp = sm.fp
		backend = sm.pred.Kind()
	}
	key := core.EstimateKey{
		Workload: wl.Hash,
		Cfg:      cfg,
		Method:   method,
		NumPaths: numPaths,
		Seed:     seed,
		Model:    fp,
		Backend:  backend,
	}
	res, cached, err := s.cache.Do(ctx, key, func() (*core.Estimate, error) {
		est := core.NewEstimator(sm.pred,
			core.WithMethod(method),
			core.WithNumPaths(numPaths),
			core.WithSeed(seed),
			core.WithBatchSize(s.opts.BatchSize),
			core.WithPool(s.pool),
			core.WithDecomposition(d),
			core.WithFlowSimFallback(true))
		if s.fleet != nil && s.opts.Scatter {
			return s.scatterEstimate(ctx, est, wl, method, fp, backend, cfg)
		}
		return est.Estimate(ctx, wl.FT.Topology, wl.Flows, cfg)
	})
	if err == nil && !cached {
		s.metrics.recordStages(res.Stages)
		// Only computed estimates feed the Retry-After EWMA: drain time is
		// governed by compute latency, and cache hits would drag the
		// estimate toward microseconds.
		s.metrics.observeEstimateLatency(res.Elapsed)
		if method == core.MethodML {
			s.metrics.recordBackend(backend, res.Stages.Predict)
		}
		if res.Degraded {
			s.metrics.degradedEstimates.Add(1)
			s.metrics.degradedPaths.Add(int64(res.DegradedPaths))
		}
	}
	return res, cached, err
}

// scatterMinPaths is the smallest sampled-path count worth scattering; a
// tiny estimate's HTTP overhead would dwarf the shard work.
const scatterMinPaths = 8

// scatterEstimate runs one estimate with its per-path work partitioned
// across the fleet's live members. The plan (decompose + sample) is
// computed here; peers receive bare path indices, valid because the
// replicated registry makes every member's decomposition identical (the
// request carries the workload hash so skew is refused, not silently
// miscomputed). A shard whose peer fails is recomputed locally and the
// estimate is marked Degraded — the fleet losing a member costs latency,
// never correctness or availability.
func (s *Server) scatterEstimate(ctx context.Context, est *core.Estimator,
	wl *Workload, method core.Method, fp uint64, backend string, cfg packetsim.Config) (*core.Estimate, error) {

	start := time.Now()
	plan, err := est.Plan(wl.FT.Topology, wl.Flows)
	if err != nil {
		return nil, err
	}
	local := func(ctx context.Context, distinct, mult []int) (*core.ShardResult, error) {
		return est.RunShard(ctx, plan.D, distinct, mult, cfg)
	}
	var sr *core.ShardResult
	var stats *cluster.ScatterStats
	if len(plan.Distinct) < scatterMinPaths {
		sr, err = local(ctx, plan.Distinct, plan.Mult)
	} else {
		tmpl := &cluster.PathsRequest{
			Workload: wl.Name,
			Hash:     uint64(wl.Hash),
			Method:   method.String(),
			ModelFP:  fp,
			Backend:  backend,
			Cfg:      cfg,
		}
		sr, stats, err = s.fleet.Scatter(ctx, tmpl, plan.Distinct, plan.Mult, local)
	}
	if err != nil {
		return nil, err
	}
	res, err := plan.Assemble(sr.Outs, sr.Stages(), sr.DegradedPaths)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	if stats != nil {
		s.metrics.scatterEstimates.Add(1)
		s.metrics.scatterRemoteShards.Add(int64(stats.RemoteShards))
		s.metrics.scatterFallbackShards.Add(int64(stats.FallbackShards))
		if stats.FallbackShards > 0 {
			// Surfaced exactly like a model fallback: the answer is valid
			// but the fleet did not execute as planned.
			res.Degraded = true
		}
	}
	return res, nil
}

// --- handlers ---------------------------------------------------------------

// resolveBackend maps a request's backend name to its backend, or writes
// the stable unknown_backend error (400) and returns false.
func (s *Server) resolveBackend(w http.ResponseWriter, name string) (servedModel, bool) {
	sm, err := s.backends.Load().resolve(name)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, cluster.CodeUnknownBackend, err)
		return servedModel{}, false
	}
	return sm, true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bs := s.backends.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"model":   fingerprintString(s.modelFP.Load()),
		"backend": bs.def,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	bs := s.backends.Load()
	params := 0
	if src := model.SourceNet(bs.byKind[bs.def].pred); src != nil {
		params = src.NumParams()
	}
	var clusterInfo map[string]any
	if s.fleet != nil {
		clusterInfo = map[string]any{
			"self":    s.fleet.Self(),
			"members": len(s.fleet.Members()),
			"peers":   s.fleet.Status(),
		}
	}
	snap := s.metrics.snapshot(s.cache.Stats(), params, s.modelFP.Load(), bs.def, s.Backends(), clusterInfo)
	batch := s.opts.BatchSize
	if batch <= 0 {
		batch = core.DefaultBatchSize
	}
	snap["estimator"] = map[string]any{
		"batch_size":          batch,
		"predict_parallelism": s.opts.PredictParallelism,
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleWorkloadCreate(w http.ResponseWriter, r *http.Request) {
	// The body is read whole (bounded by MaxBytesReader) so the original
	// request bytes can be retained for cluster replication.
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req workloadRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wl, err := buildWorkload(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wl.raw = raw
	s.mu.Lock()
	if _, exists := s.workloads[wl.Name]; exists {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("serve: workload %q already exists", wl.Name))
		return
	}
	s.workloads[wl.Name] = wl
	s.mu.Unlock()
	s.replicate("create", wl.Name, raw)
	writeJSON(w, http.StatusCreated, wl.info())
}

func (s *Server) handleWorkloadList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]workloadInfo, 0, len(s.workloads))
	for _, wl := range s.workloads {
		infos = append(infos, wl.info())
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"workloads": infos})
}

func (s *Server) handleWorkloadGet(w http.ResponseWriter, r *http.Request) {
	wl, ok := s.workload(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no workload %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, wl.info())
}

func (s *Server) handleWorkloadDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.workloads[name]
	delete(s.workloads, name)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no workload %q", name))
		return
	}
	s.replicate("delete", name, nil)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// estimateRequest is the POST /v1/estimate body.
type estimateRequest struct {
	Workload string            `json:"workload"`
	Method   string            `json:"method,omitempty"`    // m3 (default) | flowsim | ns3-path
	Backend  string            `json:"backend,omitempty"`   // net | net-int8 (default: loaded artifact's kind)
	NumPaths int               `json:"num_paths,omitempty"` // default 500
	Seed     uint64            `json:"seed,omitempty"`      // default 1
	Config   map[string]string `json:"config,omitempty"`    // knob overrides
}

// estimateResponse reports one estimate.
type estimateResponse struct {
	Workload string `json:"workload"`
	Method   string `json:"method"`
	// Backend is the inference backend kind that computed (or keyed) the
	// estimate; empty for model-free methods.
	Backend       string  `json:"backend,omitempty"`
	Cached        bool    `json:"cached"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	DistinctPaths int     `json:"distinct_paths"`
	TotalPaths    int     `json:"total_paths"`
	// Degraded marks an estimate where some paths fell back from the ML
	// correction to raw flowSim numbers (model missing or emitting
	// non-finite slowdowns); DegradedPaths counts them.
	Degraded      bool               `json:"degraded,omitempty"`
	DegradedPaths int                `json:"degraded_paths,omitempty"`
	P99           map[string]float64 `json:"p99"`
	StagesMS      map[string]float64 `json:"stages_ms"`
	// OverlapRatio is the fraction of the shorter of the pathsim/predict
	// wall-clock extents that ran concurrently with the other stage — 0 when
	// the stages serialized, approaching 1 when one stage hides entirely
	// behind the other. Absent for cached results and model-free methods (no
	// predict stage ran).
	OverlapRatio float64 `json:"overlap_ratio,omitempty"`
}

// putFinite adds v to m unless it is NaN or infinite (empty buckets yield
// NaN quantiles, which JSON cannot carry — absent keys mean "no data").
func putFinite(m map[string]float64, k string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		m[k] = v
	}
}

func estimateToResponse(wl *Workload, method core.Method, backend string, res *core.Estimate, cached bool) estimateResponse {
	p99 := make(map[string]float64, feature.NumOutputBuckets+1)
	per := res.P99PerBucket()
	for b, name := range bucketNames {
		putFinite(p99, name, per[b])
	}
	putFinite(p99, "combined", res.P99())
	if method != core.MethodML {
		backend = "" // model-free methods ran no backend
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return estimateResponse{
		Workload:      wl.Name,
		Method:        method.String(),
		Backend:       backend,
		Cached:        cached,
		ElapsedMS:     ms(res.Elapsed),
		DistinctPaths: res.DistinctPaths,
		TotalPaths:    res.TotalPaths,
		Degraded:      res.Degraded,
		DegradedPaths: res.DegradedPaths,
		P99:           p99,
		StagesMS: map[string]float64{
			"decompose": ms(res.Stages.Decompose),
			"sample":    ms(res.Stages.Sample),
			"scenario":  ms(res.Stages.ScenarioBuild),
			"pathsim":   ms(res.Stages.PathSim),
			"featurize": ms(res.Stages.Featurize),
			"predict":   ms(res.Stages.Predict),
			"aggregate": ms(res.Stages.Aggregate),
			// Wall-clock extents: scenario, pathsim (flowSim or the packet
			// simulator alone), featurize and predict above are CPU time
			// summed across pool workers (they double-count under
			// parallelism); the _wall keys are elapsed time per stage, and
			// overlap is how much of the two extents ran concurrently.
			"pathsim_wall": ms(res.Stages.PathSimWall),
			"predict_wall": ms(res.Stages.PredictWall),
			"overlap":      ms(res.Stages.Overlap),
		},
		OverlapRatio: res.OverlapRatio(),
	}
}

// bucketNames labels the four output size buckets in responses.
var bucketNames = [feature.NumOutputBuckets]string{
	"le_1kb", "1kb_10kb", "10kb_50kb", "gt_50kb",
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	var req estimateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wl, ok := s.workload(req.Workload)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no workload %q", req.Workload))
		return
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sm, ok := s.resolveBackend(w, req.Backend)
	if !ok {
		return
	}
	cfg, err := buildConfig(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, cached, err := s.runEstimate(r.Context(), wl, method, req.NumPaths, req.Seed, cfg, sm)
	if err != nil {
		writeError(w, errorCode(r, err), err)
		return
	}
	writeJSON(w, http.StatusOK, estimateToResponse(wl, method, sm.pred.Kind(), res, cached))
}

// quantilesReserved are GET /v1/quantiles query params that are not config
// knobs.
var quantilesReserved = map[string]bool{
	"workload": true, "q": true, "method": true, "paths": true, "seed": true,
	"backend": true,
}

// handleQuantiles answers GET /v1/quantiles?workload=NAME&q=0.5,0.99 with
// per-bucket and combined slowdown quantiles. Any other query parameter is
// treated as a config knob (cc, buffer, pfc, ...).
func (s *Server) handleQuantiles(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	qv := r.URL.Query()
	wl, ok := s.workload(qv.Get("workload"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no workload %q", qv.Get("workload")))
		return
	}
	method, err := parseMethod(qv.Get("method"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sm, ok := s.resolveBackend(w, qv.Get("backend"))
	if !ok {
		return
	}
	var qs []float64
	qSpec := qv.Get("q")
	if qSpec == "" {
		qSpec = "0.5,0.9,0.99"
	}
	for _, part := range strings.Split(qSpec, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || q <= 0 || q > 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad quantile %q (want q in (0,1])", part))
			return
		}
		qs = append(qs, q)
	}
	numPaths, _ := strconv.Atoi(qv.Get("paths"))
	seed, _ := strconv.ParseUint(qv.Get("seed"), 10, 64)
	knobs := make(map[string]string)
	for k, vs := range qv {
		if !quantilesReserved[k] && len(vs) > 0 {
			knobs[k] = vs[0]
		}
	}
	cfg, err := buildConfig(knobs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, cached, err := s.runEstimate(r.Context(), wl, method, numPaths, seed, cfg, sm)
	if err != nil {
		writeError(w, errorCode(r, err), err)
		return
	}
	quantiles := make(map[string]map[string]float64, len(qs))
	for _, q := range qs {
		row := make(map[string]float64, feature.NumOutputBuckets+1)
		for b, name := range bucketNames {
			putFinite(row, name, res.Agg.BucketQuantile(b, q))
		}
		putFinite(row, "combined", res.Agg.CombinedQuantile(q))
		quantiles[strconv.FormatFloat(q, 'g', -1, 64)] = row
	}
	out := map[string]any{
		"workload":  wl.Name,
		"method":    method.String(),
		"cached":    cached,
		"quantiles": quantiles,
	}
	if method == core.MethodML {
		out["backend"] = sm.pred.Kind()
	}
	writeJSON(w, http.StatusOK, out)
}

// whatIfRequest is the POST /v1/whatif body: a batch of configuration
// counterfactuals over one workload (the REPL's "set" commands, served).
type whatIfRequest struct {
	Workload string            `json:"workload"`
	Method   string            `json:"method,omitempty"`
	Backend  string            `json:"backend,omitempty"`
	NumPaths int               `json:"num_paths,omitempty"`
	Seed     uint64            `json:"seed,omitempty"`
	Base     map[string]string `json:"base,omitempty"` // knobs shared by all sweeps
	Sweeps   []whatIfSweep     `json:"sweeps"`
}

type whatIfSweep struct {
	Name  string            `json:"name,omitempty"`
	Knobs map[string]string `json:"knobs"`
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	var req whatIfRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wl, ok := s.workload(req.Workload)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no workload %q", req.Workload))
		return
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sm, ok := s.resolveBackend(w, req.Backend)
	if !ok {
		return
	}
	if len(req.Sweeps) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: whatif needs at least one sweep"))
		return
	}
	if len(req.Sweeps) > maxSweeps {
		writeError(w, http.StatusBadRequest,
			validate.Errf("serve", "sweeps", "%d sweeps exceed the limit of %d", len(req.Sweeps), maxSweeps))
		return
	}
	// The baseline plus each sweep, estimated sequentially: path-level
	// parallelism inside each estimate already saturates the shared pool.
	type sweepResult struct {
		Name     string            `json:"name"`
		Knobs    map[string]string `json:"knobs"`
		Estimate estimateResponse  `json:"estimate"`
	}
	run := func(name string, knobs map[string]string) (sweepResult, error) {
		merged := make(map[string]string, len(req.Base)+len(knobs))
		for k, v := range req.Base {
			merged[k] = v
		}
		for k, v := range knobs {
			merged[k] = v
		}
		cfg, err := buildConfig(merged)
		if err != nil {
			return sweepResult{}, err
		}
		res, cached, err := s.runEstimate(r.Context(), wl, method, req.NumPaths, req.Seed, cfg, sm)
		if err != nil {
			return sweepResult{}, err
		}
		return sweepResult{Name: name, Knobs: merged, Estimate: estimateToResponse(wl, method, sm.pred.Kind(), res, cached)}, nil
	}
	results := make([]sweepResult, 0, len(req.Sweeps)+1)
	base, err := run("base", nil)
	if err == nil {
		results = append(results, base)
		for i, sweep := range req.Sweeps {
			name := sweep.Name
			if name == "" {
				name = fmt.Sprintf("sweep-%d", i)
			}
			var sr sweepResult
			sr, err = run(name, sweep.Knobs)
			if err != nil {
				break
			}
			results = append(results, sr)
		}
	}
	if err != nil {
		code := errorCode(r, err)
		if strings.Contains(err.Error(), "packetsim:") {
			code = http.StatusBadRequest
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workload": wl.Name,
		"method":   method.String(),
		"results":  results,
	})
}

// reloadRequest is the POST /v1/reload body.
type reloadRequest struct {
	Checkpoint string `json:"checkpoint,omitempty"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if r.ContentLength != 0 {
		if err := decodeBody(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if err := s.Reload(req.Checkpoint); err != nil {
		// A damaged artifact (bad CRC, shapes, non-finite weights or
		// predictions) is 422; a racing reload is 409; everything else —
		// missing file, no path configured — is a plain bad request.
		code := http.StatusBadRequest
		var corrupt *model.CorruptError
		switch {
		case errors.Is(err, errReloadInProgress):
			code = http.StatusConflict
		case errors.As(err, &corrupt), validate.IsValidation(err),
			strings.Contains(err.Error(), "self-check"):
			code = http.StatusUnprocessableEntity
		}
		writeError(w, code, err)
		return
	}
	// SwapPredictor already dropped estimates keyed to older fingerprints;
	// broadcast the new model to the fleet so peers converge on the same
	// checkpoint. Only this external handler originates the broadcast; the
	// internal invalidate handler never re-broadcasts, so it cannot loop.
	bs := s.backends.Load()
	newFP := s.modelFP.Load()
	ckpt := req.Checkpoint
	if ckpt == "" {
		ckpt = s.opts.CheckpointPath
	}
	s.broadcastInvalidate(newFP, ckpt)
	params := 0
	if src := model.SourceNet(bs.byKind[bs.def].pred); src != nil {
		params = src.NumParams()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model":   fingerprintString(newFP),
		"backend": bs.def,
		"params":  params,
		"reloads": s.metrics.reloads.Load(),
	})
}
