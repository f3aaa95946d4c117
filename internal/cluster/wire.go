package cluster

import (
	"encoding/json"
	"time"

	"m3/internal/agg"
	"m3/internal/core"
	"m3/internal/packetsim"
)

// Internal endpoint paths, mounted by the serving layer on every replica.
const (
	// PathsEndpoint executes one scatter-gather shard: a slice of a plan's
	// sampled path indices, run under the replica's own pool and model.
	PathsEndpoint = "/internal/v1/paths"
	// CacheFetchEndpoint answers owner-side cache lookups (tier two).
	CacheFetchEndpoint = "/internal/v1/cachefetch"
	// CachePutEndpoint offers a computed estimate to its hash owner.
	CachePutEndpoint = "/internal/v1/cacheput"
	// WorkloadSyncEndpoint replicates registry mutations and serves full
	// registry pulls to (re)joining replicas.
	WorkloadSyncEndpoint = "/internal/v1/workload-sync"
	// InvalidateEndpoint broadcasts a model swap: peers drop estimates
	// keyed to other fingerprints and converge on the same checkpoint.
	InvalidateEndpoint = "/internal/v1/invalidate"
	// MembershipEndpoint receives join/leave announcements (drain-aware
	// shutdown deregisters here so peers stop scattering to a dying
	// replica immediately instead of discovering it by timeout).
	MembershipEndpoint = "/internal/v1/membership"
	// HealthEndpoint answers active health probes (GET): cheap proof of
	// life plus the serving model fingerprint and current inflight count,
	// so the prober re-admits recovered peers without a user request
	// paying for the discovery.
	HealthEndpoint = "/internal/v1/health"
)

// HealthResponse answers a health probe.
type HealthResponse struct {
	// Fingerprint is the serving model's fingerprint — probers could use a
	// mismatch as an early reload-propagation signal.
	Fingerprint uint64 `json:"fingerprint"`
	// Inflight is the replica's current in-flight estimation count.
	Inflight int64 `json:"inflight"`
}

// Machine-readable error codes carried in the "code" field of every error
// response body, so peers (and clients) classify failures without string
// matching. Codes, not HTTP statuses, are the contract: 503s from an
// intermediary proxy and 429s from admission control both exist in the
// wild, but only a body with code "shed" is a deliberate, immediately
// retryable rejection.
const (
	// CodeValidation: the request itself is malformed; retrying verbatim
	// can never succeed.
	CodeValidation = "validation"
	// CodeNotFound: the named resource does not exist here.
	CodeNotFound = "not_found"
	// CodeConflict: the request lost a race (duplicate create, concurrent
	// reload); retry only after re-checking state.
	CodeConflict = "conflict"
	// CodeShed: admission control rejected the request under load;
	// retryable after backoff.
	CodeShed = "shed"
	// CodeTimeout: the per-estimate deadline elapsed; retryable.
	CodeTimeout = "timeout"
	// CodeCanceled: the client abandoned the request.
	CodeCanceled = "canceled"
	// CodeModelMismatch: a shard request named a model fingerprint this
	// replica is not serving (reload propagation in flight); retryable
	// once the fleet converges.
	CodeModelMismatch = "model_mismatch"
	// CodeUnprocessable: the payload parsed but failed integrity checks
	// (corrupt checkpoint, bad snapshot shapes).
	CodeUnprocessable = "unprocessable"
	// CodeUnknownBackend: the request named a model backend kind this
	// build does not register; retrying verbatim can never succeed.
	CodeUnknownBackend = "unknown_backend"
	// CodeInternal: an unclassified server-side failure.
	CodeInternal = "internal"
)

// Retryable reports whether an error code marks a transient condition the
// caller may retry (against the same or another replica) rather than a
// terminal request defect.
func Retryable(code string) bool {
	switch code {
	case CodeShed, CodeTimeout, CodeModelMismatch:
		return true
	}
	return false
}

// ErrorBody is the JSON error envelope every serve endpoint writes.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// PathsRequest asks a peer to execute one shard of a scatter-gathered
// estimate: run the per-path backend for the named workload's paths at
// Indices (indices into the deterministic pathsim decomposition, which the
// replicated registry guarantees is identical on every member).
type PathsRequest struct {
	Workload string `json:"workload"`
	// Hash guards against registry skew: the peer refuses if its copy of
	// the workload hashes differently (an index into a different
	// decomposition would silently compute the wrong paths).
	Hash   uint64 `json:"hash"`
	Method string `json:"method"`
	// ModelFP pins the ML model version; a peer serving a different
	// fingerprint answers CodeModelMismatch instead of mixing model
	// generations inside one estimate.
	ModelFP uint64 `json:"model_fp,omitempty"`
	// Backend pins the inference backend kind ("net", "net-int8"); empty
	// means the float net, so pre-backend coordinators stay compatible.
	// Together with ModelFP it guarantees every shard of one estimate runs
	// the same arithmetic.
	Backend string           `json:"backend,omitempty"`
	Cfg     packetsim.Config `json:"cfg"`
	Indices []int            `json:"indices"`
	Mults   []int            `json:"mults"`
	// DeadlineNS propagates the caller's remaining deadline budget (a
	// duration in nanoseconds, not an absolute time — clock skew between
	// replicas must not corrupt it; 0 = no deadline). A peer refuses work
	// it cannot finish inside the budget with the retryable timeout code
	// instead of computing a shard whose caller already gave up.
	DeadlineNS int64 `json:"deadline_ns,omitempty"`
}

// PathsResponse carries a shard's outputs and stage costs back to the
// coordinator. Its additive fields read zero from replicas that predate
// them, which the coordinator takes as "no data from that shard".
type PathsResponse = core.ShardResult

// KeyRequest names one estimate cache entry (cachefetch).
type KeyRequest struct {
	Key core.EstimateKey `json:"key"`
	// Wait asks the owner to join an in-flight computation of the key
	// (fleet-wide single-flight) instead of answering "miss" immediately.
	Wait bool `json:"wait,omitempty"`
	// DeadlineNS propagates the caller's remaining deadline budget
	// (duration ns, 0 = none); see PathsRequest.DeadlineNS.
	DeadlineNS int64 `json:"deadline_ns,omitempty"`
}

// PutRequest offers a computed estimate to its hash owner (cacheput).
type PutRequest struct {
	Key      core.EstimateKey `json:"key"`
	Estimate *EstimateWire    `json:"estimate"`
}

// FetchResponse is a cachefetch answer; Hit false means a clean miss.
type FetchResponse struct {
	Hit      bool          `json:"hit"`
	Estimate *EstimateWire `json:"estimate,omitempty"`
}

// EstimateWire is a core.Estimate flattened for transport: the aggregate's
// pooled per-bucket samples and weights plus the scalar fields. Floats
// cross as JSON numbers, which Go encodes shortest-round-trip, so the
// reconstructed estimate answers quantile queries byte-identically.
type EstimateWire struct {
	Pooled        [][]float64 `json:"pooled"`
	Weight        []float64   `json:"weight"`
	DistinctPaths int         `json:"distinct_paths"`
	TotalPaths    int         `json:"total_paths"`
	ElapsedNs     int64       `json:"elapsed_ns"`
	DecomposeNs   int64       `json:"decompose_ns"`
	SampleNs      int64       `json:"sample_ns"`
	ScenarioNs    int64       `json:"scenario_ns,omitempty"`
	PathSimNs     int64       `json:"path_sim_ns"`
	FeaturizeNs   int64       `json:"featurize_ns,omitempty"`
	PredictNs     int64       `json:"predict_ns"`
	AggregateNs   int64       `json:"aggregate_ns"`
	PathSimWallNs int64       `json:"path_sim_wall_ns,omitempty"`
	PredictWallNs int64       `json:"predict_wall_ns,omitempty"`
	OverlapNs     int64       `json:"overlap_ns,omitempty"`
	Degraded      bool        `json:"degraded,omitempty"`
	DegradedPaths int         `json:"degraded_paths,omitempty"`
}

// WireFromEstimate flattens an estimate for transport.
func WireFromEstimate(e *core.Estimate) *EstimateWire {
	pooled, weight := e.Agg.Snapshot()
	return &EstimateWire{
		Pooled:        pooled,
		Weight:        weight,
		DistinctPaths: e.DistinctPaths,
		TotalPaths:    e.TotalPaths,
		ElapsedNs:     int64(e.Elapsed),
		DecomposeNs:   int64(e.Stages.Decompose),
		SampleNs:      int64(e.Stages.Sample),
		ScenarioNs:    int64(e.Stages.ScenarioBuild),
		PathSimNs:     int64(e.Stages.PathSim),
		FeaturizeNs:   int64(e.Stages.Featurize),
		PredictNs:     int64(e.Stages.Predict),
		AggregateNs:   int64(e.Stages.Aggregate),
		PathSimWallNs: int64(e.Stages.PathSimWall),
		PredictWallNs: int64(e.Stages.PredictWall),
		OverlapNs:     int64(e.Stages.Overlap),
		Degraded:      e.Degraded,
		DegradedPaths: e.DegradedPaths,
	}
}

// Estimate reconstructs the core estimate, validating the snapshot shapes.
func (w *EstimateWire) Estimate() (*core.Estimate, error) {
	a, err := agg.FromSnapshot(w.Pooled, w.Weight)
	if err != nil {
		return nil, err
	}
	return &core.Estimate{
		Agg:           a,
		DistinctPaths: w.DistinctPaths,
		TotalPaths:    w.TotalPaths,
		Elapsed:       time.Duration(w.ElapsedNs),
		Stages: core.StageTimings{
			Decompose:     time.Duration(w.DecomposeNs),
			Sample:        time.Duration(w.SampleNs),
			ScenarioBuild: time.Duration(w.ScenarioNs),
			PathSim:       time.Duration(w.PathSimNs),
			Featurize:     time.Duration(w.FeaturizeNs),
			Predict:       time.Duration(w.PredictNs),
			Aggregate:     time.Duration(w.AggregateNs),
			PathSimWall:   time.Duration(w.PathSimWallNs),
			PredictWall:   time.Duration(w.PredictWallNs),
			Overlap:       time.Duration(w.OverlapNs),
		},
		Degraded:      w.Degraded,
		DegradedPaths: w.DegradedPaths,
	}, nil
}

// SyncRequest replicates one registry mutation ("create"/"delete"); Request
// carries the original creation body opaquely, so the replica rebuilds the
// workload from the same deterministic inputs (spec seeds, trace bytes)
// instead of shipping materialized flows.
type SyncRequest struct {
	Op      string          `json:"op"`
	Name    string          `json:"name,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
}

// SyncList answers a full registry pull: every workload's original creation
// request, for a replica (re)joining the fleet.
type SyncList struct {
	Workloads []json.RawMessage `json:"workloads"`
}

// InvalidateRequest broadcasts a model swap after a successful reload:
// Fingerprint is the fleet's new serving model, Checkpoint the path it was
// loaded from (peers converge by reloading the same artifact).
type InvalidateRequest struct {
	Fingerprint uint64 `json:"fingerprint"`
	Checkpoint  string `json:"checkpoint,omitempty"`
}

// MembershipUpdate announces a peer joining or leaving the fleet.
type MembershipUpdate struct {
	Addr  string `json:"addr"`
	Event string `json:"event"` // "joining" | "leaving"
}
