package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"m3/internal/cluster"
	"m3/internal/core"
	"m3/internal/model"
)

// minRemoteBudget is the smallest propagated deadline budget worth starting
// work for. Below it, the caller's deadline will expire before any shard or
// cache answer could land, so the peer sheds immediately with the retryable
// timeout code instead of computing for a caller that already gave up.
const minRemoteBudget = 5 * time.Millisecond

// budgetContext applies a propagated deadline budget (deadline_ns wire
// field): ok=false means the budget is hopeless and the caller should shed
// now; otherwise the returned context carries min(estTimeout, budget).
func (s *Server) budgetContext(parent context.Context, deadlineNS int64) (context.Context, context.CancelFunc, bool) {
	limit := s.estTimeout
	if deadlineNS > 0 {
		budget := time.Duration(deadlineNS)
		if budget < minRemoteBudget {
			return nil, nil, false
		}
		if budget < limit {
			limit = budget
		}
	}
	ctx, cancel := context.WithTimeout(parent, limit)
	return ctx, cancel, true
}

// This file is the server side of the cluster protocol: the
// /internal/v1/* handlers every replica mounts when it runs as part of a
// fleet, plus the peer-tier hooks the estimate cache calls on local
// misses. All of it is plain JSON over HTTP between replicas that trust
// each other; the public API surface is unchanged.

// --- scatter-gather shard execution ----------------------------------------

// handleInternalPaths executes one shard of a peer's scatter-gathered
// estimate: a slice of the coordinator's sampled path indices, run under
// this replica's own pool, model, and admission control. Refusals are
// structured (shed, model_mismatch, conflict) so the coordinator can tell
// "healthy peer saying not now" from "peer in trouble".
func (s *Server) handleInternalPaths(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	var req cluster.PathsRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wl, ok := s.workload(req.Workload)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no workload %q", req.Workload))
		return
	}
	if uint64(wl.Hash) != req.Hash {
		// Registry skew: this replica's copy of the workload is not the one
		// the coordinator planned against. Running the shard anyway would
		// index into a different decomposition and silently compute wrong
		// paths, so refuse and let the coordinator compute it locally.
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: workload %q hash mismatch (have %x, shard wants %x)",
				req.Workload, uint64(wl.Hash), req.Hash))
		return
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Resolve the coordinator's pinned backend kind (empty = float net, so
	// pre-backend coordinators keep working). A kind this build does not
	// register is a terminal defect, not skew.
	backend := req.Backend
	if backend == "" {
		backend = model.KindNet
	}
	sm, ok := s.backends.Load().byKind[backend]
	if !ok {
		writeErrorCode(w, http.StatusBadRequest, cluster.CodeUnknownBackend,
			&model.UnknownBackendError{Kind: backend})
		return
	}
	fp := sm.fp
	if method == core.MethodML && req.ModelFP != 0 && req.ModelFP != fp {
		// A reload is propagating through the fleet; mixing model
		// generations (or backend arithmetic) inside one estimate would
		// produce answers no single process could. Retryable: the
		// coordinator recomputes locally now and the fleet converges via
		// the invalidate broadcast.
		writeErrorCode(w, http.StatusConflict, cluster.CodeModelMismatch,
			fmt.Errorf("serve: serving %s model %s, shard pinned %s",
				backend, fingerprintString(fp), fingerprintString(req.ModelFP)))
		return
	}
	d, err := wl.Decomposition()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	ctx, cancel, ok := s.budgetContext(r.Context(), req.DeadlineNS)
	if !ok {
		writeErrorCode(w, http.StatusGatewayTimeout, cluster.CodeTimeout,
			fmt.Errorf("serve: %v of deadline budget left, below the %v floor; shedding shard",
				time.Duration(req.DeadlineNS), minRemoteBudget))
		return
	}
	defer cancel()
	est := core.NewEstimator(sm.pred,
		core.WithMethod(method),
		core.WithBatchSize(s.opts.BatchSize),
		core.WithPool(s.pool),
		core.WithDecomposition(d),
		core.WithFlowSimFallback(true))
	sr, err := est.RunShard(ctx, d, req.Indices, req.Mults, req.Cfg)
	if err != nil {
		writeError(w, errorCode(r, err), err)
		return
	}
	writeJSON(w, http.StatusOK, sr)
}

// --- two-tier cache: owner side --------------------------------------------

// handleInternalCacheFetch answers a peer's tier-two lookup for a key this
// replica owns. Wait joins an in-flight local computation (fleet-wide
// single-flight) instead of reporting a miss the peer would then recompute.
func (s *Server) handleInternalCacheFetch(w http.ResponseWriter, r *http.Request) {
	var req cluster.KeyRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var (
		res *core.Estimate
		hit bool
	)
	if req.Wait {
		ctx, cancel, ok := s.budgetContext(r.Context(), req.DeadlineNS)
		if !ok {
			writeErrorCode(w, http.StatusGatewayTimeout, cluster.CodeTimeout,
				fmt.Errorf("serve: %v of deadline budget left, below the %v floor; shedding cache wait",
					time.Duration(req.DeadlineNS), minRemoteBudget))
			return
		}
		defer cancel()
		var err error
		res, hit, err = s.cache.Fetch(ctx, req.Key)
		if err != nil {
			writeError(w, errorCode(r, err), err)
			return
		}
	} else {
		res, hit = s.cache.Get(req.Key)
	}
	resp := cluster.FetchResponse{Hit: hit}
	if hit {
		resp.Estimate = cluster.WireFromEstimate(res)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleInternalCachePut stores an estimate a peer computed for a key this
// replica owns. The wire snapshot is validated before it can enter the
// cache — a peer cannot poison the owned tier with malformed data.
func (s *Server) handleInternalCachePut(w http.ResponseWriter, r *http.Request) {
	var req cluster.PutRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Estimate == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: cacheput without estimate"))
		return
	}
	res, err := req.Estimate.Estimate()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.cache.PutOwned(req.Key, res)
	writeJSON(w, http.StatusOK, map[string]bool{"stored": true})
}

// peerFetch is the estimate cache's second tier: on a local miss, ask the
// key's rendezvous owner before paying for a compute. Any trouble — owner
// is self, owner down, transport error, clean miss — is simply "no", and
// the caller computes locally; the peer tier can only ever save work.
func (s *Server) peerFetch(ctx context.Context, key core.EstimateKey) (*core.Estimate, bool) {
	owner := s.fleet.OwnerOf(key.Digest())
	if owner == s.fleet.Self() {
		return nil, false
	}
	p := s.fleet.Peer(owner)
	if p == nil || !p.Up() {
		return nil, false
	}
	var (
		res *core.Estimate
		ok  bool
	)
	// Peer.Call supplies per-attempt timeouts, budget-gated retries, and
	// breaker bookkeeping; any residual error is simply "no".
	err := p.Call(ctx, func(ctx context.Context) error {
		var err error
		res, ok, err = p.Client.CacheFetch(ctx, key, true)
		return err
	})
	if err != nil {
		return nil, false
	}
	return res, ok
}

// peerPut offers a freshly computed estimate to its hash owner,
// asynchronously and best-effort: estimate latency never waits on cache
// placement, and a failed put costs nothing but a future peer miss.
func (s *Server) peerPut(key core.EstimateKey, res *core.Estimate) {
	owner := s.fleet.OwnerOf(key.Digest())
	if owner == s.fleet.Self() {
		s.cache.PutOwned(key, res)
		return
	}
	p := s.fleet.Peer(owner)
	if p == nil || !p.Up() {
		return
	}
	go func() {
		err := p.Call(context.Background(), func(ctx context.Context) error {
			return p.Client.CachePut(ctx, key, res)
		})
		if err != nil {
			s.metrics.syncErrors.Add(1)
		}
	}()
}

// --- registry replication ---------------------------------------------------

// handleInternalWorkloadSync applies a replicated registry mutation, or
// serves the full registry to a (re)joining replica. Mutations are
// idempotent and last-writer-wins: replicas rebuild the workload from the
// original creation request (deterministic spec seeds or raw trace bytes),
// so every member materializes bit-identical flows.
func (s *Server) handleInternalWorkloadSync(w http.ResponseWriter, r *http.Request) {
	var req cluster.SyncRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	switch req.Op {
	case "create":
		var wreq workloadRequest
		if err := json.Unmarshal(req.Request, &wreq); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		wl, err := buildWorkload(&wreq)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		wl.raw = req.Request
		s.mu.Lock()
		s.workloads[wl.Name] = wl
		s.mu.Unlock()
		s.metrics.workloadsSynced.Add(1)
		writeJSON(w, http.StatusOK, wl.info())
	case "delete":
		s.mu.Lock()
		delete(s.workloads, req.Name)
		s.mu.Unlock()
		s.metrics.workloadsSynced.Add(1)
		writeJSON(w, http.StatusOK, map[string]string{"deleted": req.Name})
	case "pull":
		s.mu.RLock()
		list := cluster.SyncList{Workloads: make([]json.RawMessage, 0, len(s.workloads))}
		for _, wl := range s.workloads {
			if wl.raw != nil {
				list.Workloads = append(list.Workloads, wl.raw)
			}
		}
		s.mu.RUnlock()
		writeJSON(w, http.StatusOK, list)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown sync op %q", req.Op))
	}
}

// Durable-replication retry schedule: enough attempts to outlive a breaker
// cooldown plus the prober's re-admission, then give up (a peer still dark
// after ~15s of backoff pulls the full registry when it rejoins).
const (
	replicateAttempts = 6
	replicateBackoff  = 500 * time.Millisecond
)

// replicate fans a registry mutation out to every peer, asynchronously:
// the client's create/delete answers at local speed. Delivery is durable
// against transient peer trouble: a peer whose breaker happens to be open
// when the mutation lands would otherwise miss it forever (it only pulls
// the full registry on an announced rejoin), so failed sends retry with
// backoff until the peer accepts, announces departure, or the server shuts
// down. raw is nil for deletes.
func (s *Server) replicate(op, name string, raw json.RawMessage) {
	if s.fleet == nil {
		return
	}
	req := &cluster.SyncRequest{Op: op, Name: name, Request: raw}
	for _, p := range s.fleet.Peers() {
		p := p
		go func() {
			for attempt := 0; ; attempt++ {
				err := p.Call(context.Background(), func(ctx context.Context) error {
					return p.Client.SyncWorkload(ctx, req)
				})
				if err == nil {
					return
				}
				s.metrics.syncErrors.Add(1)
				// A departed peer re-pulls the registry on rejoin — that
				// path owns convergence; retrying here would race it.
				if p.Left() || attempt >= replicateAttempts-1 {
					return
				}
				select {
				case <-s.stop:
					return
				case <-time.After(replicateBackoff << attempt):
				}
			}
		}()
	}
}

// --- model invalidation -----------------------------------------------------

// handleInternalInvalidate applies a peer's model-swap broadcast: drop
// every cached estimate keyed to another fingerprint, then converge on the
// same checkpoint if this replica is still serving a different model. The
// reload here never re-broadcasts (only the external /v1/reload handler
// originates invalidations), so broadcasts cannot loop.
func (s *Server) handleInternalInvalidate(w http.ResponseWriter, r *http.Request) {
	var req cluster.InvalidateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Count receipt before acting: anyone watching the fingerprint converge
	// must already see the broadcast that caused it.
	s.metrics.invalidations.Add(1)
	if s.modelFP.Load() != req.Fingerprint && req.Checkpoint != "" {
		// Best-effort: a failed reload keeps the current model serving (the
		// fingerprint pin on shard requests contains the damage to "this
		// replica computes fewer shards"), so it degrades, never errors.
		_ = s.Reload(req.Checkpoint)
	}
	// A successful reload already purged stale entries inside SwapPredictor
	// (before the fingerprint flipped, so a peer observing the new model
	// never finds them). This sweep covers the remaining cases: the replica
	// was already converged, the broadcast named no checkpoint, or the
	// reload failed — entries keyed to the set actually serving stay.
	dropped := s.cache.InvalidateModel(s.backends.Load().fingerprints()...)
	writeJSON(w, http.StatusOK, map[string]any{
		"dropped": dropped,
		"model":   fingerprintString(s.modelFP.Load()),
	})
}

// broadcastInvalidate tells every peer about a model swap (fire-and-forget;
// a peer that misses it still refuses mismatched shards via the
// fingerprint pin, then converges on its next broadcast or restart).
func (s *Server) broadcastInvalidate(fingerprint uint64, checkpoint string) {
	if s.fleet == nil {
		return
	}
	req := &cluster.InvalidateRequest{Fingerprint: fingerprint, Checkpoint: checkpoint}
	for _, p := range s.fleet.Peers() {
		p := p
		go func() {
			err := p.Call(context.Background(), func(ctx context.Context) error {
				return p.Client.Invalidate(ctx, req)
			})
			if err != nil {
				s.metrics.syncErrors.Add(1)
			}
		}()
	}
}

// --- membership -------------------------------------------------------------

// handleInternalMembership applies a join/leave announcement, flipping the
// peer's health immediately instead of waiting for a timeout to discover
// the change.
func (s *Server) handleInternalMembership(w http.ResponseWriter, r *http.Request) {
	var req cluster.MembershipUpdate
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	p := s.fleet.Peer(req.Addr)
	if p == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("serve: %q is not in this replica's peer list", req.Addr))
		return
	}
	switch req.Event {
	case "joining":
		p.MarkJoined()
	case "leaving":
		p.MarkLeft()
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown membership event %q", req.Event))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"peer": req.Addr, "event": req.Event})
}

// JoinFleet announces this replica to its peers and pulls the full
// workload registry from the first peer that answers, so a replica joining
// (or restarting into) a running fleet serves the same registry as
// everyone else. Best-effort by design: at cold start every member joins
// simultaneously and nobody has anything to pull. Returns the number of
// workloads adopted.
func (s *Server) JoinFleet(ctx context.Context) int {
	if s.fleet == nil {
		return 0
	}
	for _, p := range s.fleet.Peers() {
		p := p
		_ = p.Call(ctx, func(ctx context.Context) error {
			return p.Client.Announce(ctx, s.fleet.Self(), "joining")
		})
	}
	adopted := 0
	for _, p := range s.fleet.Peers() {
		p := p
		var raws []json.RawMessage
		err := p.Call(ctx, func(ctx context.Context) error {
			var err error
			raws, err = p.Client.PullWorkloads(ctx)
			return err
		})
		if err != nil {
			continue
		}
		for _, raw := range raws {
			var wreq workloadRequest
			if err := json.Unmarshal(raw, &wreq); err != nil {
				continue
			}
			s.mu.RLock()
			_, exists := s.workloads[wreq.Name]
			s.mu.RUnlock()
			if exists {
				continue
			}
			wl, err := buildWorkload(&wreq)
			if err != nil {
				continue
			}
			wl.raw = raw
			s.mu.Lock()
			if _, exists := s.workloads[wl.Name]; !exists {
				s.workloads[wl.Name] = wl
				adopted++
			}
			s.mu.Unlock()
		}
		return adopted
	}
	return adopted
}

// LeaveFleet announces drain-aware shutdown to every peer so they stop
// scattering to (and fetching from) this replica immediately, instead of
// discovering the drain one timeout at a time.
func (s *Server) LeaveFleet(ctx context.Context) {
	if s.fleet == nil {
		return
	}
	for _, p := range s.fleet.Peers() {
		p := p
		_ = p.Call(ctx, func(ctx context.Context) error {
			return p.Client.Announce(ctx, s.fleet.Self(), "leaving")
		})
	}
}

// --- health ------------------------------------------------------------------

// handleInternalHealth answers active health probes: cheap proof the
// serving loop is alive, plus the model fingerprint and inflight count. No
// admission control — a saturated replica is still a healthy replica, and
// probes must be near-free (two atomic loads) so the prober can run hot.
func (s *Server) handleInternalHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, cluster.HealthResponse{
		Fingerprint: s.modelFP.Load(),
		Inflight:    s.metrics.inflight.Load(),
	})
}
