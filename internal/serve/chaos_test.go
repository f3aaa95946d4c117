package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"m3/internal/cluster"
	"m3/internal/faultinject"
)

// This file is the chaos gate: a 3-replica in-process fleet driven through
// seeded transport faults and a flapping peer, asserting the resilience
// invariants end to end — every request answers correctly (byte-identical
// to a single process, explicitly degraded at worst), zero 5xx, and
// recovery is discovered by the background prober, never billed to a user
// request. check.sh runs it under -race.

// chaosFleet boots a 3-replica scatter fleet with fast probing, plus a solo
// reference server, both serving the same workload.
func chaosFleet(t *testing.T) (fleet []*Server, solo *Server) {
	t.Helper()
	solo = testServer(t)
	uploadSpecWorkload(t, solo, "web", 300)
	fleet = clusterServersOpts(t, 3, true, func(o *Options) {
		o.ProbeInterval = 25 * time.Millisecond
	})
	uploadSpecWorkload(t, fleet[0], "web", 300)
	waitWorkload(t, fleet[1], "web")
	waitWorkload(t, fleet[2], "web")
	return fleet, solo
}

// soloRefs computes the reference P99 answer per seed on the standalone
// server; fleet answers must match these byte for byte.
func soloRefs(t *testing.T, solo *Server, seeds []uint64, numPaths int) map[uint64]string {
	t.Helper()
	refs := make(map[uint64]string, len(seeds))
	for _, seed := range seeds {
		var est estimateResponse
		rec := do(t, solo, "POST", "/v1/estimate",
			estimateRequest{Workload: "web", NumPaths: numPaths, Seed: seed}, &est)
		mustCode(t, rec, http.StatusOK)
		b, err := json.Marshal(est.P99)
		if err != nil {
			t.Fatal(err)
		}
		refs[seed] = string(b)
	}
	return refs
}

// TestChaosFleetResilience is the gate proper.
func TestChaosFleetResilience(t *testing.T) {
	fleet, solo := chaosFleet(t)
	// Distinct seeds per phase: reusing a seed would serve later phases from
	// the estimate cache and never exercise the network.
	seeds := make([]uint64, 24)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	refs := soloRefs(t, solo, seeds, 40)

	// Deterministic 10% connection resets under everything the fleet sends,
	// plus a test-controlled flap switch that black-holes one replica.
	base := faultinject.Chaos(faultinject.ChaosConfig{Seed: 7, ResetRate: 0.10})
	var flapHost atomic.Value
	flapHost.Store("")
	faultinject.Set("cluster.rpc", func(detail any) {
		f, ok := detail.(*faultinject.RPCFault)
		if !ok {
			return
		}
		if h := flapHost.Load().(string); h != "" && f.Host == h {
			f.Err = faultinject.ErrInjectedReset
			return
		}
		base(detail)
	})
	t.Cleanup(faultinject.Clear)

	// Phase 1: 10% transport faults. Every request must answer 200 with the
	// solo-identical P99 — retries and local fallback absorb the faults.
	checkRequests := func(phase string, phaseSeeds []uint64, targets []*Server) {
		t.Helper()
		for i, seed := range phaseSeeds {
			s := targets[i%len(targets)]
			var est estimateResponse
			rec := do(t, s, "POST", "/v1/estimate",
				estimateRequest{Workload: "web", NumPaths: 40, Seed: seed}, &est)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s request %d: status %d (want 200, zero 5xx): %s",
					phase, i, rec.Code, rec.Body.String())
			}
			got, err := json.Marshal(est.P99)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != refs[seed] {
				t.Fatalf("%s request %d (seed %d): answer diverged from single-process\nsolo:  %s\nfleet: %s",
					phase, i, seed, refs[seed], got)
			}
		}
	}
	checkRequests("chaos", seeds[:12], fleet)

	// The schedule must actually have bitten: the fleet absorbed faults via
	// retries (or shard fallbacks), it didn't just get lucky.
	absorbed := int64(0)
	for _, s := range fleet {
		for _, ps := range s.fleet.Status() {
			absorbed += ps.Retries
		}
		absorbed += s.metrics.scatterFallbackShards.Load()
	}
	if absorbed == 0 {
		t.Fatal("no retries or fallbacks recorded; the chaos schedule never fired")
	}

	// Phase 2: flap one replica — every RPC to fleet[2] now resets. The
	// other two must keep answering correctly and open their breakers for it.
	flapped := fleet[2].fleet.Self()
	flapHost.Store(flapped)
	checkRequests("flap", seeds[12:18], fleet[:2])
	for i, s := range fleet[:2] {
		if p := s.fleet.Peer(flapped); p.Up() {
			t.Fatalf("replica %d never opened its breaker for the flapped peer", i)
		}
	}

	// Phase 3: flap ends. With NO user requests in flight, the background
	// prober alone must re-admit the peer on both replicas.
	probesBefore := []int64{
		fleet[0].fleet.Peer(flapped).Probes(),
		fleet[1].fleet.Peer(flapped).Probes(),
	}
	flapHost.Store("")
	deadline := time.Now().Add(10 * time.Second)
	for i, s := range fleet[:2] {
		p := s.fleet.Peer(flapped)
		for !p.Up() {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d: prober never re-admitted the recovered peer (state %s, probes %d)",
					i, p.BreakerState(), p.Probes())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if p.Probes() <= probesBefore[i] {
			t.Fatalf("replica %d re-admitted the peer without new probes — a user request paid for discovery", i)
		}
	}

	// Phase 4: the healed fleet still answers byte-identically everywhere.
	checkRequests("healed", seeds[18:], fleet)
}

// TestDeadlinePropagationShedsDoomedShard: a shard arriving with less
// remaining budget than the floor is refused up front with the retryable
// timeout code — the peer never computes work its caller cannot receive.
func TestDeadlinePropagationShedsDoomedShard(t *testing.T) {
	servers := clusterServers(t, 2, true)
	a, b := servers[0], servers[1]
	uploadSpecWorkload(t, a, "web", 300)
	waitWorkload(t, b, "web")
	wl, ok := b.workload("web")
	if !ok {
		t.Fatal("workload never replicated")
	}
	cfg, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	shard := cluster.PathsRequest{
		Workload: "web",
		Hash:     uint64(wl.Hash),
		Method:   "ml",
		Cfg:      cfg,
		Indices:  []int{0, 1},
		Mults:    []int{1, 1},
	}

	// 1ms of budget is under the floor: refuse, don't compute.
	shard.DeadlineNS = int64(time.Millisecond)
	rec := do(t, b, "POST", cluster.PathsEndpoint, shard, nil)
	mustCode(t, rec, http.StatusGatewayTimeout)
	var eb cluster.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if eb.Code != cluster.CodeTimeout {
		t.Fatalf("code %q, want %q (retryable, so the coordinator falls back locally)", eb.Code, cluster.CodeTimeout)
	}
	if !cluster.Retryable(eb.Code) {
		t.Fatal("deadline shed must be retryable")
	}

	// An honest budget computes normally.
	shard.DeadlineNS = int64(10 * time.Second)
	var resp cluster.PathsResponse
	rec = do(t, b, "POST", cluster.PathsEndpoint, shard, &resp)
	mustCode(t, rec, http.StatusOK)
	if len(resp.Outs) != 2 {
		t.Fatalf("got %d outputs, want 2", len(resp.Outs))
	}
	// Every per-path stage crosses the wire to the coordinator.
	if resp.ScenarioNs <= 0 || resp.PathSimNs <= 0 || resp.FeaturizeNs <= 0 || resp.PredictNs <= 0 {
		t.Errorf("shard stages scenario=%d pathsim=%d featurize=%d predict=%d ns, want all > 0",
			resp.ScenarioNs, resp.PathSimNs, resp.FeaturizeNs, resp.PredictNs)
	}
}

// TestDeadlinePropagationCacheWait: the cachefetch Wait path sheds doomed
// budgets the same way.
func TestDeadlinePropagationCacheWait(t *testing.T) {
	servers := clusterServers(t, 2, false)
	a, b := servers[0], servers[1]
	uploadSpecWorkload(t, a, "web", 300)
	waitWorkload(t, b, "web")

	req := cluster.KeyRequest{Wait: true, DeadlineNS: int64(time.Millisecond)}
	rec := do(t, b, "POST", cluster.CacheFetchEndpoint, req, nil)
	mustCode(t, rec, http.StatusGatewayTimeout)
	var eb cluster.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != cluster.CodeTimeout {
		t.Fatalf("code %q, want %q", eb.Code, cluster.CodeTimeout)
	}
}

// TestRetryAfterAdaptive: the 429 Retry-After header tracks observed
// estimate latency, clamped to [1, 30] seconds.
func TestRetryAfterAdaptive(t *testing.T) {
	s := testServer(t)
	uploadSpecWorkload(t, s, "web", 300)

	// Saturate admission so every estimate sheds.
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}()
	shed := func() string {
		t.Helper()
		rec := do(t, s, "POST", "/v1/estimate", estimateRequest{Workload: "web"}, nil)
		mustCode(t, rec, http.StatusTooManyRequests)
		return rec.Header().Get("Retry-After")
	}

	if got := shed(); got != "1" {
		t.Fatalf("Retry-After with no latency data = %q, want floor \"1\"", got)
	}
	s.metrics.observeEstimateLatency(5 * time.Second)
	if got := shed(); got != "5" {
		t.Fatalf("Retry-After after 5s estimates = %q, want \"5\"", got)
	}
	s.metrics.observeEstimateLatency(10 * time.Minute)
	if got := shed(); got != "30" {
		t.Fatalf("Retry-After after a 10m outlier = %q, want ceiling \"30\"", got)
	}
	if got := fmt.Sprint(s.metrics.retryAfterSeconds()); got != "30" {
		t.Fatalf("retry_after_s metric = %s, want 30", got)
	}
}
