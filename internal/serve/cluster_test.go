package serve

import (
	"encoding/json"
	"fmt"
	stdnet "net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"m3/internal/core"
	"m3/internal/model"
)

// clusterServers starts n in-process Servers wired into one fleet over real
// loopback HTTP listeners (the cluster clients dial peer addresses, so
// httptest's handler-only servers are not enough).
func clusterServers(t *testing.T, n int, scatter bool) []*Server {
	t.Helper()
	return clusterServersOpts(t, n, scatter, nil)
}

// clusterServersOpts is clusterServers with an Options hook (chaos tests
// shorten the probe interval and retry knobs).
func clusterServersOpts(t *testing.T, n int, scatter bool, mutate func(*Options)) []*Server {
	t.Helper()
	listeners := make([]stdnet.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
		testListenersMu.Lock()
		testListeners[addrs[i]] = l
		testListenersMu.Unlock()
		addr := addrs[i]
		t.Cleanup(func() {
			testListenersMu.Lock()
			delete(testListeners, addr)
			testListenersMu.Unlock()
			l.Close()
		})
	}
	servers := make([]*Server, n)
	for i := range servers {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		opts := Options{
			Net:       tinyNet(t, 1),
			Workers:   2,
			CacheSize: 8,
			Advertise: addrs[i],
			Peers:     peers,
			Scatter:   scatter,
		}
		if mutate != nil {
			mutate(&opts)
		}
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		t.Cleanup(s.Close)
		hsrv := &http.Server{Handler: s}
		testListenersMu.Lock()
		testHTTPServers[addrs[i]] = hsrv
		testListenersMu.Unlock()
		go hsrv.Serve(listeners[i])
	}
	return servers
}

// waitWorkload polls until the server's registry holds name (replication is
// asynchronous).
func waitWorkload(t *testing.T, s *Server, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.workload(name); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workload %q never replicated to %s", name, s.fleet.Self())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// seedOwnedBy finds a sampling seed whose estimate cache key is rendezvous-
// owned by the given member, so tests can steer keys at specific replicas.
func seedOwnedBy(t *testing.T, s *Server, owner string, numPaths int) uint64 {
	t.Helper()
	wl, ok := s.workload("web")
	if !ok {
		t.Fatal("workload web not registered")
	}
	cfg, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed < 1000; seed++ {
		key := core.EstimateKey{
			Workload: wl.Hash,
			Cfg:      cfg,
			Method:   core.MethodML,
			NumPaths: numPaths,
			Seed:     seed,
			Model:    s.modelFP.Load(),
			Backend:  model.KindNet,
		}
		if s.fleet.OwnerOf(key.Digest()) == owner {
			return seed
		}
	}
	t.Fatalf("no seed in [1,1000) owned by %s", owner)
	return 0
}

// TestClusterRegistryReplication: a workload created on one replica appears
// on the others, rebuilt from the original request; deleting it anywhere
// deletes it everywhere.
func TestClusterRegistryReplication(t *testing.T) {
	servers := clusterServers(t, 2, false)
	a, b := servers[0], servers[1]

	uploadSpecWorkload(t, a, "web", 300)
	waitWorkload(t, b, "web")
	wa, _ := a.workload("web")
	wb, _ := b.workload("web")
	if wa.Hash != wb.Hash {
		t.Fatalf("replicated workload hash %x != origin %x (not rebuilt deterministically)", wb.Hash, wa.Hash)
	}

	rec := do(t, b, "DELETE", "/v1/workloads/web", nil, nil)
	mustCode(t, rec, http.StatusOK)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := a.workload("web"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delete never replicated")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterPeerCacheHit: replica B's local miss is answered by the key's
// hash owner A without recomputing (the two-tier cache's reason to exist).
func TestClusterPeerCacheHit(t *testing.T) {
	servers := clusterServers(t, 2, false)
	a, b := servers[0], servers[1]
	uploadSpecWorkload(t, a, "web", 300)
	waitWorkload(t, b, "web")

	seed := seedOwnedBy(t, a, a.fleet.Self(), 16)
	req := estimateRequest{Workload: "web", NumPaths: 16, Seed: seed}

	var est estimateResponse
	rec := do(t, a, "POST", "/v1/estimate", req, &est)
	mustCode(t, rec, http.StatusOK)
	if est.Cached {
		t.Fatal("first estimate on the owner should compute")
	}

	rec = do(t, b, "POST", "/v1/estimate", req, &est)
	mustCode(t, rec, http.StatusOK)
	if !est.Cached {
		t.Fatal("B's local miss should have been served by owner A's cache")
	}
	stats := b.cache.Stats()
	if stats.PeerHits != 1 {
		t.Fatalf("peer hits = %d, want 1 (stats %+v)", stats.PeerHits, stats)
	}
	if b.metrics.estimates.Load() != 0 {
		t.Fatalf("B computed %d estimates, want 0", b.metrics.estimates.Load())
	}
}

// TestClusterPeerDownFallback: with the key's owner dead, the replica
// computes locally — a lost peer costs the cache tier, never availability —
// and the breaker keeps later requests from re-paying the probe.
func TestClusterPeerDownFallback(t *testing.T) {
	servers := clusterServers(t, 2, false)
	a, b := servers[0], servers[1]
	uploadSpecWorkload(t, a, "web", 300)
	waitWorkload(t, b, "web")
	seed := seedOwnedBy(t, a, a.fleet.Self(), 16)

	// Kill A's listener: B's fetch now fails at the transport level.
	p := b.fleet.Peers()[0]
	req := estimateRequest{Workload: "web", NumPaths: 16, Seed: seed}
	var est estimateResponse
	aAddr := a.fleet.Self()
	// Closing the listener is done by reaching into the test fixture:
	// connect refusal is immediate, so the fallback path is fast.
	closeListener(t, aAddr)

	rec := do(t, b, "POST", "/v1/estimate", req, &est)
	mustCode(t, rec, http.StatusOK)
	if est.Cached {
		t.Fatal("with the owner down the estimate must be computed locally")
	}
	if p.Up() {
		t.Fatal("transport failure should have tripped the peer's breaker")
	}
	// Repeat: the down peer is skipped without a probe, and the local cache
	// serves the repeat.
	rec = do(t, b, "POST", "/v1/estimate", req, &est)
	mustCode(t, rec, http.StatusOK)
	if !est.Cached {
		t.Fatal("repeat should hit B's local cache")
	}
}

// Transport fixtures by address, so tests can kill a replica the way a
// process death would: listener gone AND established connections torn down
// (a bare listener close leaves keep-alive connections serving).
var (
	testListenersMu sync.Mutex
	testListeners   = map[string]stdnet.Listener{}
	testHTTPServers = map[string]*http.Server{}
)

func closeListener(t *testing.T, addr string) {
	t.Helper()
	testListenersMu.Lock()
	l, lok := testListeners[addr]
	hsrv, hok := testHTTPServers[addr]
	delete(testListeners, addr)
	delete(testHTTPServers, addr)
	testListenersMu.Unlock()
	if !lok || !hok {
		t.Fatalf("no transport recorded for %s", addr)
	}
	hsrv.Close()
	l.Close()
}

// TestClusterSingleFlight: concurrent same-key requests across both
// replicas collapse onto at most one computation per replica (local
// single-flight plus the Wait join on the owner), instead of one per
// request.
func TestClusterSingleFlight(t *testing.T) {
	servers := clusterServers(t, 2, false)
	a, b := servers[0], servers[1]
	uploadSpecWorkload(t, a, "web", 300)
	waitWorkload(t, b, "web")
	seed := seedOwnedBy(t, a, a.fleet.Self(), 16)
	req := estimateRequest{Workload: "web", NumPaths: 16, Seed: seed}

	const perServer = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*perServer)
	for i := 0; i < perServer; i++ {
		for _, s := range []*Server{a, b} {
			wg.Add(1)
			go func(s *Server) {
				defer wg.Done()
				var est estimateResponse
				rec := do(t, s, "POST", "/v1/estimate", req, &est)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
				}
			}(s)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	computed := a.metrics.estimates.Load() + b.metrics.estimates.Load()
	if computed > 2 {
		t.Fatalf("%d requests computed %d estimates, want at most one per replica", 2*perServer, computed)
	}
}

// TestClusterInvalidateOnReload: a reload on one replica broadcasts the new
// fingerprint; peers drop stale cache entries and converge by reloading the
// same checkpoint.
func TestClusterInvalidateOnReload(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := tinyNet(t, 1).SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}
	servers := clusterServers(t, 2, false)
	a, b := servers[0], servers[1]
	a.opts.CheckpointPath = ckpt
	b.opts.CheckpointPath = ckpt
	uploadSpecWorkload(t, a, "web", 300)
	waitWorkload(t, b, "web")

	// Warm both caches under the current fingerprint.
	for i, s := range servers {
		var est estimateResponse
		rec := do(t, s, "POST", "/v1/estimate",
			estimateRequest{Workload: "web", NumPaths: 16, Seed: uint64(100 + i)}, &est)
		mustCode(t, rec, http.StatusOK)
	}
	if st := b.cache.Stats(); st.Entries == 0 {
		t.Fatal("B's cache should hold a model-keyed entry before the reload")
	}
	oldFP := b.modelFP.Load()

	// Let the warm-up's asynchronous owner puts land before invalidating,
	// so none can re-add a stale entry after the broadcast.
	time.Sleep(100 * time.Millisecond)

	// Swap the artifact on disk and reload through A only.
	if err := tinyNet(t, 2).SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}
	rec := do(t, a, "POST", "/v1/reload", reloadRequest{Checkpoint: ckpt}, nil)
	mustCode(t, rec, http.StatusOK)

	deadline := time.Now().Add(5 * time.Second)
	for b.modelFP.Load() == oldFP {
		if time.Now().After(deadline) {
			t.Fatal("B never converged on the broadcast fingerprint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, want := b.modelFP.Load(), a.modelFP.Load(); got != want {
		t.Fatalf("fingerprints diverged after invalidate: %x != %x", got, want)
	}
	if st := b.cache.Stats(); st.Entries != 0 || st.OwnedEntries != 0 {
		t.Fatalf("stale model entries survived invalidation: %+v", st)
	}
	if b.metrics.invalidations.Load() == 0 {
		t.Fatal("B should have counted the invalidate broadcast")
	}
}

// TestClusterScatterParity: a scatter-gathered estimate answers quantile
// queries byte-identically to a standalone single-process server — shipping
// shards across processes must not change a single bit of the result.
func TestClusterScatterParity(t *testing.T) {
	solo := testServer(t)
	uploadSpecWorkload(t, solo, "web", 300)

	servers := clusterServers(t, 2, true)
	a, b := servers[0], servers[1]
	uploadSpecWorkload(t, a, "web", 300)
	waitWorkload(t, b, "web")

	const target = "/v1/quantiles?workload=web&paths=40&seed=3&q=0.5,0.9,0.99"
	recSolo := do(t, solo, "GET", target, nil, nil)
	mustCode(t, recSolo, http.StatusOK)
	recFleet := do(t, a, "GET", target, nil, nil)
	mustCode(t, recFleet, http.StatusOK)

	if solo.metrics.scatterEstimates.Load() != 0 {
		t.Fatal("standalone server must not scatter")
	}
	if a.metrics.scatterEstimates.Load() != 1 {
		t.Fatalf("fleet coordinator scattered %d estimates, want 1", a.metrics.scatterEstimates.Load())
	}
	if a.metrics.scatterRemoteShards.Load()+a.metrics.scatterFallbackShards.Load() == 0 {
		t.Fatal("scatter never left the coordinator (no remote or fallback shards)")
	}
	if recSolo.Body.String() != recFleet.Body.String() {
		t.Fatalf("scatter-gathered quantiles differ from single-process:\nsolo:  %s\nfleet: %s",
			recSolo.Body.String(), recFleet.Body.String())
	}
	if a.metrics.scenarioNs.Load() <= 0 || a.metrics.featurizeNs.Load() <= 0 {
		t.Errorf("scattered estimate stages scenario=%d featurize=%d ns, want both > 0",
			a.metrics.scenarioNs.Load(), a.metrics.featurizeNs.Load())
	}
}

// TestClusterScatterPeerDeath: killing a replica mid-scatter degrades the
// estimate (local fallback, Degraded surfaced) but never fails it, and the
// answer is still correct.
func TestClusterScatterPeerDeath(t *testing.T) {
	servers := clusterServers(t, 2, true)
	a, b := servers[0], servers[1]
	uploadSpecWorkload(t, a, "web", 300)
	waitWorkload(t, b, "web")
	// Steer the key to A: if dead B owned it, the tier-two fetch would trip
	// B's breaker before planning and the scatter would (correctly) never
	// assign B a shard — planned-around, not degraded. A-owned keys keep B
	// in the plan so its shard dies mid-scatter, the case under test.
	seed := seedOwnedBy(t, a, a.fleet.Self(), 40)
	closeListener(t, b.fleet.Self())

	var est estimateResponse
	rec := do(t, a, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: 40, Seed: seed}, &est)
	mustCode(t, rec, http.StatusOK)
	if !est.Degraded {
		t.Fatal("losing a shard's peer should surface Degraded")
	}
	if a.metrics.scatterFallbackShards.Load() == 0 {
		t.Fatal("the dead peer's shard should have fallen back locally")
	}

	// The degraded answer still matches a standalone computation.
	solo := testServer(t)
	uploadSpecWorkload(t, solo, "web", 300)
	var soloEst estimateResponse
	mustCode(t, do(t, solo, "POST", "/v1/estimate", estimateRequest{Workload: "web", NumPaths: 40, Seed: seed}, &soloEst), http.StatusOK)
	soloJSON, _ := json.Marshal(soloEst.P99)
	fleetJSON, _ := json.Marshal(est.P99)
	if string(soloJSON) != string(fleetJSON) {
		t.Fatalf("degraded scatter changed the answer:\nsolo:  %s\nfleet: %s", soloJSON, fleetJSON)
	}
}
