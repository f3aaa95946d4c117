package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"m3/internal/core"
	"m3/internal/model"
	"m3/internal/pathsim"
	"m3/internal/rng"
	"m3/internal/routing"
	"m3/internal/serve"
	"m3/internal/topo"
	"m3/internal/workload"
)

// harness is an in-process server (or scatter fleet) behind loopback HTTP
// listeners, plus the client the load generator drives it with. The first
// replica is the one clients talk to.
type harness struct {
	servers []*serve.Server
	https   []*http.Server
	addrs   []string
	client  *http.Client
	serving sync.WaitGroup
}

// startHarness builds def's server: one standalone replica, or a fleet of
// def.Replicas scattering estimates across each other.
func startHarness(m *model.Net, def *workloadDef) (*harness, error) {
	h := &harness{client: &http.Client{
		Timeout:   3 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute},
	}}
	listeners := make([]net.Listener, def.Replicas)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = l
		h.addrs = append(h.addrs, l.Addr().String())
	}
	for i, l := range listeners {
		opts := serve.Options{Net: m, Workers: def.Workers}
		if def.Replicas > 1 {
			opts.Advertise = h.addrs[i]
			opts.Scatter = true
			for j, a := range h.addrs {
				if j != i {
					opts.Peers = append(opts.Peers, a)
				}
			}
		}
		s, err := serve.New(opts)
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			h.close()
			return nil, err
		}
		hs := &http.Server{Handler: s}
		h.servers = append(h.servers, s)
		h.https = append(h.https, hs)
		h.serving.Add(1)
		go func() {
			defer h.serving.Done()
			_ = hs.Serve(l) // returns http.ErrServerClosed on close
		}()
	}
	return h, nil
}

// close stops the listeners, waits for them to exit, and releases the
// servers' pools.
func (h *harness) close() {
	for _, hs := range h.https {
		hs.Close()
	}
	h.serving.Wait()
	for _, s := range h.servers {
		s.Close()
	}
	h.client.CloseIdleConnections()
}

// reply is one HTTP answer.
type reply struct {
	status int
	body   []byte
	lat    time.Duration
}

// call sends one request to replica i and reads the whole answer.
func (h *harness) call(i int, method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+h.addrs[i]+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: raw, lat: lat}, nil
}

// register creates the benchmark workload and waits until every replica
// serves it, returning its hash as the server reports it.
func (h *harness) register(seed uint64) (string, error) {
	r, err := h.call(0, "POST", "/v1/workloads", registerBody(seed))
	if err != nil {
		return "", err
	}
	if r.status != http.StatusCreated {
		return "", fmt.Errorf("perfbench: register workload: status %d: %s", r.status, r.body)
	}
	var info struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(r.body, &info); err != nil {
		return "", err
	}
	// Fleet replication is asynchronous.
	deadline := time.Now().Add(30 * time.Second)
	for i := 1; i < len(h.addrs); i++ {
		for {
			r, err := h.call(i, "GET", "/v1/workloads/"+workloadName, nil)
			if err == nil && r.status == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				return "", fmt.Errorf("perfbench: workload never replicated to %s", h.addrs[i])
			}
			time.Sleep(time.Millisecond)
		}
	}
	return info.Hash, nil
}

// metricsSnapshot reads the first replica's /metrics.
func (h *harness) metricsSnapshot() (serverMetrics, error) {
	var m serverMetrics
	r, err := h.call(0, "GET", "/metrics", nil)
	if err != nil {
		return m, err
	}
	if r.status != http.StatusOK {
		return m, fmt.Errorf("perfbench: /metrics status %d", r.status)
	}
	return m, json.Unmarshal(r.body, &m)
}

// serverMetrics is the part of /metrics the traced run reads.
type serverMetrics struct {
	Shed    int64 `json:"shed"`
	Cluster *struct {
		Peers []struct {
			Retries int64 `json:"retries"`
		} `json:"peers"`
		Scatter struct {
			RemoteShards   int64 `json:"remote_shards"`
			FallbackShards int64 `json:"fallback_shards"`
		} `json:"scatter"`
	} `json:"cluster"`
}

func (m serverMetrics) peerRetries() int64 {
	var n int64
	if m.Cluster != nil {
		for _, p := range m.Cluster.Peers {
			n += p.Retries
		}
	}
	return n
}

// estimateReply is the /v1/estimate answer (and one what-if result).
type estimateReply struct {
	Backend       string             `json:"backend"`
	Cached        bool               `json:"cached"`
	ElapsedMS     float64            `json:"elapsed_ms"`
	Degraded      bool               `json:"degraded"`
	DegradedPaths int                `json:"degraded_paths"`
	P99           map[string]float64 `json:"p99"`
	StagesMS      map[string]float64 `json:"stages_ms"`
	OverlapRatio  float64            `json:"overlap_ratio"`
}

// quantilesReply is the /v1/quantiles answer.
type quantilesReply struct {
	Cached    bool                          `json:"cached"`
	Quantiles map[string]map[string]float64 `json:"quantiles"`
}

// whatIfReply is the /v1/whatif answer.
type whatIfReply struct {
	Results []struct {
		Estimate estimateReply `json:"estimate"`
	} `json:"results"`
}

// answer is one decoded answer: the estimates it carries (one, or one per
// what-if config) or the quantile table.
type answer struct {
	ests      []estimateReply
	quantiles *quantilesReply
}

// decodeAnswer parses a 200 answer of kind k.
func decodeAnswer(k reqKind, body []byte) (answer, error) {
	switch k {
	case reqQuantiles:
		var q quantilesReply
		if err := json.Unmarshal(body, &q); err != nil {
			return answer{}, err
		}
		return answer{quantiles: &q}, nil
	case reqWhatIf:
		var w whatIfReply
		if err := json.Unmarshal(body, &w); err != nil {
			return answer{}, err
		}
		a := answer{}
		for _, r := range w.Results {
			a.ests = append(a.ests, r.Estimate)
		}
		return a, nil
	}
	var e estimateReply
	if err := json.Unmarshal(body, &e); err != nil {
		return answer{}, err
	}
	return answer{ests: []estimateReply{e}}, nil
}

// send sends r to the harness and decodes the answer; a transport
// error or a non-200 status is an error.
func (h *harness) send(def *workloadDef, r request) (answer, reply, error) {
	method, path, body := def.httpRequest(r)
	rep, err := h.call(0, method, path, body)
	if err != nil {
		return answer{}, rep, err
	}
	if rep.status != http.StatusOK {
		return answer{}, rep, fmt.Errorf("perfbench: %s %s: status %d: %.200s", method, path, rep.status, rep.body)
	}
	a, err := decodeAnswer(r.kind, rep.body)
	return a, rep, err
}

// localWorkload is the benchmark's own copy of the registered workload,
// built from the same public generators the server uses, for the direct
// estimates the output checks compare against and for the traced replay.
type localWorkload struct {
	ft    *topo.FatTree
	flows []workload.Flow
	d     *pathsim.Decomposition
	hash  core.WorkloadHash
}

// generateWorkload builds the flows of the registered spec.
func generateWorkload(seed uint64) (*topo.FatTree, []workload.Flow, error) {
	ft, err := topo.SmallFatTree(topo.Oversub(benchSpec.Oversub))
	if err != nil {
		return nil, nil, err
	}
	sizes, err := workload.MetaDist(benchSpec.SizeDist)
	if err != nil {
		return nil, nil, err
	}
	ss := specSeed(seed)
	mat, err := workload.Matrix(benchSpec.Matrix, ft.Cfg.NumRacks(), rng.New(ss))
	if err != nil {
		return nil, nil, err
	}
	flows, err := workload.Generate(ft, routing.NewFatTreeRouter(ft), workload.Spec{
		NumFlows: benchSpec.NumFlows, Sizes: sizes, Matrix: mat,
		Burstiness: benchSpec.Burstiness, MaxLoad: benchSpec.MaxLoad, Seed: ss,
	})
	return ft, flows, err
}

// fingerprintHex renders a hash as the server prints it.
func fingerprintHex(v uint64) string { return fmt.Sprintf("%016x", v) }

// checkHash confirms the local copy is the workload the server registered.
func (lw *localWorkload) checkHash(served string) error {
	if got := fingerprintHex(uint64(lw.hash)); got != served {
		return fmt.Errorf("perfbench: local workload hash %s differs from served %s", got, served)
	}
	return nil
}

// directEstimate computes r's estimates with core.Estimator exactly as the
// server's estimate path configures it, for the bit-for-bit checks.
func directEstimate(ctx context.Context, net *model.Net, pool *core.Pool, lw *localWorkload,
	def *workloadDef, r request) ([]*core.Estimate, error) {

	cfgs, err := def.configs(r)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Estimate, 0, len(cfgs))
	for _, cfg := range cfgs {
		est := core.NewEstimator(net,
			core.WithMethod(core.MethodML),
			core.WithNumPaths(def.NumPaths),
			core.WithSeed(r.seed),
			core.WithPool(pool),
			core.WithDecomposition(lw.d),
			core.WithFlowSimFallback(true))
		res, err := est.Estimate(ctx, lw.ft.Topology, lw.flows, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
