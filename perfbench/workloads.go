package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strconv"

	"m3/internal/packetsim"
)

// workloadName is the registry name of the one workload every benchmark
// workload estimates against.
const workloadName = "bench"

// specParams is the registered workload: 8000 flows, WebServer sizes,
// matrix B, max load 0.5, burstiness 1.5, on the 256-host 2:1 fat tree. Its
// generation seed comes from the benchmark's --seed.
type specParams struct {
	Topo       string  `json:"topo"`
	Oversub    string  `json:"oversub"`
	NumFlows   int     `json:"num_flows"`
	SizeDist   string  `json:"size_dist"`
	Matrix     string  `json:"matrix"`
	MaxLoad    float64 `json:"max_load"`
	Burstiness float64 `json:"burstiness"`
}

var benchSpec = specParams{
	Topo: "small", Oversub: "2-to-1", NumFlows: 8000,
	SizeDist: "WebServer", Matrix: "B", MaxLoad: 0.5, Burstiness: 1.5,
}

// Request kinds the workloads send.
type reqKind int

const (
	reqEstimate reqKind = iota
	reqQuantiles
	reqWhatIf
)

// sweep is one what-if counterfactual.
type sweep struct {
	Name  string            `json:"name"`
	Knobs map[string]string `json:"knobs"`
}

// workloadDef is one benchmark workload: a traffic mix against the server.
// All four are closed loops, because operators wait for each answer.
type workloadDef struct {
	Name string `json:"name"`
	// Clients is the closed-loop client count.
	Clients int `json:"clients"`
	// Replicas and Workers size the server: one standalone replica with
	// the whole pool, or a scatter fleet splitting it.
	Replicas int `json:"replicas"`
	Workers  int `json:"workers_per_replica"`
	// Endpoints lists what the clients send.
	Endpoints []string `json:"endpoints"`
	NumPaths  int      `json:"num_paths"`
	// Keys is the size of the primed key set (warm-queries only).
	Keys      int    `json:"keys,omitempty"`
	Quantiles string `json:"quantiles,omitempty"`
	// Base and Sweeps form the what-if batch (whatif-sweep only).
	Base   map[string]string `json:"base,omitempty"`
	Sweeps []sweep           `json:"sweeps,omitempty"`
}

// workloads are the benchmark's traffic mixes. At most 2 clients and 2
// pool workers in total, so on the 2-CPU bench box the numbers measure the
// program rather than the scheduler.
var workloads = []workloadDef{
	{
		// Every request misses the cache: the full pipeline, where
		// pathsim, flowsim and the model do nearly all the work.
		Name: "cold-estimate", Clients: 1, Replicas: 1, Workers: 2,
		Endpoints: []string{"POST /v1/estimate"}, NumPaths: 200,
	},
	{
		// Every request hits one of 16 primed keys, well inside the
		// 64-entry LRU: isolates serve, cache, fingerprint, quantile and
		// encode; flowsim and predict do no work.
		Name: "warm-queries", Clients: 2, Replicas: 1, Workers: 2,
		Endpoints: []string{"POST /v1/estimate", "GET /v1/quantiles"}, NumPaths: 200,
		Keys: 16, Quantiles: "0.5,0.9,0.99,0.999",
	},
	{
		// Four estimates per request share sampled paths and flowSim
		// inputs and differ only in the config fed to predict: a
		// flowSim/scenario reuse change shows here and not on cold.
		Name: "whatif-sweep", Clients: 1, Replicas: 1, Workers: 2,
		Endpoints: []string{"POST /v1/whatif"}, NumPaths: 100,
		Base: map[string]string{"cc": "dctcp"},
		Sweeps: []sweep{
			{Name: "hpcc", Knobs: map[string]string{"cc": "hpcc"}},
			{Name: "timely", Knobs: map[string]string{"cc": "timely"}},
			{Name: "buffer", Knobs: map[string]string{"buffer": "400000"}},
		},
	},
	{
		// The cold load aimed at a 2-replica scatter fleet: the only
		// workload through internal/cluster (shard RPC, wire JSON, merge).
		Name: "scatter-estimate", Clients: 1, Replicas: 2, Workers: 1,
		Endpoints: []string{"POST /v1/estimate"}, NumPaths: 200,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("perfbench: unknown workload %q", name)
}

// Seed-derivation salts: every input is a pure function of --seed.
const (
	saltSpec uint64 = iota + 1
	saltRequest
	saltPrime
	saltKey
	saltKeyPick
)

// derive mixes the benchmark seed with a salt and indices (splitmix64
// finalizer per word). The result is never 0, which the server would read
// as "default seed".
func derive(seed, salt uint64, idx ...uint64) uint64 {
	h := seed ^ salt*0x9e3779b97f4a7c15
	for _, v := range append([]uint64{salt}, idx...) {
		h ^= v
		h += 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	if h == 0 {
		h = 1
	}
	return h
}

// request is one request's inputs.
type request struct {
	kind reqKind
	seed uint64
	// key is the primed key index (warm-queries), -1 otherwise.
	key int
}

// next returns client's seq-th request: cold, what-if and scatter draw a
// fresh sampling seed every time; warm-queries alternates estimate and
// quantiles over the primed keys.
func (w *workloadDef) next(seed uint64, client, seq int) request {
	if w.Keys > 0 {
		k := int(derive(seed, saltKeyPick, uint64(client), uint64(seq)) % uint64(w.Keys))
		kind := reqEstimate
		if (client+seq)%2 == 1 {
			kind = reqQuantiles
		}
		return request{kind: kind, seed: derive(seed, saltKey, uint64(k)), key: k}
	}
	r := request{kind: reqEstimate, seed: derive(seed, saltRequest, uint64(client), uint64(seq)), key: -1}
	if w.Sweeps != nil {
		r.kind = reqWhatIf
	}
	return r
}

// priming returns the requests set-up sends before timing starts: every
// primed key for warm-queries, one uncounted request otherwise.
func (w *workloadDef) priming(seed uint64) []request {
	if w.Keys > 0 {
		out := make([]request, w.Keys)
		for k := range out {
			out[k] = request{kind: reqEstimate, seed: derive(seed, saltKey, uint64(k)), key: k}
		}
		return out
	}
	r := request{kind: reqEstimate, seed: derive(seed, saltPrime), key: -1}
	if w.Sweeps != nil {
		r.kind = reqWhatIf
	}
	return []request{r}
}

// registerBody is the POST /v1/workloads body.
func registerBody(seed uint64) []byte {
	b, _ := json.Marshal(map[string]any{
		"name": workloadName, "topo": benchSpec.Topo, "oversub": benchSpec.Oversub,
		"spec": map[string]any{
			"num_flows": benchSpec.NumFlows, "size_dist": benchSpec.SizeDist,
			"matrix": benchSpec.Matrix, "max_load": benchSpec.MaxLoad,
			"burstiness": benchSpec.Burstiness, "seed": specSeed(seed),
		},
	})
	return b
}

// specSeed is the workload generation seed.
func specSeed(seed uint64) uint64 { return derive(seed, saltSpec) }

// httpRequest renders r as a method, path and body.
func (w *workloadDef) httpRequest(r request) (method, path string, body []byte) {
	switch r.kind {
	case reqQuantiles:
		q := url.Values{}
		q.Set("workload", workloadName)
		q.Set("paths", strconv.Itoa(w.NumPaths))
		q.Set("seed", strconv.FormatUint(r.seed, 10))
		q.Set("q", w.Quantiles)
		return "GET", "/v1/quantiles?" + q.Encode(), nil
	case reqWhatIf:
		body, _ = json.Marshal(map[string]any{
			"workload": workloadName, "num_paths": w.NumPaths, "seed": r.seed,
			"base": w.Base, "sweeps": w.Sweeps,
		})
		return "POST", "/v1/whatif", body
	}
	body, _ = json.Marshal(map[string]any{
		"workload": workloadName, "num_paths": w.NumPaths, "seed": r.seed,
	})
	return "POST", "/v1/estimate", body
}

// configs lists the network configs one request estimates, in answer
// order: the default config, or a what-if's base followed by each sweep
// with the base knobs under it.
func (w *workloadDef) configs(r request) ([]packetsim.Config, error) {
	if r.kind != reqWhatIf {
		return []packetsim.Config{packetsim.DefaultConfig()}, nil
	}
	out := make([]packetsim.Config, 0, len(w.Sweeps)+1)
	for i := -1; i < len(w.Sweeps); i++ {
		knobs := map[string]string{}
		for k, v := range w.Base {
			knobs[k] = v
		}
		if i >= 0 {
			for k, v := range w.Sweeps[i].Knobs {
				knobs[k] = v
			}
		}
		cfg, err := configFor(knobs)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

// configFor applies knobs over the default config in sorted order, as the
// server does.
func configFor(knobs map[string]string) (packetsim.Config, error) {
	cfg := packetsim.DefaultConfig()
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
	return cfg, cfg.Validate()
}
