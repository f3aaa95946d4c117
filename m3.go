// Package m3 is a from-scratch Go reproduction of "m3: Accurate Flow-Level
// Performance Estimation using Machine Learning" (SIGCOMM 2024): a fast,
// scale-free estimator of data center network tail latency that decomposes
// the network into paths, summarizes each path's workload with a max-min
// fluid simulation (flowSim), and corrects the fluid estimates with a small
// transformer+MLP model trained on packet-level ground truth.
//
// The package exposes the complete system: topologies, workload generation,
// the packet-level ground-truth simulator, flowSim, the Parsimon baseline,
// model training, and the m3 estimator. A typical session:
//
//	ft, _ := m3.SmallFatTree(m3.Oversub2to1)
//	flows, _ := m3.GenerateWorkload(ft, m3.WorkloadSpec{ ... })
//	net, _ := m3.LoadPredictor("m3.ckpt")         // or m3.TrainModel(...)
//	est := m3.NewEstimator(net, m3.WithNumPaths(500), m3.WithSeed(1))
//	res, _ := est.Estimate(ctx, ft.Topology, flows, m3.DefaultNetConfig())
//	fmt.Println("p99 slowdown:", res.P99())
//
// Every estimation entry point takes a context.Context first; cancelling it
// aborts in-flight path simulations and batched inference promptly. For
// repeated queries over one workload (quantiles, per-pair paths, config
// what-ifs) open a Session; to serve estimates over HTTP build a serve
// handler from ServeConfig.
package m3

import (
	"context"

	"m3/internal/core"
	"m3/internal/model"
	"m3/internal/packetsim"
	"m3/internal/parsimon"
	"m3/internal/query"
	"m3/internal/rng"
	"m3/internal/routing"
	"m3/internal/serve"
	"m3/internal/topo"
	"m3/internal/unit"
	"m3/internal/workload"
)

// Re-exported core types. The aliases expose the full internal APIs.
type (
	// Topology is a network graph of nodes and directed links.
	Topology = topo.Topology
	// FatTree is a built fat-tree topology with its index structure.
	FatTree = topo.FatTree
	// ParkingLot is a path-level topology.
	ParkingLot = topo.ParkingLot
	// Oversub names an oversubscription ratio ("1-to-1", "2-to-1", "4-to-1").
	Oversub = topo.Oversub
	// Flow is one transfer with a fixed route.
	Flow = workload.Flow
	// WorkloadSpec configures full-network workload generation.
	WorkloadSpec = workload.Spec
	// SynthSpec configures synthetic parking-lot scenario generation.
	SynthSpec = workload.SynthSpec
	// SizeDist samples flow sizes.
	SizeDist = workload.SizeDist
	// TrafficMatrix weights rack-to-rack traffic.
	TrafficMatrix = workload.TrafficMatrix
	// NetConfig is the network configuration space (Table 4).
	NetConfig = packetsim.Config
	// CCType selects a congestion control protocol.
	CCType = packetsim.CCType
	// Model is the trained m3 network (the float backend).
	Model = model.Net
	// Predictor is the inference backend interface; *Model and
	// *QuantizedModel both satisfy it, and every estimation entry point
	// accepts it.
	Predictor = model.Predictor
	// QuantizedModel is the int8 weight-quantized backend, derived from a
	// trained Model with QuantizeModel.
	QuantizedModel = model.QuantizedNet
	// ModelConfig shapes the m3 network.
	ModelConfig = model.Config
	// TrainOptions controls model training.
	TrainOptions = model.TrainOptions
	// DataConfig controls synthetic training-set generation.
	DataConfig = model.DataConfig
	// Sample is one path-level training/inference example.
	Sample = model.Sample
	// Estimator runs the m3 pipeline. Construct with NewEstimator; it is
	// immutable and safe to share between goroutines.
	Estimator = core.Estimator
	// EstimatorOption configures NewEstimator.
	EstimatorOption = core.Option
	// Estimate is a network-wide estimation result.
	Estimate = core.Estimate
	// WorkerPool is a bounded worker pool shared between estimators.
	WorkerPool = core.Pool
	// Session answers repeated queries (quantiles, per-pair paths,
	// configuration what-ifs) over one loaded workload, with caching per
	// configuration.
	Session = query.Session
	// PathReport is a per-host-pair query result.
	PathReport = query.PathReport
	// ServeConfig configures the HTTP estimation service handler.
	ServeConfig = serve.Options
	// Server is the m3 HTTP estimation service (an http.Handler).
	Server = serve.Server
	// GroundTruthResult is a full-network packet-level baseline run.
	GroundTruthResult = core.GroundTruth
	// ParsimonResult is the link-level baseline's output.
	ParsimonResult = parsimon.Result
	// Method selects the per-path estimation backend.
	Method = core.Method
	// Time is simulated time in nanoseconds.
	Time = unit.Time
	// ByteSize is a data size in bytes.
	ByteSize = unit.ByteSize
	// Rate is a link rate in bits per second.
	Rate = unit.Rate
)

// Re-exported constants.
const (
	Oversub1to1 = topo.Oversub1to1
	Oversub2to1 = topo.Oversub2to1
	Oversub4to1 = topo.Oversub4to1

	DCTCP  = packetsim.DCTCP
	TIMELY = packetsim.TIMELY
	DCQCN  = packetsim.DCQCN
	HPCC   = packetsim.HPCC

	MethodML      = core.MethodML
	MethodFlowSim = core.MethodFlowSim
	MethodNS3Path = core.MethodNS3Path

	// Backend kinds, usable as the "backend" field of serve requests.
	BackendNet     = model.KindNet
	BackendNetInt8 = model.KindNetInt8

	KB = unit.KB
	MB = unit.MB

	Gbps = unit.Gbps
	Mbps = unit.Mbps

	Microsecond = unit.Microsecond
	Millisecond = unit.Millisecond
	Second      = unit.Second
)

// Meta production size distributions (Fig. 18b shapes).
var (
	WebServer     = workload.SizeDist(workload.WebServer)
	CacheFollower = workload.SizeDist(workload.CacheFollower)
	Hadoop        = workload.SizeDist(workload.Hadoop)
)

// SmallFatTree builds the paper's 32-rack, 256-host evaluation topology.
func SmallFatTree(o Oversub) (*FatTree, error) { return topo.SmallFatTree(o) }

// LargeFatTree builds the paper's 384-rack, 6144-host topology.
func LargeFatTree() (*FatTree, error) { return topo.LargeFatTree() }

// GenerateWorkload draws a calibrated workload on a fat-tree with ECMP
// routing.
func GenerateWorkload(ft *FatTree, spec WorkloadSpec) ([]Flow, error) {
	return workload.Generate(ft, routing.NewFatTreeRouter(ft), spec)
}

// DefaultNetConfig returns the midpoint of the Table 4 configuration space
// (DCTCP, PFC on).
func DefaultNetConfig() NetConfig { return packetsim.DefaultConfig() }

// DefaultModelConfig returns the CPU-scale model architecture.
func DefaultModelConfig() ModelConfig { return model.DefaultConfig() }

// DefaultDataConfig returns a CPU-scale training-set configuration.
func DefaultDataConfig() DataConfig { return model.DefaultDataConfig() }

// DefaultTrainOptions mirrors the paper's training setup at CPU scale.
func DefaultTrainOptions() TrainOptions { return model.DefaultTrainOptions() }

// TrainModel generates a synthetic Table 2 dataset and trains a fresh model
// on it, returning the trained network. Cancelling ctx aborts the parallel
// ground-truth generation promptly.
func TrainModel(ctx context.Context, mc ModelConfig, dc DataConfig, opt TrainOptions) (*Model, error) {
	net, err := model.New(mc)
	if err != nil {
		return nil, err
	}
	samples, err := model.Generate(ctx, dc)
	if err != nil {
		return nil, err
	}
	if _, err := net.Train(samples, opt); err != nil {
		return nil, err
	}
	return net, nil
}

// QuantizeModel derives the int8 weight-quantized backend from a trained
// float model: ~1/8 the weight footprint, integer matmuls, bit-stable
// outputs, with predictions within a small relative error of the float
// net's. The result plugs into NewEstimator, NewSession, and ServeConfig
// reloads like any other Predictor.
func QuantizeModel(net *Model) (*QuantizedModel, error) { return model.Quantize(net) }

// SavePredictor writes any checkpointable backend to path, tagged with its
// kind so LoadPredictor rebuilds the same kind.
func SavePredictor(p Predictor, path string) error { return model.SavePredictorFile(p, path) }

// LoadPredictor reads a checkpoint of any backend kind saved by
// SavePredictor.
func LoadPredictor(path string) (Predictor, error) { return model.LoadPredictorFile(path) }

// NewEstimator returns an m3 estimator with the paper's defaults
// (500 sampled paths, seed 1, micro-batched ML inference), adjusted by
// options. pred is any inference backend — a *Model, a *QuantizedModel —
// and may be nil for the model-free backends (WithMethod).
func NewEstimator(pred Predictor, opts ...EstimatorOption) *Estimator {
	return core.NewEstimator(pred, opts...)
}

// Estimator options, re-exported from the core pipeline.
var (
	// WithNumPaths sets the sampled-path budget (default 500).
	WithNumPaths = core.WithNumPaths
	// WithWorkers bounds per-path parallelism (0 = GOMAXPROCS).
	WithWorkers = core.WithWorkers
	// WithMethod selects the per-path backend (default MethodML).
	WithMethod = core.WithMethod
	// WithSeed seeds the path sampling (default 1).
	WithSeed = core.WithSeed
	// WithBatchSize sets the ML inference micro-batch size.
	WithBatchSize = core.WithBatchSize
	// WithPool points the estimator at a shared worker pool.
	WithPool = core.WithPool
	// WithPredictor swaps the inference backend on an existing option list.
	WithPredictor = core.WithPredictor
	// WithFlowSimFallback degrades gracefully to raw flowSim estimates
	// when the ML model is missing or emits non-finite slowdowns.
	WithFlowSimFallback = core.WithFlowSimFallback
)

// NewWorkerPool builds a bounded worker pool (n <= 0 means GOMAXPROCS) that
// estimators and sessions can share via WithPool / Session.Pool. Close it
// when done.
func NewWorkerPool(n int) *WorkerPool { return core.NewPool(n) }

// NewSession opens a query session over one workload: repeated quantile,
// per-pair path, and configuration what-if queries share cached estimates.
// pred is any inference backend (*Model, *QuantizedModel, ...).
func NewSession(t *Topology, flows []Flow, pred Predictor, cfg NetConfig) (*Session, error) {
	return query.NewSession(t, flows, pred, cfg)
}

// NewServer builds the HTTP estimation service handler (workload registry,
// estimate/quantile/what-if endpoints, checkpoint hot-reload). Close it when
// done to release its worker pool.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// GroundTruth runs the full-network packet-level simulation (ns-3 stand-in).
// Cancelling ctx aborts the run promptly with ctx.Err().
func GroundTruth(ctx context.Context, t *Topology, flows []Flow, cfg NetConfig) (*GroundTruthResult, error) {
	return core.RunGroundTruth(ctx, t, flows, cfg)
}

// Parsimon runs the link-level decomposition baseline. Per-link simulations
// fan out over a worker pool; cancelling ctx stops the fan-out promptly.
func Parsimon(ctx context.Context, t *Topology, flows []Flow, cfg NetConfig, workers int) (*ParsimonResult, error) {
	return parsimon.Run(ctx, t, flows, cfg, workers)
}

// ParsimonOptions controls link clustering in ParsimonWithOptions: Cluster
// turns on representative-per-cluster simulation (the exact tier is lossless
// by construction) and ClusterThreshold adds the approximate distance tier.
type ParsimonOptions = parsimon.Options

// ParsimonWithOptions is Parsimon on a shared worker pool with link
// clustering control — the scale path for ground-truth fan-out on large
// fabrics (see README "Scaling ground truth").
func ParsimonWithOptions(ctx context.Context, t *Topology, flows []Flow, cfg NetConfig,
	p *WorkerPool, opts ParsimonOptions) (*ParsimonResult, error) {
	return parsimon.RunWithOptions(ctx, t, flows, cfg, p, opts)
}

// ClusteredGroundTruth approximates ground truth with the clustered Parsimon
// decomposition on a shared pool — tractable at topology scales where the
// single full-network packet simulation of GroundTruth is not.
func ClusteredGroundTruth(ctx context.Context, t *Topology, flows []Flow, cfg NetConfig,
	p *WorkerPool, opts ParsimonOptions) (*GroundTruthResult, error) {
	return core.RunClusteredGroundTruth(ctx, t, flows, cfg, p, opts)
}

// Matrix builds traffic matrix "A", "B", "C", or "uniform" for the given
// rack count, seeded deterministically.
func Matrix(name string, racks int, seed uint64) (*TrafficMatrix, error) {
	return workload.Matrix(name, racks, newRNG(seed))
}

func newRNG(seed uint64) *rng.RNG { return rng.New(seed) }
