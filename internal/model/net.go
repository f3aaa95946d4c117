// Package model assembles the m3 neural network (§3.4): a tiny Llama-style
// transformer encoder that turns per-hop background feature maps into a
// fixed-size context vector, and a two-layer MLP that maps (foreground
// feature map, background context, network spec) to the corrected slowdown
// distribution — 4 output size buckets x 100 percentiles.
//
// It also provides synthetic-dataset generation (Table 2), training with
// Adam + L1 (§4), and gob checkpoints.
package model

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"m3/internal/feature"
	"m3/internal/ml"
	"m3/internal/rng"
)

// Config shapes the network. The paper's full-scale instance uses Dim=576,
// Heads=4, Layers=4, Hidden=512 (~16.8M parameters); the default here is a
// CPU-trainable reduction with the same architecture.
type Config struct {
	FeatDim int // flattened feature map size (10x100)
	SpecDim int // network spec vector size
	OutDim  int // flattened output size (4x100)
	Dim     int // transformer embedding dim
	Heads   int
	Layers  int
	Hidden  int // MLP hidden width
	MaxHops int // max path length the encoder accepts
	// UseContext false reproduces the "m3 w/o context" ablation (Fig. 16):
	// the background encoder is dropped and the MLP sees zeros instead.
	UseContext bool
	Seed       uint64
}

// DefaultConfig returns the CPU-scale default.
func DefaultConfig() Config {
	return Config{
		FeatDim:    feature.FeatureDim,
		SpecDim:    feature.SpecDim,
		OutDim:     feature.OutputDim,
		Dim:        64,
		Heads:      4,
		Layers:     2,
		Hidden:     256,
		MaxHops:    16,
		UseContext: true,
		Seed:       1,
	}
}

// PaperConfig returns the paper-scale architecture (trainable, but slow on
// CPU; provided for completeness).
func PaperConfig() Config {
	c := DefaultConfig()
	c.Dim = 576
	c.Heads = 4
	c.Layers = 4
	c.Hidden = 512
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.FeatDim <= 0 || c.SpecDim <= 0 || c.OutDim <= 0:
		return fmt.Errorf("model: dimensions must be positive")
	case c.Hidden <= 0 || c.MaxHops <= 0:
		return fmt.Errorf("model: hidden/maxhops must be positive")
	case c.UseContext && (c.Dim <= 0 || c.Heads <= 0 || c.Layers <= 0):
		return fmt.Errorf("model: encoder dims must be positive")
	case c.UseContext && c.Dim%c.Heads != 0:
		return fmt.Errorf("model: Dim %d not divisible by Heads %d", c.Dim, c.Heads)
	}
	return nil
}

// Sample is one path-level example: model inputs plus (for training) the
// ground-truth output map and its per-bucket validity mask.
type Sample struct {
	FgFeat  []float64   // log1p feature map of foreground flowSim slowdowns
	BgFeats [][]float64 // per-hop log1p feature maps of background slowdowns
	Spec    []float64   // normalized network spec (feature.SpecVector)
	Target  []float64   // raw ground-truth slowdown percentiles (OutDim)
	Mask    []bool      // per output bucket: true if the bucket had flows
}

// Net is the assembled m3 model.
type Net struct {
	Cfg    Config
	enc    *ml.Encoder
	head   *ml.MLP
	params []*ml.Param

	// par bounds intra-batch kernel parallelism in PredictBatch (see
	// SetPredictParallelism). Atomic so serving can retune a live model.
	par atomic.Int32
}

// SetPredictParallelism bounds how many worker goroutines one PredictBatch
// call may shard its GEMMs across (<= 1 means serial, the default). Sharded
// kernels are bit-identical to serial — each output row runs the unchanged
// serial accumulation — so this is purely a latency knob; fingerprints and
// cached results are unaffected. Safe to call concurrently with inference.
func (n *Net) SetPredictParallelism(p int) {
	if p < 0 {
		p = 0
	}
	n.par.Store(int32(p))
}

// PredictParallelism returns the current intra-batch parallelism bound.
func (n *Net) PredictParallelism() int { return int(n.par.Load()) }

// New builds a freshly initialized network.
func New(cfg Config) (*Net, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	n := &Net{Cfg: cfg}
	ctxDim := 0
	if cfg.UseContext {
		enc, err := ml.NewEncoder("enc", cfg.FeatDim, cfg.Dim, cfg.Heads, cfg.Layers, cfg.MaxHops, r)
		if err != nil {
			return nil, err
		}
		n.enc = enc
		n.params = append(n.params, enc.Params()...)
		ctxDim = cfg.Dim
	}
	n.head = ml.NewMLP("head", cfg.FeatDim+ctxDim+cfg.SpecDim, cfg.Hidden, cfg.OutDim, r)
	n.params = append(n.params, n.head.Params()...)
	return n, nil
}

// Fingerprint returns an identity hash over the architecture and all
// weights, so callers (estimate caches, the serving layer) can tell model
// versions apart across checkpoint reloads. It is a byte-wise FNV-1a over
// every weight — O(weights), milliseconds on a serving-size model — so
// compute it once per model, not per request: the serving layer does so once
// per backend set. It must be recomputed after training or mutating weights
// in place, which is why a served Net is swapped, never mutated.
func (n *Net) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(n.Cfg.Dim)<<32 | uint64(n.Cfg.Layers)<<16 | uint64(n.Cfg.Heads))
	for _, p := range n.params {
		for _, w := range p.W {
			mix(math.Float64bits(w))
		}
	}
	return h
}

// Kind identifies the float transformer backend (the Predictor default).
func (n *Net) Kind() string { return KindNet }

// NumParams returns the total trainable weight count.
func (n *Net) NumParams() int {
	total := 0
	for _, p := range n.params {
		total += p.NumWeights()
	}
	return total
}

func (n *Net) ctxDim() int {
	if n.Cfg.UseContext {
		return n.Cfg.Dim
	}
	return 0
}

func (n *Net) checkSample(s *Sample) error { return n.Cfg.checkSample(s) }

// checkSample validates one sample's shape against the config; shared by
// every backend built from the same architecture.
func (c Config) checkSample(s *Sample) error {
	if len(s.FgFeat) != c.FeatDim {
		return fmt.Errorf("model: fg feature dim %d, want %d", len(s.FgFeat), c.FeatDim)
	}
	if len(s.Spec) != c.SpecDim {
		return fmt.Errorf("model: spec dim %d, want %d", len(s.Spec), c.SpecDim)
	}
	if c.UseContext {
		if len(s.BgFeats) == 0 || len(s.BgFeats) > c.MaxHops {
			return fmt.Errorf("model: %d bg hops, want 1..%d", len(s.BgFeats), c.MaxHops)
		}
		for i, f := range s.BgFeats {
			if len(f) != c.FeatDim {
				return fmt.Errorf("model: bg feature %d dim %d, want %d", i, len(f), c.FeatDim)
			}
		}
	}
	return nil
}

// forward runs the network; the returned slice is raw (no postprocessing).
func (n *Net) forward(s *Sample) ([]float64, error) {
	if err := n.checkSample(s); err != nil {
		return nil, err
	}
	in := make([]float64, 0, n.Cfg.FeatDim+n.ctxDim()+n.Cfg.SpecDim)
	in = append(in, s.FgFeat...)
	if n.Cfg.UseContext {
		ctx, err := n.enc.Forward(s.BgFeats)
		if err != nil {
			return nil, err
		}
		in = append(in, ctx...)
	}
	in = append(in, s.Spec...)
	return n.head.Forward(in), nil
}

// backward propagates dout; call immediately after forward on the same
// sample.
func (n *Net) backward(dout []float64) {
	din := n.head.Backward(dout)
	if n.Cfg.UseContext {
		dctx := din[n.Cfg.FeatDim : n.Cfg.FeatDim+n.Cfg.Dim]
		n.enc.Backward(dctx)
	}
}

// apply runs the network without caching backward state, so a shared Net
// can serve concurrent inference (Forward/Backward training state is never
// touched). The returned slice is raw (no postprocessing).
func (n *Net) apply(s *Sample) ([]float64, error) {
	if err := n.checkSample(s); err != nil {
		return nil, err
	}
	in := make([]float64, 0, n.Cfg.FeatDim+n.ctxDim()+n.Cfg.SpecDim)
	in = append(in, s.FgFeat...)
	if n.Cfg.UseContext {
		ctx, err := n.enc.Apply(s.BgFeats)
		if err != nil {
			return nil, err
		}
		in = append(in, ctx...)
	}
	in = append(in, s.Spec...)
	return n.head.Apply(in), nil
}

// Predict runs inference and post-processes the output into a valid
// slowdown map: every percentile is clamped to >= 1 (slowdowns are >= 1 by
// definition) and each bucket's percentile row is made monotone by sorting
// (isotonic projection). Predict is safe for concurrent use; it shares no
// state with training.
func (n *Net) Predict(s *Sample) ([]float64, error) {
	out, err := n.apply(s)
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i] < 1 {
			out[i] = 1
		}
	}
	for b := 0; b < feature.NumOutputBuckets; b++ {
		row := out[b*feature.NumPercentiles : (b+1)*feature.NumPercentiles]
		sort.Float64s(row)
	}
	return out, nil
}

// PredictBatch runs inference over a batch of samples in one pass through
// the network: the samples' background sequences are concatenated into a
// single flat tensor (ragged, no padding — attention is block-diagonal over
// per-sample spans) and every Linear/attention/SwiGLU layer runs as one loop
// nest over contiguous memory, with all temporaries drawn from a pooled
// scratch arena. Steady-state batches therefore cost a handful of
// allocations (the returned slices) instead of one per layer per sample.
//
// The outputs are post-processed exactly like Predict (clamp to >= 1,
// per-bucket isotonic sort) and agree with per-sample Predict bitwise.
// PredictBatch is safe for concurrent use; it shares no state with training.
func (n *Net) PredictBatch(ctx context.Context, samples []*Sample) ([][]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, nil
	}
	for _, s := range samples {
		if err := n.checkSample(s); err != nil {
			return nil, err
		}
	}
	sc := ml.GetScratch()
	defer ml.PutScratch(sc)
	sc.Par = int(n.par.Load())

	batch := len(samples)
	in := sc.TensorUninit(batch, n.Cfg.FeatDim+n.ctxDim()+n.Cfg.SpecDim)
	if n.Cfg.UseContext {
		offsets := sc.Ints(batch + 1)
		total := 0
		for i, s := range samples {
			offsets[i] = total
			total += len(s.BgFeats)
		}
		offsets[batch] = total
		feats := sc.TensorUninit(total, n.Cfg.FeatDim)
		for i, s := range samples {
			for h, f := range s.BgFeats {
				copy(feats.Row(offsets[i]+h), f)
			}
		}
		ctx, err := n.enc.ApplyBatch(sc, feats, offsets)
		if err != nil {
			return nil, err
		}
		for i := range samples {
			copy(in.Row(i)[n.Cfg.FeatDim:], ctx.Row(i))
		}
	}
	specAt := n.Cfg.FeatDim + n.ctxDim()
	for i, s := range samples {
		row := in.Row(i)
		copy(row, s.FgFeat)
		copy(row[specAt:], s.Spec)
	}
	raw := n.head.ApplyTensor(sc, in)
	return postprocessBatch(raw, batch, n.Cfg.OutDim), nil
}

// postprocessBatch copies raw batch outputs out of the scratch into one
// flat slab and applies the slowdown-map projection (clamp to >= 1,
// per-bucket isotonic sort). Shared by every backend so their outputs go
// through identical postprocessing.
func postprocessBatch(raw ml.Tensor, batch, outDim int) [][]float64 {
	flat := make([]float64, batch*outDim)
	outs := make([][]float64, batch)
	for i := range outs {
		out := flat[i*outDim : (i+1)*outDim : (i+1)*outDim]
		copy(out, raw.Row(i))
		for j := range out {
			if out[j] < 1 {
				out[j] = 1
			}
		}
		for b := 0; b < feature.NumOutputBuckets; b++ {
			sort.Float64s(out[b*feature.NumPercentiles : (b+1)*feature.NumPercentiles])
		}
		outs[i] = out
	}
	return outs
}

// SelfCheck runs a probe inference through the full network (encoder +
// head) and verifies the output has the declared shape and only finite
// values. The serving layer calls it on every reload candidate so a
// checkpoint that decodes cleanly but computes garbage (NaN/Inf slowdowns)
// is rejected before it replaces a working model.
func (n *Net) SelfCheck() error {
	s := &Sample{
		FgFeat: make([]float64, n.Cfg.FeatDim),
		Spec:   make([]float64, n.Cfg.SpecDim),
	}
	if n.Cfg.UseContext {
		s.BgFeats = [][]float64{make([]float64, n.Cfg.FeatDim)}
	}
	out, err := n.Predict(s)
	if err != nil {
		return fmt.Errorf("model: self-check probe failed: %w", err)
	}
	if len(out) != n.Cfg.OutDim {
		return fmt.Errorf("model: self-check: output dim %d, want %d", len(out), n.Cfg.OutDim)
	}
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("model: self-check: output[%d] = %v, model computes non-finite slowdowns", i, v)
		}
	}
	return nil
}

// maskedL1 computes the L1 loss over the cells of valid buckets only and
// writes the gradient into dout (zero for masked-out cells).
func maskedL1(pred, target []float64, mask []bool, dout []float64) float64 {
	cells := 0
	for b, ok := range mask {
		if ok {
			cells += feature.NumPercentiles
		}
		_ = b
	}
	if cells == 0 {
		for i := range dout {
			dout[i] = 0
		}
		return 0
	}
	inv := 1 / float64(cells)
	var sum float64
	for b, ok := range mask {
		lo := b * feature.NumPercentiles
		hi := lo + feature.NumPercentiles
		for i := lo; i < hi; i++ {
			if !ok {
				dout[i] = 0
				continue
			}
			d := pred[i] - target[i]
			if d >= 0 {
				sum += d
				dout[i] = inv
			} else {
				sum -= d
				dout[i] = -inv
			}
		}
	}
	return sum * inv
}

// TrainOptions controls Train.
type TrainOptions struct {
	Epochs  int
	Batch   int
	LR      float64
	ValFrac float64 // fraction of samples held out (paper: 10%)
	Seed    uint64
	// KeepBest restores the weights from the epoch with the lowest
	// validation loss when training ends (requires ValFrac > 0).
	KeepBest bool
	// Progress, if non-nil, is called after each epoch.
	Progress func(epoch int, trainLoss, valLoss float64)
}

// DefaultTrainOptions mirrors the paper's setup at CPU scale.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Epochs: 40, Batch: 20, LR: 1e-3, ValFrac: 0.1, Seed: 7, KeepBest: true}
}

// TrainResult reports final losses.
type TrainResult struct {
	TrainLoss float64
	ValLoss   float64
	Epochs    int
}

// Train fits the network with Adam on the masked L1 loss.
func (n *Net) Train(samples []*Sample, opt TrainOptions) (TrainResult, error) {
	if len(samples) == 0 {
		return TrainResult{}, fmt.Errorf("model: no training samples")
	}
	if opt.Epochs <= 0 || opt.Batch <= 0 {
		return TrainResult{}, fmt.Errorf("model: epochs and batch must be positive")
	}
	for _, s := range samples {
		if err := n.checkSample(s); err != nil {
			return TrainResult{}, err
		}
		if len(s.Target) != n.Cfg.OutDim || len(s.Mask) != feature.NumOutputBuckets {
			return TrainResult{}, fmt.Errorf("model: bad target/mask shape")
		}
	}
	r := rng.New(opt.Seed)
	shuffled := append([]*Sample(nil), samples...)
	rng.Shuffle(r, shuffled)
	nVal := int(float64(len(shuffled)) * opt.ValFrac)
	val := shuffled[:nVal]
	train := shuffled[nVal:]
	if len(train) == 0 {
		return TrainResult{}, fmt.Errorf("model: validation fraction leaves no training data")
	}

	adam := ml.NewAdam(n.params, opt.LR)
	dout := make([]float64, n.Cfg.OutDim)
	var res TrainResult
	bestVal := math.Inf(1)
	var best [][]float64
	snapshot := func() {
		if best == nil {
			best = make([][]float64, len(n.params))
			for i, p := range n.params {
				best[i] = make([]float64, len(p.W))
			}
		}
		for i, p := range n.params {
			copy(best[i], p.W)
		}
	}
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		rng.Shuffle(r, train)
		var epochLoss float64
		count := 0
		for start := 0; start < len(train); start += opt.Batch {
			end := min(start+opt.Batch, len(train))
			for _, s := range train[start:end] {
				pred, err := n.forward(s)
				if err != nil {
					return res, err
				}
				epochLoss += maskedL1(pred, s.Target, s.Mask, dout)
				count++
				n.backward(dout)
			}
			adam.Step(end - start)
		}
		res.TrainLoss = epochLoss / float64(count)
		res.ValLoss = n.eval(val)
		res.Epochs = epoch + 1
		if opt.KeepBest && len(val) > 0 && res.ValLoss < bestVal {
			bestVal = res.ValLoss
			snapshot()
		}
		if opt.Progress != nil {
			opt.Progress(epoch, res.TrainLoss, res.ValLoss)
		}
	}
	if opt.KeepBest && best != nil {
		for i, p := range n.params {
			copy(p.W, best[i])
		}
		res.ValLoss = bestVal
	}
	return res, nil
}

func (n *Net) eval(samples []*Sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	dout := make([]float64, n.Cfg.OutDim)
	var sum float64
	for _, s := range samples {
		pred, err := n.forward(s)
		if err != nil {
			return math.NaN()
		}
		sum += maskedL1(pred, s.Target, s.Mask, dout)
	}
	return sum / float64(len(samples))
}

// Loss evaluates the masked L1 loss over samples without training.
func (n *Net) Loss(samples []*Sample) float64 { return n.eval(samples) }
