package model

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Backend kinds. The kind string is the request-facing backend name
// (`"backend"` field on /v1/estimate), the checkpoint header tag, and the
// per-backend metrics label.
const (
	// KindNet is the float64 transformer — the default backend.
	KindNet = "net"
	// KindNetInt8 is the int8 weight-quantized transformer.
	KindNetInt8 = "net-int8"
)

// Predictor is the inference backend interface: everything the estimator,
// cache, and serving layers need from a model. *Net satisfies it, as does
// *QuantizedNet; alternative architectures (e.g. a GNN estimator) plug in
// here without touching the estimation pipeline.
//
// Implementations must be safe for concurrent PredictBatch calls and must
// return a Fingerprint that changes whenever the predictions could — two
// predictors with the same fingerprint are cache-equivalent.
type Predictor interface {
	// PredictBatch runs inference over a batch, returning one postprocessed
	// slowdown map per sample (clamped to >= 1, per-bucket monotone).
	PredictBatch(ctx context.Context, samples []*Sample) ([][]float64, error)
	// Fingerprint is an identity hash over architecture and weights.
	// Distinct kinds built from the same weights have distinct fingerprints.
	// It may cost O(weights) (the float Net hashes every weight byte), so
	// callers compute it once per predictor — serving does so once per
	// backend set — and a served predictor must never be mutated in place;
	// swap in a new one instead.
	Fingerprint() uint64
	// SelfCheck probes the model and rejects one that computes garbage.
	SelfCheck() error
	// Kind names the backend (KindNet, KindNetInt8, ...).
	Kind() string
}

// ParallelismSetter is the optional Predictor extension for backends whose
// kernels can shard one inference call across worker goroutines. Both
// built-in backends implement it; implementations must keep sharded outputs
// bit-identical to serial (golden hashes and cache keys depend on it) and
// must accept concurrent calls.
type ParallelismSetter interface {
	SetPredictParallelism(p int)
	PredictParallelism() int
}

// SetPredictParallelism applies an intra-batch parallelism bound to p when
// its backend supports one, reporting whether it did. Foreign backends
// without the knob are left alone — callers treat that as "serial".
func SetPredictParallelism(p Predictor, n int) bool {
	if IsNil(p) {
		return false
	}
	if ps, ok := p.(ParallelismSetter); ok {
		ps.SetPredictParallelism(n)
		return true
	}
	return false
}

// UnknownBackendError reports a backend kind no builder is registered for.
type UnknownBackendError struct {
	Kind string
}

func (e *UnknownBackendError) Error() string {
	return fmt.Sprintf("model: unknown backend %q (have %v)", e.Kind, BackendKinds())
}

// BackendBuilder derives a Predictor of one kind from float weights.
type BackendBuilder func(*Net) (Predictor, error)

var (
	backendsMu sync.RWMutex
	backends   = map[string]BackendBuilder{
		KindNet:     func(n *Net) (Predictor, error) { return n, nil },
		KindNetInt8: func(n *Net) (Predictor, error) { return Quantize(n) },
	}
)

// RegisterBackend adds a builder for kind, replacing any existing one.
// Intended for init-time registration of alternative backends.
func RegisterBackend(kind string, b BackendBuilder) {
	backendsMu.Lock()
	defer backendsMu.Unlock()
	backends[kind] = b
}

// BackendKinds lists the registered backend kinds, sorted.
func BackendKinds() []string {
	backendsMu.RLock()
	defer backendsMu.RUnlock()
	kinds := make([]string, 0, len(backends))
	for k := range backends {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// BuildBackend derives a Predictor of the requested kind from a float net.
// Unknown kinds return *UnknownBackendError.
func BuildBackend(kind string, n *Net) (Predictor, error) {
	backendsMu.RLock()
	b, ok := backends[kind]
	backendsMu.RUnlock()
	if !ok {
		return nil, &UnknownBackendError{Kind: kind}
	}
	return b(n)
}

// IsNil reports whether p is nil or wraps a typed nil pointer — the
// interface counterpart of `net == nil`, so a `var n *Net` passed through
// the Predictor seam still reads as "no model".
func IsNil(p Predictor) bool {
	switch v := p.(type) {
	case nil:
		return true
	case *Net:
		return v == nil
	case *QuantizedNet:
		return v == nil
	default:
		return false
	}
}

// SourceNet returns the float weights a predictor was derived from: a *Net
// is its own source, a *QuantizedNet remembers the net it was quantized
// from, and foreign backends return nil.
func SourceNet(p Predictor) *Net {
	switch v := p.(type) {
	case *Net:
		return v
	case *QuantizedNet:
		if v == nil {
			return nil
		}
		return v.Source()
	default:
		return nil
	}
}
