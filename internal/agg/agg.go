// Package agg combines per-path slowdown distributions into network-wide
// estimates (§3.5, Fig. 8). Because paths were sampled with probability
// proportional to their foreground flow count, per-bucket pooling across
// paths is uniform (each sampled path contributes equally, repeated by its
// sampling multiplicity); buckets are then combined into a single
// distribution weighted by bucket flow counts.
package agg

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"m3/internal/feature"
	"m3/internal/stats"
)

// PathOutput is one sampled path's contribution: a percentile vector and a
// foreground flow count per output bucket, plus the path's sampling
// multiplicity.
type PathOutput struct {
	// Buckets[b] is a 100-point percentile vector (nil/zeros if empty).
	Buckets [][]float64
	// Counts[b] is the number of foreground flows in bucket b.
	Counts []int
	// Mult is how many times the path was drawn in the weighted sample.
	Mult int
}

// Validate reports shape errors.
func (p *PathOutput) Validate() error {
	if len(p.Buckets) != feature.NumOutputBuckets || len(p.Counts) != feature.NumOutputBuckets {
		return fmt.Errorf("agg: path output has %d/%d buckets, want %d",
			len(p.Buckets), len(p.Counts), feature.NumOutputBuckets)
	}
	if p.Mult <= 0 {
		return fmt.Errorf("agg: multiplicity must be positive")
	}
	for b, v := range p.Buckets {
		if p.Counts[b] > 0 && len(v) != feature.NumPercentiles {
			return fmt.Errorf("agg: bucket %d vector has %d points", b, len(v))
		}
	}
	return nil
}

// maxMemoQuantiles caps how many distinct combined quantiles one
// NetworkEstimate remembers. Serving asks for a handful (p99 plus the
// /v1/quantiles list); q values past the cap are computed afresh each call.
const maxMemoQuantiles = 8

// NetworkEstimate is the aggregated result. The pooled samples and weights
// never change after Aggregate or FromSnapshot returns. CombinedQuantile
// memoizes its answers per q in a small fixed-size memo guarded by memoMu,
// so a cached estimate answers repeat queries without re-merging its
// samples; all methods are safe for concurrent use. A NetworkEstimate must
// not be copied.
type NetworkEstimate struct {
	// pooled[b] holds the sorted pooled percentile samples of bucket b.
	pooled [][]float64
	// weight[b] is the total (multiplicity-weighted) flow count of bucket b.
	weight []float64

	memoMu sync.Mutex
	// memo[:memoN] holds the combined quantiles computed so far.
	memo  [maxMemoQuantiles]struct{ q, v float64 }
	memoN int
}

// Aggregate pools the sampled paths' outputs.
func Aggregate(outs []PathOutput) (*NetworkEstimate, error) {
	if len(outs) == 0 {
		return nil, fmt.Errorf("agg: no path outputs")
	}
	e := &NetworkEstimate{
		pooled: make([][]float64, feature.NumOutputBuckets),
		weight: make([]float64, feature.NumOutputBuckets),
	}
	for i := range outs {
		o := &outs[i]
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("agg: output %d: %w", i, err)
		}
		for b := 0; b < feature.NumOutputBuckets; b++ {
			if o.Counts[b] <= 0 {
				continue
			}
			for m := 0; m < o.Mult; m++ {
				e.pooled[b] = append(e.pooled[b], o.Buckets[b]...)
			}
			e.weight[b] += float64(o.Counts[b] * o.Mult)
		}
	}
	for b := range e.pooled {
		sort.Float64s(e.pooled[b])
	}
	return e, nil
}

// BucketQuantile returns the q-quantile (q in [0,1]) of bucket b's pooled
// distribution, or NaN if the bucket is empty network-wide.
func (e *NetworkEstimate) BucketQuantile(b int, q float64) float64 {
	if b < 0 || b >= len(e.pooled) {
		return math.NaN()
	}
	return stats.SortedQuantile(e.pooled[b], q)
}

// BucketP99 returns the 99th-percentile slowdown of bucket b.
func (e *NetworkEstimate) BucketP99(b int) float64 { return e.BucketQuantile(b, 0.99) }

// BucketWeight returns bucket b's multiplicity-weighted flow count.
func (e *NetworkEstimate) BucketWeight(b int) float64 {
	if b < 0 || b >= len(e.weight) {
		return 0
	}
	return e.weight[b]
}

// BucketSamples returns bucket b's pooled sorted samples (callers must not
// modify). Useful for plotting full CDFs (Fig. 12).
func (e *NetworkEstimate) BucketSamples(b int) []float64 {
	if b < 0 || b >= len(e.pooled) {
		return nil
	}
	return e.pooled[b]
}

// CombinedQuantile merges the bucket distributions into one, weighting each
// bucket by its flow count (the paper's probabilistic bucket sampling, done
// deterministically via a weighted quantile), and returns the q-quantile.
// The first maxMemoQuantiles distinct q values are computed once and
// remembered; concurrent callers wait for an in-progress computation rather
// than repeat it.
func (e *NetworkEstimate) CombinedQuantile(q float64) float64 {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	for _, m := range e.memo[:e.memoN] {
		if m.q == q {
			return m.v
		}
	}
	v := e.combinedQuantile(q)
	if e.memoN < len(e.memo) && !math.IsNaN(q) {
		e.memo[e.memoN] = struct{ q, v float64 }{q, v}
		e.memoN++
	}
	return v
}

// combinedQuantile is CombinedQuantile without the memo.
func (e *NetworkEstimate) combinedQuantile(q float64) float64 {
	type wv struct {
		v, w float64
	}
	var all []wv
	var total float64
	for b := range e.pooled {
		n := len(e.pooled[b])
		if n == 0 || e.weight[b] <= 0 {
			continue
		}
		w := e.weight[b] / float64(n)
		for _, v := range e.pooled[b] {
			all = append(all, wv{v, w})
		}
		total += e.weight[b]
	}
	if len(all) == 0 || total <= 0 {
		return math.NaN()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	target := q * total
	var cum float64
	for _, x := range all {
		cum += x.w
		if cum >= target {
			return x.v
		}
	}
	return all[len(all)-1].v
}

// CombinedP99 returns the network-wide p99 slowdown across all buckets.
func (e *NetworkEstimate) CombinedP99() float64 { return e.CombinedQuantile(0.99) }

// Snapshot exports the aggregated state — per-bucket pooled sorted samples
// and multiplicity-weighted flow counts — for serialization across process
// boundaries (the cluster's peer cache tier). The returned slices alias the
// estimate's internals; callers must not modify them.
func (e *NetworkEstimate) Snapshot() (pooled [][]float64, weight []float64) {
	return e.pooled, e.weight
}

// FromSnapshot rebuilds a NetworkEstimate from a Snapshot transported from
// another replica. Shapes are validated (one pooled slice and one weight per
// output bucket, finite non-negative weights, finite samples) so a damaged
// or hostile peer payload is rejected instead of poisoning quantile queries.
// Pooled samples are re-sorted defensively: quantile lookups assume order.
func FromSnapshot(pooled [][]float64, weight []float64) (*NetworkEstimate, error) {
	if len(pooled) != feature.NumOutputBuckets || len(weight) != feature.NumOutputBuckets {
		return nil, fmt.Errorf("agg: snapshot has %d/%d buckets, want %d",
			len(pooled), len(weight), feature.NumOutputBuckets)
	}
	e := &NetworkEstimate{
		pooled: make([][]float64, feature.NumOutputBuckets),
		weight: make([]float64, feature.NumOutputBuckets),
	}
	for b := 0; b < feature.NumOutputBuckets; b++ {
		if math.IsNaN(weight[b]) || math.IsInf(weight[b], 0) || weight[b] < 0 {
			return nil, fmt.Errorf("agg: snapshot bucket %d has bad weight %v", b, weight[b])
		}
		for _, v := range pooled[b] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("agg: snapshot bucket %d has non-finite sample", b)
			}
		}
		e.pooled[b] = append([]float64(nil), pooled[b]...)
		if !sort.Float64sAreSorted(e.pooled[b]) {
			sort.Float64s(e.pooled[b])
		}
		e.weight[b] = weight[b]
	}
	return e, nil
}
