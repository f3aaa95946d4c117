package agg

import (
	"math"
	"sync"
	"testing"

	"m3/internal/feature"
	"m3/internal/rng"
	"m3/internal/stats"
)

// randomEstimate aggregates n random path outputs. About half of all
// samples sit exactly at slowdown 1.0 (the model's clamp floor) so quantile
// lookups land inside long runs of ties; some buckets are empty per path
// and multiplicities vary.
func randomEstimate(t testing.TB, seed uint64, n int) *NetworkEstimate {
	t.Helper()
	r := rng.New(seed)
	outs := make([]PathOutput, n)
	for i := range outs {
		o := PathOutput{
			Buckets: make([][]float64, feature.NumOutputBuckets),
			Counts:  make([]int, feature.NumOutputBuckets),
			Mult:    1 + r.Intn(3),
		}
		for b := range o.Buckets {
			if r.Intn(4) == 0 {
				continue
			}
			v := make([]float64, feature.NumPercentiles)
			for k := range v {
				if r.Intn(2) == 0 {
					v[k] = 1
				} else {
					v[k] = 1 + r.Exp(2)
				}
			}
			o.Buckets[b] = v
			o.Counts[b] = 1 + r.Intn(50)
		}
		outs[i] = o
	}
	e, err := Aggregate(outs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testQuantiles has more distinct values than the memo holds, repeats, and
// both ends of the range.
var testQuantiles = []float64{
	0.99, 0.5, 0.9, 0.999, 0.99, 0.01, 0.25, 0.5, 0.75, 1, 0, 0.95, 0.3,
	0.999, 0.6, 0.7, 0.99, 0.8, 0.85, 0.5, 0.1, 0.2,
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s = %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestCombinedQuantileMemoBitIdentical: memoized answers equal a fresh,
// unmemoized computation bit for bit — on first and repeat calls, and for q
// values past the memo's cap.
func TestCombinedQuantileMemoBitIdentical(t *testing.T) {
	if distinct := len(distinctQ(testQuantiles)); distinct <= maxMemoQuantiles {
		t.Fatalf("test covers %d distinct q, need more than the cap %d", distinct, maxMemoQuantiles)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		e := randomEstimate(t, seed, 10)
		for pass := 0; pass < 2; pass++ {
			for _, q := range testQuantiles {
				sameBits(t, "CombinedQuantile", e.CombinedQuantile(q), e.combinedQuantile(q))
			}
		}
		if e.memoN != maxMemoQuantiles {
			t.Errorf("seed %d: memo holds %d entries, want the cap %d", seed, e.memoN, maxMemoQuantiles)
		}
	}
	// NaN never equals itself, so it must not take a memo slot.
	e := randomEstimate(t, 9, 10)
	e.CombinedQuantile(math.NaN())
	if e.memoN != 0 {
		t.Errorf("NaN q took %d memo slots, want 0", e.memoN)
	}
}

func distinctQ(qs []float64) map[float64]bool {
	set := make(map[float64]bool)
	for _, q := range qs {
		set[q] = true
	}
	return set
}

// TestCombinedQuantileConcurrent: concurrent callers on one estimate all
// get the unmemoized answer (run under -race).
func TestCombinedQuantileConcurrent(t *testing.T) {
	e := randomEstimate(t, 42, 10)
	want := make(map[float64]float64)
	for q := range distinctQ(testQuantiles) {
		want[q] = e.combinedQuantile(q)
	}
	var wg sync.WaitGroup
	errs := make(chan float64, 8*len(testQuantiles))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range testQuantiles {
				q := testQuantiles[(i+g)%len(testQuantiles)]
				if math.Float64bits(e.CombinedQuantile(q)) != math.Float64bits(want[q]) {
					errs <- q
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for q := range errs {
		t.Errorf("concurrent CombinedQuantile(%v) differs from the unmemoized answer", q)
	}
}

// TestBucketQuantileMatchesCDF: reading the pooled slice directly gives the
// same bits as building an empirical CDF over it.
func TestBucketQuantileMatchesCDF(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		e := randomEstimate(t, seed, 10)
		for b := 0; b < feature.NumOutputBuckets; b++ {
			cdf := stats.NewCDF(e.BucketSamples(b))
			for _, q := range testQuantiles {
				sameBits(t, "BucketQuantile", e.BucketQuantile(b, q), cdf.Quantile(q))
			}
		}
	}
	e, err := Aggregate([]PathOutput{output(1, constVec(1))})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(e.BucketQuantile(2, 0.5)) || !math.IsNaN(e.BucketQuantile(-1, 0.5)) {
		t.Error("empty or out-of-range bucket should give NaN")
	}
}

// TestFromSnapshotSameAnswers: an estimate rebuilt from its snapshot (the
// peer cache tier's path) answers every quantile with the same bits, whether
// or not the original's memo is already warm.
func TestFromSnapshotSameAnswers(t *testing.T) {
	e := randomEstimate(t, 7, 10)
	for _, q := range testQuantiles[:4] {
		e.CombinedQuantile(q) // warm the original's memo
	}
	re, err := FromSnapshot(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range testQuantiles {
		sameBits(t, "rebuilt CombinedQuantile", re.CombinedQuantile(q), e.CombinedQuantile(q))
		for b := 0; b < feature.NumOutputBuckets; b++ {
			sameBits(t, "rebuilt BucketQuantile", re.BucketQuantile(b, q), e.BucketQuantile(b, q))
		}
	}
}

// BenchmarkCombinedQuantile times a combined p99 over about 20k pooled
// samples (a 200-path serving estimate's worth): "first" is the
// merge-and-sort every estimate pays once per q, "memoized" a repeat call.
func BenchmarkCombinedQuantile(b *testing.B) {
	e := randomEstimate(b, 1, 34)
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh := &NetworkEstimate{pooled: e.pooled, weight: e.weight}
			fresh.CombinedQuantile(0.99)
		}
	})
	b.Run("memoized", func(b *testing.B) {
		e.CombinedQuantile(0.99)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.CombinedQuantile(0.99)
		}
	})
}
