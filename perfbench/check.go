package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"m3/internal/core"
	"m3/internal/feature"
	"m3/internal/model"
)

// bucketKeys name the four output size buckets in answers, in bucket order.
var bucketKeys = [feature.NumOutputBuckets]string{"le_1kb", "1kb_10kb", "10kb_50kb", "gt_50kb"}

const combinedKey = "combined"

// checkSlowdowns requires the combined value, and every bucket value
// present, to be finite and at least 1 (a slowdown below 1 is impossible).
// A bucket may be absent: the server omits the NaN of a bucket no sampled
// flow fell into, and the bit-for-bit checks confirm such absences.
func checkSlowdowns(m map[string]float64) error {
	if _, ok := m[combinedKey]; !ok {
		return fmt.Errorf("missing %q", combinedKey)
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
			return fmt.Errorf("%s = %v, want finite and >= 1", k, v)
		}
	}
	return nil
}

// parseQuantiles returns the quantile list as the server keys its answer:
// ascending values and their 'g' renderings.
func parseQuantiles(spec string) ([]float64, []string, error) {
	var qs []float64
	for _, p := range strings.Split(spec, ",") {
		q, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, nil, err
		}
		qs = append(qs, q)
	}
	sort.Float64s(qs)
	keys := make([]string, len(qs))
	for i, q := range qs {
		keys[i] = strconv.FormatFloat(q, 'g', -1, 64)
	}
	return qs, keys, nil
}

// checkAnswer runs the checks every answer gets: the cache flag the
// workload intends, no degradation, the float backend, and slowdowns that
// are finite, at least 1 and (for quantiles) monotone in q.
func checkAnswer(def *workloadDef, r request, a answer, wantCached bool) error {
	if r.kind == reqQuantiles {
		q := a.quantiles
		if q.Cached != wantCached {
			return fmt.Errorf("perfbench: quantiles cached=%v, want %v", q.Cached, wantCached)
		}
		_, keys, err := parseQuantiles(def.Quantiles)
		if err != nil {
			return err
		}
		prev := map[string]float64{}
		for _, qk := range keys {
			row, ok := q.Quantiles[qk]
			if !ok {
				return fmt.Errorf("perfbench: quantiles missing q=%s", qk)
			}
			if err := checkSlowdowns(row); err != nil {
				return fmt.Errorf("perfbench: quantile %s: %w", qk, err)
			}
			for k, v := range row {
				if p, ok := prev[k]; ok && v < p {
					return fmt.Errorf("perfbench: quantile %s of %s = %v below the previous quantile's %v", qk, k, v, p)
				}
				prev[k] = v
			}
		}
		return nil
	}
	want := 1
	if r.kind == reqWhatIf {
		want = len(def.Sweeps) + 1
	}
	if len(a.ests) != want {
		return fmt.Errorf("perfbench: %d estimates in the answer, want %d", len(a.ests), want)
	}
	for i, e := range a.ests {
		switch {
		case e.Cached != wantCached:
			return fmt.Errorf("perfbench: estimate %d cached=%v, want %v", i, e.Cached, wantCached)
		case e.Degraded || e.DegradedPaths > 0:
			return fmt.Errorf("perfbench: estimate %d degraded (%d paths)", i, e.DegradedPaths)
		case e.Backend != model.KindNet:
			return fmt.Errorf("perfbench: estimate %d computed by backend %q, want %q", i, e.Backend, model.KindNet)
		}
		if err := checkSlowdowns(e.P99); err != nil {
			return fmt.Errorf("perfbench: estimate %d p99: %w", i, err)
		}
	}
	return nil
}

// sameBits compares a served value with a computed one bit for bit; a NaN
// computed value must be absent from the answer.
func sameBits(served map[string]float64, key string, want float64) error {
	got, ok := served[key]
	if math.IsNaN(want) || math.IsInf(want, 0) {
		if ok {
			return fmt.Errorf("%s served %v, computed %v", key, got, want)
		}
		return nil
	}
	if !ok || math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s served %v, computed %v", key, served[key], want)
	}
	return nil
}

// matchEstimates compares the served answer with estimates computed for
// the same key (by core.Estimator directly, or by the traced replay), bit
// for bit.
func matchEstimates(def *workloadDef, a answer, ests []*core.Estimate) error {
	if a.quantiles != nil {
		if len(ests) != 1 {
			return fmt.Errorf("perfbench: %d estimates for one quantiles answer", len(ests))
		}
		qs, keys, err := parseQuantiles(def.Quantiles)
		if err != nil {
			return err
		}
		for i, q := range qs {
			row := a.quantiles.Quantiles[keys[i]]
			for b, k := range bucketKeys {
				if err := sameBits(row, k, ests[0].Agg.BucketQuantile(b, q)); err != nil {
					return fmt.Errorf("perfbench: q=%s: %w", keys[i], err)
				}
			}
			if err := sameBits(row, combinedKey, ests[0].Agg.CombinedQuantile(q)); err != nil {
				return fmt.Errorf("perfbench: q=%s: %w", keys[i], err)
			}
		}
		return nil
	}
	if len(ests) != len(a.ests) {
		return fmt.Errorf("perfbench: %d served estimates, %d computed", len(a.ests), len(ests))
	}
	for i, e := range a.ests {
		per := ests[i].P99PerBucket()
		for b, k := range bucketKeys {
			if err := sameBits(e.P99, k, per[b]); err != nil {
				return fmt.Errorf("perfbench: estimate %d p99: %w", i, err)
			}
		}
		if err := sameBits(e.P99, combinedKey, ests[i].P99()); err != nil {
			return fmt.Errorf("perfbench: estimate %d p99: %w", i, err)
		}
	}
	return nil
}

// nonTrivial reports whether an answer has a p99 above exactly 1: an
// untrained model clamps every p99 to 1.0, which would make every check
// above pass vacuously.
func nonTrivial(a answer) bool {
	for _, e := range a.ests {
		for _, v := range e.P99 {
			if v > 1 {
				return true
			}
		}
	}
	return false
}
