package main

import (
	"fmt"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile: fewer would make the tail one or two unlucky requests.
const tailMinBeyond = 10

// tailIndex returns the 0-based index, into n ascending samples, of the
// highest-ranked sample that still has at least minBeyond samples after it;
// -1 when n <= minBeyond (no percentile qualifies).
func tailIndex(n, minBeyond int) int {
	if n <= minBeyond {
		return -1
	}
	return n - 1 - minBeyond
}

// tailGroup is the size of the request groups the tail is taken over once
// a run completes at least two groups' worth. The highest percentile with
// tailMinBeyond samples beyond it over thousands of fast requests (the warm
// workload completes ~2500 in a window) is one collector pause or host
// hiccup away from doubling; the median of the groups' tails is steady.
const tailGroup = 500

// latencySummary is a latency distribution reduced to the benchmark's two
// timing figures.
type latencySummary struct {
	N int
	// P50 is the median, in milliseconds.
	P50 float64
	// Tail is the latency at the highest percentile (TailPct) with Beyond
	// (= tailMinBeyond) samples beyond it, in milliseconds: over all N
	// samples when Groups is 1, else the median of that latency over Groups
	// consecutive groups of tailGroup samples.
	Tail    float64
	TailPct float64
	Beyond  int
	Groups  int
}

// summarizeLatency reduces per-request latencies to the median and the
// tail. It fails when the run completed too few requests for a tail.
func summarizeLatency(lat []time.Duration) (latencySummary, error) {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	groups := [][]float64{ms}
	if len(ms) >= 2*tailGroup {
		groups = nil
		for lo := 0; lo+tailGroup <= len(ms); lo += tailGroup {
			groups = append(groups, ms[lo:lo+tailGroup])
		}
	}
	k := tailIndex(len(groups[0]), tailMinBeyond)
	if k < 0 {
		return latencySummary{}, fmt.Errorf("perfbench: %d completed requests, need more than %d for a tail percentile",
			len(ms), tailMinBeyond)
	}
	tails := make([]float64, len(groups))
	for i, g := range groups {
		s := append([]float64(nil), g...)
		sort.Float64s(s)
		tails[i] = s[k]
	}
	return latencySummary{
		N:       len(ms),
		P50:     median(ms),
		Tail:    median(tails),
		TailPct: 100 * float64(k+1) / float64(len(groups[0])),
		Beyond:  len(groups[0]) - 1 - k,
		Groups:  len(groups),
	}, nil
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
