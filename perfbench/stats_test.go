package main

import (
	"testing"
	"time"
)

func TestTailIndexLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, -1}, {10, -1}, {11, 0}, {44, 33}, {100, 89}, {1000, 989},
	} {
		got := tailIndex(tc.n, tailMinBeyond)
		if got != tc.want {
			t.Errorf("tailIndex(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if got >= 0 && tc.n-1-got != tailMinBeyond {
			t.Errorf("tailIndex(%d) leaves %d samples beyond, want %d", tc.n, tc.n-1-got, tailMinBeyond)
		}
	}
}

func TestSummarizeLatency(t *testing.T) {
	// 100 samples of 1..100 ms, shuffled: the tail is the 90th smallest.
	var lat []time.Duration
	for i := 0; i < 100; i++ {
		lat = append(lat, time.Duration((i*37)%100+1)*time.Millisecond)
	}
	s, err := summarizeLatency(lat)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 100 || s.P50 != 50.5 || s.Tail != 90 || s.TailPct != 90 || s.Beyond != 10 || s.Groups != 1 {
		t.Errorf("summary = %+v, want N 100, P50 50.5, Tail 90 at p90 with 10 beyond, 1 group", s)
	}
	if _, err := summarizeLatency(lat[:10]); err == nil {
		t.Error("10 samples gave a tail; want an error (none has 10 samples beyond it)")
	}
}

func TestSummarizeLatencyGroups(t *testing.T) {
	// Three groups of tailGroup samples 1..tailGroup ms, the middle one
	// shifted by 1000 ms: each group's tail has 10 samples beyond it, and
	// the median group's tail is reported.
	var lat []time.Duration
	for g := 0; g < 3; g++ {
		for i := 1; i <= tailGroup; i++ {
			v := time.Duration(i) * time.Millisecond
			if g == 1 {
				v += time.Second
			}
			lat = append(lat, v)
		}
	}
	lat = append(lat, time.Hour) // an incomplete last group is left out of the tail
	s, err := summarizeLatency(lat)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(tailGroup - tailMinBeyond)
	if s.Groups != 3 || s.Tail != want || s.Beyond != tailMinBeyond || s.N != 3*tailGroup+1 {
		t.Errorf("summary = %+v, want 3 groups, tail %v with %d beyond", s, want, tailMinBeyond)
	}
	if wantPct := 100 * want / tailGroup; s.TailPct != wantPct {
		t.Errorf("tail percentile = %v, want %v", s.TailPct, wantPct)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}
