package main

import (
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSample reads the cumulative heap allocation counter, the same count
// runtime.MemStats.TotalAlloc reports, without stopping the world.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes returns the bytes allocated on the heap so far. Not safe for
// concurrent use (it reuses one sample buffer).
func allocBytes() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// residentBytes reads the process's current resident set size.
func residentBytes() (int64, bool) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := bytes.Fields(raw)
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * int64(os.Getpagesize()), true
}

// rssSampler tracks the resident set over a measured window by sampling
// every 5 ms. Go returns freed memory to the OS lazily, so the
// process-lifetime peak would mostly reflect set-up; and a single peak
// depends on where the collector happened to run, so the sampler keeps the
// peak of every whole second of the window and reports their median.
type rssSampler struct {
	stop chan struct{}
	done chan []int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []int64, 1)}
	go func() {
		start := time.Now()
		var peaks []int64 // peaks[i] is the peak of second i
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if v, ok := residentBytes(); ok {
				i := int(time.Since(start) / time.Second)
				for len(peaks) <= i {
					peaks = append(peaks, 0)
				}
				peaks[i] = max(peaks[i], v)
			}
			select {
			case <-s.stop:
				if len(peaks) > 1 {
					peaks = peaks[:len(peaks)-1] // drop the partial last second
				}
				s.done <- peaks
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// medianPeak stops the sampler and returns the median per-second peak,
// falling back to the process-lifetime peak where /proc is unavailable.
func (s *rssSampler) medianPeak() int64 {
	close(s.stop)
	peaks := <-s.done
	if len(peaks) == 0 {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			return ru.Maxrss << 10
		}
		return 0
	}
	xs := make([]float64, len(peaks))
	for i, p := range peaks {
		xs[i] = float64(p)
	}
	return int64(median(xs))
}
