package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClosedLoopFailureAccounting(t *testing.T) {
	const window = 60 * time.Millisecond
	var (
		calls, fails atomic.Int64
		mu           sync.Mutex
		starts       []time.Time
		inFlight     [2]atomic.Int32
	)
	start := time.Now()
	lr := closedLoop(2, window, func(client, seq int) (time.Duration, error) {
		if inFlight[client].Add(1) != 1 {
			t.Error("a client sent a request before its previous one completed")
		}
		defer inFlight[client].Add(-1)
		mu.Lock()
		starts = append(starts, time.Now())
		mu.Unlock()
		calls.Add(1)
		time.Sleep(time.Millisecond)
		if seq%3 == 2 {
			fails.Add(1)
			return 0, errors.New("refused")
		}
		return time.Millisecond, nil
	})

	if lr.Attempted != int(calls.Load()) || lr.Attempted == 0 {
		t.Errorf("attempted = %d, want every call (%d)", lr.Attempted, calls.Load())
	}
	if lr.Failed != int(fails.Load()) || lr.Failed == 0 {
		t.Errorf("failed = %d, want every failing call (%d)", lr.Failed, fails.Load())
	}
	if len(lr.Latencies) != lr.Attempted-lr.Failed {
		t.Errorf("%d latencies for %d successes", len(lr.Latencies), lr.Attempted-lr.Failed)
	}
	if lr.FirstErr != "refused" {
		t.Errorf("first error = %q, want %q", lr.FirstErr, "refused")
	}
	for _, s := range starts {
		if s.Sub(start) > window+25*time.Millisecond {
			t.Errorf("a request started %v after the start, past the %v window", s.Sub(start), window)
		}
	}
	if lr.Wall < window {
		t.Errorf("wall = %v, shorter than the window", lr.Wall)
	}
}

func TestClosedLoopEmptyWindow(t *testing.T) {
	lr := closedLoop(2, 0, func(int, int) (time.Duration, error) {
		t.Error("a request was sent in an empty window")
		return 0, nil
	})
	if lr.Attempted != 0 || lr.Failed != 0 || len(lr.Latencies) != 0 {
		t.Errorf("empty window result = %+v", lr)
	}
}
