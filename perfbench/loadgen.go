package main

import (
	"sync"
	"time"
)

// sendFunc sends one request and returns its client-observed latency, or
// an error when the request failed: a transport error, a non-200 answer, a
// degraded answer, or an answer that fails the output checks. seq numbers
// the client's own requests from 0.
type sendFunc func(client, seq int) (time.Duration, error)

// loadResult is one closed-loop run.
type loadResult struct {
	// Latencies holds the successful requests' latencies; a failed request
	// has no latency, it counts in Failed.
	Latencies []time.Duration
	Attempted int
	Failed    int
	// FirstErr is the earliest failure seen, for the report.
	FirstErr string
	// Wall is the time from the start until the last client finished.
	Wall time.Duration
}

// closedLoop runs clients that each send their next request only after the
// previous one completed, until window has passed. A request begun before
// the deadline always completes and counts; none begins after it.
func closedLoop(clients int, window time.Duration, send sendFunc) loadResult {
	type clientResult struct {
		lat       []time.Duration
		attempted int
		failed    int
		firstErr  error
		errAt     time.Time
	}
	results := make([]clientResult, clients)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for seq := 0; time.Now().Before(deadline); seq++ {
				r.attempted++
				lat, err := send(c, seq)
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr, r.errAt = err, time.Now()
					}
					continue
				}
				r.lat = append(r.lat, lat)
			}
		}(c)
	}
	wg.Wait()
	out := loadResult{Wall: time.Since(start)}
	var errAt time.Time
	for _, r := range results {
		out.Latencies = append(out.Latencies, r.lat...)
		out.Attempted += r.attempted
		out.Failed += r.failed
		if r.firstErr != nil && (out.FirstErr == "" || r.errAt.Before(errAt)) {
			out.FirstErr, errAt = r.firstErr.Error(), r.errAt
		}
	}
	return out
}
