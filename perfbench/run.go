package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"m3/internal/core"
	"m3/internal/model"
	"m3/internal/pathsim"
)

// setupReps is how many times a run sets up; setup_s is the median, so one
// slow set-up does not move it.
const setupReps = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run reports.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// printed holds metrics shown in the table but kept off the result
	// line, and notes are further lines printed before it.
	printed map[string]metric
	notes   []string
	// latencies are the successful requests' latencies in milliseconds, in
	// completion order per client, kept for the result record.
	latencies []float64
}

// setUp builds def's server, registers the workload and primes it: the
// span setup_s times. Priming answers are checked, and the first must show
// the model is not trivial.
func setUp(net *model.Net, def *workloadDef, seed uint64) (*harness, string, error) {
	h, err := startHarness(net, def)
	if err != nil {
		return nil, "", err
	}
	hash, err := h.register(seed)
	if err != nil {
		h.close()
		return nil, "", err
	}
	for i, r := range def.priming(seed) {
		a, _, err := h.send(def, r)
		if err == nil {
			err = checkAnswer(def, r, a, false)
		}
		if err == nil && i == 0 && !nonTrivial(a) {
			err = fmt.Errorf("perfbench: every p99 of the priming answer is exactly 1: the model fixture is vacuous")
		}
		if err != nil {
			h.close()
			return nil, "", fmt.Errorf("perfbench: priming: %w", err)
		}
	}
	return h, hash, nil
}

// setUpTimed sets up setupReps times, keeping the last harness, and
// returns the set-up times.
func setUpTimed(net *model.Net, def *workloadDef, seed uint64) (*harness, string, []float64, error) {
	var times []float64
	for rep := 0; ; rep++ {
		start := time.Now()
		h, hash, err := setUp(net, def, seed)
		if err != nil {
			return nil, "", nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if rep == setupReps-1 {
			// Return set-up garbage to the OS so the window's peak RSS is
			// the workload's own.
			debug.FreeOSMemory()
			return h, hash, times, nil
		}
		h.close()
	}
}

// buildLocal generates and decomposes the local copy of the workload.
func buildLocal(seed uint64) (*localWorkload, error) {
	ft, flows, err := generateWorkload(seed)
	if err != nil {
		return nil, err
	}
	d, err := pathsim.Decompose(ft.Topology, flows)
	if err != nil {
		return nil, err
	}
	return &localWorkload{ft: ft, flows: flows, d: d, hash: core.HashWorkload(ft.Topology, flows)}, nil
}

// Deep-check subsets: how many answers are compared bit for bit with a
// direct core.Estimator run, and which. Each is chosen by position alone,
// so the same seed checks the same requests.
const (
	deepEvery      = 8
	deepMaxEst     = 4
	deepMaxWhatIf  = 2
	deepWarmStride = 5 // warm keys 0, 5, 10, 15
)

// pendingCheck is an answer kept for a bit-for-bit check after the window.
type pendingCheck struct {
	r request
	a answer
}

// tailNote says which percentile latency_tail_ms is and over how many
// samples.
func tailNote(l latencySummary) string {
	if l.Groups == 1 {
		return fmt.Sprintf("latency_tail_ms is p%.1f of %d samples, %d beyond it", l.TailPct, l.N, l.Beyond)
	}
	return fmt.Sprintf("latency_tail_ms is the median over %d groups of %d samples of each group's p%.1f, %d beyond it (%d samples)",
		l.Groups, tailGroup, l.TailPct, l.Beyond, l.N)
}

// runUntraced measures def's end-to-end metrics with tracing off.
func runUntraced(ctx context.Context, net *model.Net, def *workloadDef, seed uint64, window time.Duration) (*runResult, error) {
	h, hash, setupTimes, err := setUpTimed(net, def, seed)
	if err != nil {
		return nil, err
	}
	defer h.close()

	warm := def.Keys > 0
	var (
		mu       sync.Mutex
		pending  []pendingCheck
		deepSeen = map[[2]int]bool{}
		bodies   = map[[2]int]string{}
		wrong    int
	)
	keep := func(client, seq int, r request, a answer, body []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if warm {
			// Every answer for one key and endpoint must be the same bytes.
			id := [2]int{int(r.kind), r.key}
			if prev, ok := bodies[id]; ok && prev != string(body) {
				return fmt.Errorf("perfbench: key %d answered differently across requests", r.key)
			}
			bodies[id] = string(body)
			if r.key%deepWarmStride == 0 && !deepSeen[id] {
				deepSeen[id] = true
				pending = append(pending, pendingCheck{r, a})
			}
			return nil
		}
		limit := deepMaxEst
		if r.kind == reqWhatIf {
			limit = deepMaxWhatIf
		}
		if client == 0 && seq%deepEvery == 0 && len(pending) < limit {
			pending = append(pending, pendingCheck{r, a})
		}
		return nil
	}
	send := func(client, seq int) (time.Duration, error) {
		r := def.next(seed, client, seq)
		a, rep, err := h.send(def, r)
		if err != nil {
			return 0, err
		}
		err = checkAnswer(def, r, a, warm)
		if err == nil {
			err = keep(client, seq, r, a, rep.body)
		}
		if err != nil {
			mu.Lock()
			wrong++
			mu.Unlock()
			return 0, err
		}
		return rep.lat, nil
	}

	cpu0, alloc0 := cpuTime(), allocBytes()
	rss := startRSSSampler()
	lr := closedLoop(def.Clients, window, send)
	peak := rss.medianPeak()
	cpu, alloc := cpuTime()-cpu0, allocBytes()-alloc0

	// Bit-for-bit checks against core.Estimator, outside the window.
	lw, err := buildLocal(seed)
	if err != nil {
		return nil, err
	}
	if err := lw.checkHash(hash); err != nil {
		return nil, err
	}
	pool := core.NewPool(2)
	defer pool.Close()
	for _, pc := range pending {
		direct, err := directEstimate(ctx, net, pool, lw, def, pc.r)
		if err != nil {
			return nil, err
		}
		if err := matchEstimates(def, pc.a, direct); err != nil {
			wrong++
			lr.Failed++
			if lr.FirstErr == "" {
				lr.FirstErr = err.Error()
			}
		}
	}

	lat, err := summarizeLatency(lr.Latencies)
	if err != nil {
		return nil, err
	}
	latMS := make([]float64, len(lr.Latencies))
	for i, d := range lr.Latencies {
		latMS[i] = float64(d) / float64(time.Millisecond)
	}
	n := float64(lr.Attempted)
	failFrac := float64(lr.Failed) / n
	res := &runResult{
		Correct:   wrong == 0,
		Attempted: lr.Attempted,
		Failed:    lr.Failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setupTimes), "s"},
			"latency_p50_ms":   {lat.P50, "ms"},
			"latency_tail_ms":  {lat.Tail, "ms"},
			"throughput_rps":   {float64(len(lr.Latencies)) / lr.Wall.Seconds(), "1/s"},
			"cpu_ms_per_req":   {float64(cpu) / float64(time.Millisecond) / n, "ms"},
			"alloc_mb_per_req": {float64(alloc) / 1e6 / n, "MB"},
			"peak_rss_mb":      {float64(peak) / 1e6, "MB"},
		},
		// fail_frac is 0 on a healthy run, so the result line carries it as
		// failed / attempted instead.
		printed:   map[string]metric{"fail_frac": {failFrac, "ratio"}},
		latencies: latMS,
	}
	res.notes = append(res.notes,
		fmt.Sprintf("fail_frac counts non-200, degraded, and answers failing the output checks; %d answers were checked bit for bit against core.Estimator",
			len(pending)),
		tailNote(lat),
		fmt.Sprintf("setup_s samples %v", setupTimes))
	if lr.FirstErr != "" {
		res.notes = append(res.notes, "first failure: "+lr.FirstErr)
	}
	return res, nil
}
