// Package flowsim implements the paper's flowSim (Appendix A, Algorithm 1):
// a fluid flow-level simulator that assigns every active flow its max-min
// fair rate, recomputing the allocation whenever a flow arrives or
// completes. A flow finishes when its allocated rate has drained its wire
// size; the end-to-end latency factor of the unloaded path is then added so
// that an uncontended flow has slowdown exactly 1.
//
// flowSim deliberately ignores queueing dynamics, packet boundaries, and
// congestion control — that is what makes it fast, and what the m3 model is
// trained to correct (§3.3).
package flowsim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"m3/internal/topo"
	"m3/internal/unit"
	"m3/internal/workload"
)

// Result holds per-flow outcomes, indexed by FlowID.
type Result struct {
	// FCT is each flow's completion time minus its arrival time.
	FCT []unit.Time
	// Slowdown is FCT normalized by the unloaded-path ideal FCT.
	Slowdown []float64
}

// allocator computes max-min fair allocations by progressive filling with
// reusable buffers, touching only the links the active flows use (full
// topologies can have tens of thousands of links while a path scenario's
// active set uses a handful).
type allocator struct {
	caps     []float64
	residual []float64
	count    []int32
	stamp    []uint32
	epoch    uint32
	links    []int32 // links used by the current active set
	frozen   []bool
}

func newAllocator(caps []float64) *allocator {
	a := &allocator{}
	a.reset(caps)
	return a
}

// reset points the allocator at a (possibly different-sized) capacity vector,
// growing the per-link buffers as needed. Stale stamps from earlier runs are
// harmless: epoch only moves forward, so they never match a future epoch.
func (a *allocator) reset(caps []float64) {
	a.caps = caps
	if len(a.residual) < len(caps) {
		a.residual = make([]float64, len(caps))
		a.count = make([]int32, len(caps))
		a.stamp = make([]uint32, len(caps))
		a.epoch = 0
	}
}

// alloc writes each flow's max-min rate into rates (len(routes)).
func (a *allocator) alloc(routes [][]int32, rates []float64) {
	n := len(routes)
	if n == 0 {
		return
	}
	a.epoch++
	a.links = a.links[:0]
	for _, route := range routes {
		for _, l := range route {
			if a.stamp[l] != a.epoch {
				a.stamp[l] = a.epoch
				a.residual[l] = a.caps[l]
				a.count[l] = 0
				a.links = append(a.links, l)
			}
			a.count[l]++
		}
	}
	if cap(a.frozen) < n {
		a.frozen = make([]bool, n)
	}
	frozen := a.frozen[:n]
	for i := range frozen {
		frozen[i] = false
	}
	remaining := n
	for remaining > 0 {
		bottleneck := int32(-1)
		best := math.Inf(1)
		for _, l := range a.links {
			if a.count[l] <= 0 {
				continue
			}
			share := a.residual[l] / float64(a.count[l])
			if share < best {
				best = share
				bottleneck = l
			}
		}
		if bottleneck < 0 {
			for i := range routes {
				if !frozen[i] {
					rates[i] = math.Inf(1)
					frozen[i] = true
					remaining--
				}
			}
			break
		}
		if best < 0 {
			best = 0
		}
		for i, route := range routes {
			if frozen[i] {
				continue
			}
			uses := false
			for _, l := range route {
				if l == bottleneck {
					uses = true
					break
				}
			}
			if !uses {
				continue
			}
			rates[i] = best
			frozen[i] = true
			remaining--
			for _, l := range route {
				a.residual[l] -= best
				a.count[l]--
			}
		}
	}
}

// MaxMinRates computes the max-min fair allocation by progressive filling:
// repeatedly find the link with the smallest fair share among its unfrozen
// flows, freeze those flows at that share, and remove their demand from the
// rest of the network. caps[l] is link l's capacity; routes[i] lists the
// links flow i uses. The returned rates use the same unit as caps.
func MaxMinRates(caps []float64, routes [][]int32) []float64 {
	rates := make([]float64, len(routes))
	newAllocator(caps).alloc(routes, rates)
	return rates
}

// Input is flowSim's flat simulation input. Links are described by Rates
// and Delays, indexed by link; flows by Sizes and Arrivals, indexed by flow.
// Flow i crosses links Routes[RouteOff[i]:RouteOff[i+1]] in order, so
// RouteOff has one more entry than there are flows. Arrival ties are broken
// by flow index.
type Input struct {
	Rates    []unit.Rate
	Delays   []unit.Time
	Sizes    []unit.ByteSize
	Arrivals []unit.Time
	Routes   []int32
	RouteOff []int32
}

// route returns flow i's links.
func (in *Input) route(i int) []int32 { return in.Routes[in.RouteOff[i]:in.RouteOff[i+1]] }

// validate checks that the input's slices agree in length and that every
// route is non-empty and names existing links.
func (in *Input) validate() error {
	n := len(in.Sizes)
	if len(in.Rates) != len(in.Delays) {
		return fmt.Errorf("flowsim: %d link rates but %d delays", len(in.Rates), len(in.Delays))
	}
	if len(in.Arrivals) != n || len(in.RouteOff) != n+1 {
		return fmt.Errorf("flowsim: %d sizes, %d arrivals and %d route offsets disagree",
			n, len(in.Arrivals), len(in.RouteOff))
	}
	if in.RouteOff[0] != 0 || int(in.RouteOff[n]) != len(in.Routes) {
		return fmt.Errorf("flowsim: route offsets span [%d,%d), want [0,%d)",
			in.RouteOff[0], in.RouteOff[n], len(in.Routes))
	}
	for i := 0; i < n; i++ {
		if in.RouteOff[i+1] <= in.RouteOff[i] {
			return fmt.Errorf("flowsim: flow %d has no route", i)
		}
	}
	for _, l := range in.Routes {
		if l < 0 || int(l) >= len(in.Rates) {
			return fmt.Errorf("flowsim: link %d out of range [0,%d)", l, len(in.Rates))
		}
	}
	return nil
}

// Run simulates the flows on t and returns per-flow FCTs and slowdowns.
// Flows need not be sorted; results are indexed by FlowID, which must be
// dense in [0, len(flows)).
func Run(t *topo.Topology, flows []workload.Flow) (*Result, error) {
	return RunContext(context.Background(), t, flows)
}

// RunContext is Run with cooperative cancellation. It lays the topology and
// flows out as an Input, each flow at the index of its ID, and simulates it.
func RunContext(ctx context.Context, t *topo.Topology, flows []workload.Flow) (*Result, error) {
	n := len(flows)
	in := Input{
		Rates:    make([]unit.Rate, len(t.Links)),
		Delays:   make([]unit.Time, len(t.Links)),
		Sizes:    make([]unit.ByteSize, n),
		Arrivals: make([]unit.Time, n),
		RouteOff: make([]int32, n+1),
	}
	for i := range t.Links {
		in.Rates[i], in.Delays[i] = t.Links[i].Rate, t.Links[i].Delay
	}
	for i := range flows {
		f := &flows[i]
		if int(f.ID) < 0 || int(f.ID) >= n {
			return nil, fmt.Errorf("flowsim: flow ID %d out of range [0,%d)", f.ID, n)
		}
		if len(f.Route) == 0 {
			return nil, fmt.Errorf("flowsim: flow %d has no route", f.ID)
		}
		if in.RouteOff[f.ID+1] != 0 {
			return nil, fmt.Errorf("flowsim: duplicate flow ID %d", f.ID)
		}
		in.RouteOff[f.ID+1] = int32(len(f.Route))
		in.Sizes[f.ID], in.Arrivals[f.ID] = f.Size, f.Arrival
	}
	for i := 0; i < n; i++ {
		in.RouteOff[i+1] += in.RouteOff[i]
	}
	in.Routes = make([]int32, in.RouteOff[n])
	for i := range flows {
		f := &flows[i]
		dst := in.Routes[in.RouteOff[f.ID]:]
		for k, l := range f.Route {
			dst[k] = int32(l)
		}
	}
	res := &Result{}
	if err := in.Run(ctx, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ctxPollInterval is how many event-loop iterations pass between
// cancellation checks; polling is O(1) but not free, so it is amortized.
const ctxPollInterval = 512

// active is one in-flight flow's fluid state.
type active struct {
	idx       int     // flow index
	remaining float64 // wire bits left
	rate      float64 // bits/s
	route     []int32
}

// runScratch bundles every intermediate a simulation run needs, recycled via
// a sync.Pool so steady-state callers (the estimator featurizing hundreds of
// paths per request) allocate nothing but what they keep.
type runScratch struct {
	order   []int
	caps    []float64
	routes  [][]int32 // active-set views passed to the allocator
	act     []active
	rateBuf []float64
	hopRate []unit.Rate // one route's link rates, for the ideal FCT
	hopDel  []unit.Time // one route's link delays
	alloc   allocator
}

var runPool = sync.Pool{New: func() any { return new(runScratch) }}

// Run simulates the input, writing flow i's FCT and slowdown to
// res.FCT[i] and res.Slowdown[i]. res's slices are resized to the flow
// count, reusing their capacity. The event loop polls ctx every few hundred
// iterations and aborts with ctx.Err() once it is done, so callers (the
// estimation service) can cut short abandoned simulations.
func (in *Input) Run(ctx context.Context, res *Result) error {
	if err := in.validate(); err != nil {
		return err
	}
	n := len(in.Sizes)
	res.FCT = resize(res.FCT, n)
	res.Slowdown = resize(res.Slowdown, n)
	if n == 0 {
		return nil
	}
	sc := runPool.Get().(*runScratch)
	defer runPool.Put(sc)
	arrivals := in.Arrivals
	order := sc.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	sc.order = order
	slices.SortFunc(order, func(a, b int) int {
		if arrivals[a] != arrivals[b] {
			return cmp.Compare(arrivals[a], arrivals[b])
		}
		return cmp.Compare(a, b)
	})

	caps := sc.caps[:0]
	for _, r := range in.Rates {
		caps = append(caps, float64(r)) // bits/s
	}
	sc.caps = caps

	act := sc.act[:0]
	routes := sc.routes[:0] // scratch for the allocator's active set
	hopRate, hopDel := sc.hopRate, sc.hopDel

	const eps = 1e-6 // bits; completion tolerance
	// done reports whether an active flow should be considered complete. The
	// rate-relative term catches residuals so small that now + residual/rate
	// rounds to now in float64 (which would otherwise stall the event loop).
	done := func(remaining, rate float64) bool {
		return remaining <= eps || remaining <= rate*1e-12
	}

	now := 0.0 // seconds
	next := 0  // next arrival in order
	stalls := 0
	sc.alloc.reset(caps)
	alloc := &sc.alloc
	rateBuf := sc.rateBuf
	// Hand the (possibly re-grown) buffers back to the scratch on every exit
	// so the pool keeps their capacity.
	defer func() {
		sc.act, sc.routes, sc.rateBuf = act, routes, rateBuf
		sc.hopRate, sc.hopDel = hopRate, hopDel
	}()
	recompute := func() {
		routes = routes[:0]
		for i := range act {
			routes = append(routes, act[i].route)
		}
		if cap(rateBuf) < len(act) {
			rateBuf = make([]float64, len(act)*2)
		}
		rates := rateBuf[:len(act)]
		alloc.alloc(routes, rates)
		for i := range act {
			act[i].rate = rates[i]
		}
	}

	iter := 0
	for next < n || len(act) > 0 {
		if iter++; iter%ctxPollInterval == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		// Earliest completion among active flows.
		tc := math.Inf(1)
		for i := range act {
			if act[i].rate > 0 {
				c := now + act[i].remaining/act[i].rate
				if c < tc {
					tc = c
				}
			}
		}
		// Next arrival.
		ta := math.Inf(1)
		if next < n {
			ta = arrivals[order[next]].Seconds()
		}
		tNext := math.Min(tc, ta)
		if math.IsInf(tNext, 1) {
			return fmt.Errorf("flowsim: stalled with %d active flows (zero rates)", len(act))
		}
		dt := tNext - now
		if dt > 0 {
			for i := range act {
				act[i].remaining -= act[i].rate * dt
			}
		}
		now = tNext

		changed := false
		// Completions: remove drained flows (swap-remove).
		for i := 0; i < len(act); {
			if done(act[i].remaining, act[i].rate) {
				fi := act[i].idx
				size := in.Sizes[fi]
				fluid := unit.FromSeconds(now - arrivals[fi].Seconds())
				hopRate, hopDel = hopRate[:0], hopDel[:0]
				for _, l := range act[i].route {
					hopRate = append(hopRate, in.Rates[l])
					hopDel = append(hopDel, in.Delays[l])
				}
				ideal := unit.IdealFCT(size, hopRate, hopDel)
				bottleneck := slices.Min(hopRate)
				// Latency factor: everything in the ideal FCT except the
				// bottleneck serialization, which the fluid model covers.
				latency := ideal - unit.TxTime(unit.WireSize(size), bottleneck)
				fct := fluid + latency
				if fct < ideal {
					// The fluid drain is continuous-time while the ideal
					// rounds serializations up to the nanosecond; clamp so
					// an uncontended flow has slowdown exactly 1.
					fct = ideal
				}
				res.FCT[fi] = fct
				res.Slowdown[fi] = float64(fct) / float64(ideal)
				act[i] = act[len(act)-1]
				act = act[:len(act)-1]
				changed = true
				continue
			}
			i++
		}
		// Arrivals at this instant.
		for next < n && arrivals[order[next]].Seconds() <= now+1e-15 {
			fi := order[next]
			act = append(act, active{
				idx:       fi,
				remaining: float64(unit.WireSize(in.Sizes[fi]).Bits()),
				route:     in.route(fi),
			})
			next++
			changed = true
		}
		if changed {
			stalls = 0
			if len(act) > 0 {
				recompute()
			}
		} else if dt <= 0 {
			if stalls++; stalls > 1000 {
				return fmt.Errorf("flowsim: event loop stalled at t=%.9fs with %d active flows",
					now, len(act))
			}
		}
	}
	return nil
}

// resize returns s with length n, reusing its capacity when it suffices.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
