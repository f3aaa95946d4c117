package flowsim

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"m3/internal/topo"
	"m3/internal/unit"
	"m3/internal/workload"
)

func TestMaxMinSingleLink(t *testing.T) {
	caps := []float64{10}
	routes := [][]int32{{0}, {0}}
	rates := MaxMinRates(caps, routes)
	for i, r := range rates {
		if math.Abs(r-5) > 1e-9 {
			t.Errorf("flow %d rate = %v, want 5", i, r)
		}
	}
}

func TestMaxMinClassicParkingLot(t *testing.T) {
	// Two links of capacity 10. Flow 0 crosses both; flows 1 and 2 cross one
	// link each. Max-min: all get 5.
	caps := []float64{10, 10}
	routes := [][]int32{{0, 1}, {0}, {1}}
	rates := MaxMinRates(caps, routes)
	for i, r := range rates {
		if math.Abs(r-5) > 1e-9 {
			t.Errorf("flow %d rate = %v, want 5", i, r)
		}
	}
}

func TestMaxMinHeterogeneous(t *testing.T) {
	// Link 0 cap 10 shared by flows A (link 0 only) and B (links 0,1).
	// Link 1 cap 4 shared by B and C (link 1 only).
	// B and C bottleneck on link 1 at 2 each; A then gets 8 on link 0.
	caps := []float64{10, 4}
	routes := [][]int32{{0}, {0, 1}, {1}}
	rates := MaxMinRates(caps, routes)
	want := []float64{8, 2, 2}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Errorf("flow %d rate = %v, want %v", i, rates[i], want[i])
		}
	}
}

func TestMaxMinEmpty(t *testing.T) {
	rates := MaxMinRates([]float64{10}, nil)
	if len(rates) != 0 {
		t.Errorf("expected empty allocation")
	}
}

// Max-min properties: feasibility (no link over capacity) and that the
// allocation is max-min (no flow can increase without decreasing a flow
// with rate <= its own — checked via bottleneck condition: every flow has a
// saturated link where it has the max rate).
func TestMaxMinProperties(t *testing.T) {
	f := func(seed uint32) bool {
		// Build a random small scenario deterministically from seed.
		s := uint64(seed)
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int((s >> 33) % uint64(n))
		}
		nLinks := next(5) + 1
		nFlows := next(8) + 1
		caps := make([]float64, nLinks)
		for i := range caps {
			caps[i] = float64(next(100) + 1)
		}
		routes := make([][]int32, nFlows)
		for i := range routes {
			hops := next(nLinks) + 1
			start := next(nLinks - hops + 1)
			for h := 0; h < hops; h++ {
				routes[i] = append(routes[i], int32(start+h))
			}
		}
		rates := MaxMinRates(caps, routes)
		// Feasibility.
		used := make([]float64, nLinks)
		for i, route := range routes {
			for _, l := range route {
				used[l] += rates[i]
			}
		}
		for l := range caps {
			if used[l] > caps[l]+1e-6 {
				return false
			}
		}
		// Bottleneck condition.
		for i, route := range routes {
			ok := false
			for _, l := range route {
				if used[l] >= caps[l]-1e-6 {
					isMax := true
					for j, r2 := range routes {
						for _, l2 := range r2 {
							if l2 == l && rates[j] > rates[i]+1e-6 {
								isMax = false
							}
						}
					}
					if isMax {
						ok = true
						break
					}
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func singleLinkTopo(t *testing.T) (*topo.ParkingLot, []topo.LinkID) {
	t.Helper()
	p, err := topo.NewParkingLot([]unit.Rate{10 * unit.Gbps}, []unit.Time{unit.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	return p, p.FgRoute()
}

func TestRunSingleUncontendedFlow(t *testing.T) {
	p, route := singleLinkTopo(t)
	flows := []workload.Flow{{
		ID: 0, Src: p.FgSrc(), Dst: p.FgDst(), Size: 50000, Arrival: 0, Route: route,
	}}
	res, err := Run(p.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Slowdown[0]-1) > 1e-6 {
		t.Errorf("uncontended slowdown = %v, want 1", res.Slowdown[0])
	}
	ideal := p.IdealFCT(50000, route)
	if d := float64(res.FCT[0]-ideal) / float64(ideal); math.Abs(d) > 1e-6 {
		t.Errorf("FCT = %v, ideal %v", res.FCT[0], ideal)
	}
}

func TestRunTwoConcurrentFlowsShare(t *testing.T) {
	p, route := singleLinkTopo(t)
	// Two identical flows at t=0 share the link: each takes ~2x as long in
	// the fluid part.
	size := unit.ByteSize(100000)
	flows := []workload.Flow{
		{ID: 0, Src: p.FgSrc(), Dst: p.FgDst(), Size: size, Arrival: 0, Route: route},
		{ID: 1, Src: p.FgSrc(), Dst: p.FgDst(), Size: size, Arrival: 0, Route: route},
	}
	res, err := Run(p.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if res.Slowdown[i] < 1.8 || res.Slowdown[i] > 2.05 {
			t.Errorf("flow %d slowdown = %v, want ~2", i, res.Slowdown[i])
		}
	}
}

func TestRunSequentialFlowsNoInteraction(t *testing.T) {
	p, route := singleLinkTopo(t)
	// Second flow arrives long after the first finishes.
	flows := []workload.Flow{
		{ID: 0, Src: p.FgSrc(), Dst: p.FgDst(), Size: 10000, Arrival: 0, Route: route},
		{ID: 1, Src: p.FgSrc(), Dst: p.FgDst(), Size: 10000, Arrival: unit.Second, Route: route},
	}
	res, err := Run(p.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if math.Abs(res.Slowdown[i]-1) > 1e-6 {
			t.Errorf("flow %d slowdown = %v, want 1", i, res.Slowdown[i])
		}
	}
}

func TestRunLateArrivalSlowsFirst(t *testing.T) {
	p, route := singleLinkTopo(t)
	// Big flow starts alone; small flow arrives midway and shares.
	big := unit.ByteSize(1000000)
	flows := []workload.Flow{
		{ID: 0, Src: p.FgSrc(), Dst: p.FgDst(), Size: big, Arrival: 0, Route: route},
		{ID: 1, Src: p.FgSrc(), Dst: p.FgDst(), Size: 100000, Arrival: unit.FromSeconds(0.0002), Route: route},
	}
	res, err := Run(p.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown[0] <= 1.05 {
		t.Errorf("big flow slowdown = %v, want > 1.05", res.Slowdown[0])
	}
	if res.Slowdown[1] <= 1.5 {
		t.Errorf("small flow slowdown = %v, want ~2 while sharing", res.Slowdown[1])
	}
}

func TestRunMultiHopBottleneck(t *testing.T) {
	// 3-hop path 10G-40G-10G: fg flow plus a bg flow on the middle link only.
	p, err := topo.NewParkingLot(
		[]unit.Rate{10 * unit.Gbps, 40 * unit.Gbps, 10 * unit.Gbps},
		[]unit.Time{unit.Microsecond, unit.Microsecond, unit.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	src, dst, bgRoute, err := p.AttachBg(1, 2, 1, 2, 10*unit.Gbps, 10*unit.Gbps, unit.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	flows := []workload.Flow{
		{ID: 0, Src: p.FgSrc(), Dst: p.FgDst(), Size: 500000, Arrival: 0, Route: p.FgRoute()},
		{ID: 1, Src: src, Dst: dst, Size: 500000, Arrival: 0, Route: bgRoute},
	}
	res, err := Run(p.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	// Middle link is 40G with both flows needing <= 10G each: no contention.
	if res.Slowdown[0] > 1.05 {
		t.Errorf("fg slowdown = %v, want ~1 (no contention on 40G middle)", res.Slowdown[0])
	}
}

func TestRunErrors(t *testing.T) {
	p, route := singleLinkTopo(t)
	_, err := Run(p.Topology, []workload.Flow{{ID: 5, Route: route}})
	if err == nil {
		t.Error("out-of-range ID accepted")
	}
	_, err = Run(p.Topology, []workload.Flow{{ID: 0}})
	if err == nil {
		t.Error("missing route accepted")
	}
	_, err = Run(p.Topology, []workload.Flow{{ID: 0, Route: route}, {ID: 0, Route: route}})
	if err == nil {
		t.Error("duplicate ID accepted")
	}
	_, err = Run(p.Topology, []workload.Flow{{ID: 0, Route: []topo.LinkID{topo.LinkID(p.NumLinks())}}})
	if err == nil {
		t.Error("out-of-range link accepted")
	}
	res, err := Run(p.Topology, nil)
	if err != nil || len(res.FCT) != 0 {
		t.Error("empty input should succeed with empty result")
	}
	// A flat input whose slices disagree is refused before simulating.
	bad := &Input{
		Rates: []unit.Rate{unit.Gbps}, Delays: []unit.Time{0},
		Sizes: []unit.ByteSize{1000}, Arrivals: []unit.Time{0},
		Routes: []int32{0}, RouteOff: []int32{0},
	}
	if err := bad.Run(context.Background(), &Result{}); err == nil {
		t.Error("input with a missing route offset accepted")
	}
}

func TestRunUnsortedInput(t *testing.T) {
	p, route := singleLinkTopo(t)
	flows := []workload.Flow{
		{ID: 0, Src: p.FgSrc(), Dst: p.FgDst(), Size: 10000, Arrival: unit.Second, Route: route},
		{ID: 1, Src: p.FgSrc(), Dst: p.FgDst(), Size: 10000, Arrival: 0, Route: route},
	}
	res, err := Run(p.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if math.Abs(res.Slowdown[i]-1) > 1e-6 {
			t.Errorf("flow %d slowdown = %v", i, res.Slowdown[i])
		}
	}
}

func TestRunSyntheticWorkloadSane(t *testing.T) {
	syn, err := workload.GenerateSynthetic(workload.SynthSpec{
		Hops: 4, NumFg: 400, BgPerLink: 0.5,
		Sizes: workload.CacheFollower, Burstiness: 1.5, MaxLoad: 0.5, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(syn.Lot.Topology, syn.Flows)
	if err != nil {
		t.Fatal(err)
	}
	var below, total int
	for _, s := range res.Slowdown {
		total++
		if s < 1-1e-6 {
			below++
		}
		if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
			t.Fatalf("bad slowdown %v", s)
		}
	}
	if below > 0 {
		t.Errorf("%d/%d slowdowns below 1", below, total)
	}
	// At 50% load with bursts there must be some contention.
	var contended int
	for _, s := range res.Slowdown {
		if s > 1.2 {
			contended++
		}
	}
	if contended == 0 {
		t.Error("no contention at 50% load — suspicious")
	}
}

// Property: fluid completion respects work conservation on a single link —
// total service time of n back-to-back flows is at least total size / rate.
func TestRunWorkConservationProperty(t *testing.T) {
	p, route := singleLinkTopo(t)
	f := func(sizes [4]uint16) bool {
		flows := make([]workload.Flow, 0, 4)
		var totalWire float64
		for i, s := range sizes {
			size := unit.ByteSize(int(s)%100000 + 1000)
			flows = append(flows, workload.Flow{
				ID: workload.FlowID(i), Src: p.FgSrc(), Dst: p.FgDst(),
				Size: size, Arrival: 0, Route: route,
			})
			totalWire += float64(unit.WireSize(size).Bits())
		}
		res, err := Run(p.Topology, flows)
		if err != nil {
			return false
		}
		var lastDone float64
		for i := range flows {
			done := flows[i].Arrival.Seconds() + res.FCT[i].Seconds()
			if done > lastDone {
				lastDone = done
			}
		}
		minTime := totalWire / float64(10*unit.Gbps)
		return lastDone >= minTime-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
