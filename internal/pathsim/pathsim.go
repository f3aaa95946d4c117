// Package pathsim implements the paper's path-level decomposition (§2.1,
// §3.2): it splits a full-network workload into per-path scenarios, each a
// parking-lot topology carrying the path's foreground flows (flows that
// traverse every link of the path, Eq. 1) and background flows (flows that
// intersect at least one link, Eq. 2).
//
// Scenarios can be executed at packet granularity (ns-3-path, the oracle of
// §2.1) or at fluid granularity (flowSim, the m3 feature extractor).
package pathsim

import (
	"context"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"m3/internal/flowsim"
	"m3/internal/packetsim"
	"m3/internal/topo"
	"m3/internal/unit"
	"m3/internal/workload"
)

// Path is one distinct route together with the flows that traverse it
// end-to-end.
type Path struct {
	Links []topo.LinkID
	Fg    []workload.FlowID // flows whose route is exactly this path
}

// Hops returns the path length in links.
func (p *Path) Hops() int { return len(p.Links) }

// Decomposition indexes a workload by path and by link.
type Decomposition struct {
	T     *topo.Topology
	Flows []workload.Flow
	Paths []Path
	// linkIDs[linkOff[l]:linkOff[l+1]] lists the flows crossing directed
	// link l, in flow-list order.
	linkOff []int32
	linkIDs []workload.FlowID
}

// Decompose groups flows by route and builds the link index. Flow IDs must
// be dense in [0, len(flows)).
func Decompose(t *topo.Topology, flows []workload.Flow) (*Decomposition, error) {
	d := &Decomposition{
		T:       t,
		Flows:   flows,
		linkOff: make([]int32, len(t.Links)+1),
	}
	var h maphash.Hash
	seed := maphash.MakeSeed()
	byKey := make(map[uint64][]int) // route hash -> path indices (collision-safe)

	for i := range flows {
		f := &flows[i]
		if int(f.ID) < 0 || int(f.ID) >= len(flows) {
			return nil, fmt.Errorf("pathsim: flow ID %d out of range", f.ID)
		}
		if len(f.Route) == 0 {
			return nil, fmt.Errorf("pathsim: flow %d has no route", f.ID)
		}
		h.SetSeed(seed)
		for _, l := range f.Route {
			if l < 0 || int(l) >= len(t.Links) {
				return nil, fmt.Errorf("pathsim: flow %d crosses link %d, out of range [0,%d)",
					f.ID, l, len(t.Links))
			}
			var b [4]byte
			b[0] = byte(l)
			b[1] = byte(l >> 8)
			b[2] = byte(l >> 16)
			b[3] = byte(l >> 24)
			h.Write(b[:])
			d.linkOff[l+1]++
		}
		key := h.Sum64()
		found := -1
		for _, pi := range byKey[key] {
			if slices.Equal(d.Paths[pi].Links, f.Route) {
				found = pi
				break
			}
		}
		if found < 0 {
			found = len(d.Paths)
			d.Paths = append(d.Paths, Path{Links: f.Route})
			byKey[key] = append(byKey[key], found)
		}
		d.Paths[found].Fg = append(d.Paths[found].Fg, f.ID)
	}
	for l := range t.Links {
		d.linkOff[l+1] += d.linkOff[l]
	}
	d.linkIDs = make([]workload.FlowID, d.linkOff[len(t.Links)])
	fill := append([]int32(nil), d.linkOff[:len(t.Links)]...)
	for i := range flows {
		for _, l := range flows[i].Route {
			d.linkIDs[fill[l]] = flows[i].ID
			fill[l]++
		}
	}
	return d, nil
}

// linkFlows returns the flows crossing directed link l.
func (d *Decomposition) linkFlows(l topo.LinkID) []workload.FlowID {
	return d.linkIDs[d.linkOff[l]:d.linkOff[l+1]]
}

// FgWeights returns the per-path foreground flow counts, the weights used by
// the paper's path sampling (§3.2).
func (d *Decomposition) FgWeights() []float64 {
	w := make([]float64, len(d.Paths))
	for i := range d.Paths {
		w[i] = float64(len(d.Paths[i].Fg))
	}
	return w
}

// Background returns the IDs of flows that intersect the path on at least
// one link but are not foreground (Eq. 2), ascending.
func (d *Decomposition) Background(p *Path) []workload.FlowID {
	sc := scenarioPool.Get().(*Scenario)
	defer scenarioPool.Put(sc)
	return slices.Clone(sc.background(d, p))
}

// background collects p's background flows into sc.bg, ascending. A flow
// is marked seen by stamping it with the current epoch, so the stamp slice
// is never cleared between scenarios.
func (sc *Scenario) background(d *Decomposition, p *Path) []workload.FlowID {
	if len(sc.stamp) < len(d.Flows) {
		sc.stamp = make([]uint32, len(d.Flows))
		sc.epoch = 0
	}
	if sc.epoch++; sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
	for _, id := range p.Fg {
		sc.stamp[id] = sc.epoch
	}
	bg := sc.bg[:0]
	for _, l := range p.Links {
		for _, id := range d.linkFlows(l) {
			if sc.stamp[id] != sc.epoch {
				sc.stamp[id] = sc.epoch
				bg = append(bg, id)
			}
		}
	}
	slices.Sort(bg)
	sc.bg = bg
	return bg
}

// ScenarioFlow describes one flow inside a path-level scenario.
type ScenarioFlow struct {
	// Orig is the flow's ID in the full workload.
	Orig workload.FlowID
	// Fg marks foreground flows.
	Fg bool
	// Join and Exit delimit the original path links this flow crosses:
	// links [Join, Exit). Foreground flows span the whole path.
	Join, Exit int
}

// Scenario is a materialized path-level simulation input, the parking lot
// of §3.2 laid out flat: per-link rate and delay arrays and one route slab,
// ready for flowSim. Path link i is scenario link 2i (forward) with 2i+1 its
// reverse; each synthetic stub adds a forward/reverse pair after them, in
// first-use order. Flows are dense and scenario-local: foreground flows
// first, then background segments.
//
// Scenarios are recycled: Release hands one back for reuse by a later
// Decomposition.Scenario call, after which it must not be touched. Results
// returned by its methods never alias its memory, so they outlive Release,
// and an unreleased scenario is simply garbage-collected.
type Scenario struct {
	Path  *Path
	Flows []ScenarioFlow // indexed by scenario-local flow ID

	d   *Decomposition
	in  flowsim.Input
	res flowsim.Result // flowSim output scratch, copied out by RunFlowSim

	// Build scratch: background flows, their seen-stamps (indexed by
	// original flow ID), and the stub lookup.
	bg    []workload.FlowID
	stamp []uint32
	epoch uint32
	stubs map[stubKey]int32
}

// stubKey identifies a synthetic stub: stubs are shared by the background
// flows with the same original endpoint host that join (or exit) the path
// at the same position.
type stubKey struct {
	host topo.NodeID
	pos  int32
	exit bool
}

// stubDelay is a synthetic stub link's propagation delay.
const stubDelay = unit.Microsecond

var scenarioPool = sync.Pool{New: func() any {
	return &Scenario{stubs: make(map[stubKey]int32)}
}}

// Scenario builds the parking lot for path p: foreground flows run the
// whole chain; every maximal contiguous run of path links a background flow
// crosses becomes one scenario flow entering and exiting through synthetic
// stubs (stubs are shared per original endpoint host, and carry that host's
// access capacity). Non-contiguous intersections (possible in fat-trees when
// a flow shares only the first and last hop of a path) are split into
// independent segment flows — each segment loads its links exactly as the
// original flow did; only the coupling between segments is dropped. Call
// Release on the result once done with it.
func (d *Decomposition) Scenario(p *Path) (*Scenario, error) {
	hops := len(p.Links)
	if hops == 0 {
		return nil, fmt.Errorf("pathsim: path has no links")
	}
	sc := scenarioPool.Get().(*Scenario)
	sc.Path, sc.d = p, d
	sc.Flows = sc.Flows[:0]
	in := &sc.in
	in.Rates, in.Delays = in.Rates[:0], in.Delays[:0]
	in.Sizes, in.Arrivals = in.Sizes[:0], in.Arrivals[:0]
	in.Routes, in.RouteOff = in.Routes[:0], append(in.RouteOff[:0], 0)
	clear(sc.stubs)

	for _, l := range p.Links {
		lk := d.T.Link(l)
		sc.addLinkPair(lk.Rate, lk.Delay)
	}
	for _, id := range p.Fg {
		for i := 0; i < hops; i++ {
			in.Routes = append(in.Routes, int32(2*i))
		}
		sc.addFlow(&d.Flows[id], true, 0, hops)
	}
	for _, id := range sc.background(d, p) {
		f := &d.Flows[id]
		// Extract maximal contiguous runs of path positions, in the order
		// the flow traverses them.
		run := -1 // start position of current run on the path
		prev := -1
		for _, l := range f.Route {
			pi := slices.Index(p.Links, l)
			if pi >= 0 && prev >= 0 && pi == prev+1 && run >= 0 {
				prev = pi
				continue
			}
			if run >= 0 {
				sc.addSegment(f, run, prev+1)
				run = -1
			}
			if pi >= 0 {
				run, prev = pi, pi
			} else {
				prev = -1
			}
		}
		if run >= 0 {
			sc.addSegment(f, run, prev+1)
		}
	}
	return sc, nil
}

// Release returns the scenario to the pool for reuse. The scenario must not
// be used afterwards.
func (sc *Scenario) Release() {
	sc.Path, sc.d = nil, nil
	scenarioPool.Put(sc)
}

// addLinkPair appends a forward/reverse link pair and returns the forward
// link's index.
func (sc *Scenario) addLinkPair(rate unit.Rate, delay unit.Time) int32 {
	id := int32(len(sc.in.Rates))
	sc.in.Rates = append(sc.in.Rates, rate, rate)
	sc.in.Delays = append(sc.in.Delays, delay, delay)
	return id
}

// addFlow appends a flow whose route was just written to the route slab.
func (sc *Scenario) addFlow(orig *workload.Flow, fg bool, join, exit int) {
	in := &sc.in
	in.Sizes = append(in.Sizes, orig.Size)
	in.Arrivals = append(in.Arrivals, orig.Arrival)
	in.RouteOff = append(in.RouteOff, int32(len(in.Routes)))
	sc.Flows = append(sc.Flows, ScenarioFlow{Orig: orig.ID, Fg: fg, Join: join, Exit: exit})
}

// addSegment appends the background segment of f that crosses path links
// [join, exit), entering and leaving through the stubs of f's original
// source and destination hosts (created on first use, with the hosts'
// access rates).
func (sc *Scenario) addSegment(f *workload.Flow, join, exit int) {
	srcRate, dstRate := sc.d.accessRates(f)
	entry := sc.stub(stubKey{host: f.Src, pos: int32(join)}, srcRate)
	leave := sc.stub(stubKey{host: f.Dst, pos: int32(exit), exit: true}, dstRate)
	sc.in.Routes = append(sc.in.Routes, entry)
	for i := join; i < exit; i++ {
		sc.in.Routes = append(sc.in.Routes, int32(2*i))
	}
	sc.in.Routes = append(sc.in.Routes, leave)
	sc.addFlow(f, false, join, exit)
}

// accessRates returns the rates of f's first and last links: its original
// source and destination hosts' access capacities, which their stubs carry.
func (d *Decomposition) accessRates(f *workload.Flow) (src, dst unit.Rate) {
	return d.T.Link(f.Route[0]).Rate, d.T.Link(f.Route[len(f.Route)-1]).Rate
}

// stub returns the forward link of the stub named by k, adding it if new.
func (sc *Scenario) stub(k stubKey, rate unit.Rate) int32 {
	if l, ok := sc.stubs[k]; ok {
		return l
	}
	l := sc.addLinkPair(rate, stubDelay)
	sc.stubs[k] = l
	return l
}

// Hops returns the number of original links on the scenario's path.
func (sc *Scenario) Hops() int { return len(sc.Path.Links) }

// ParkingLot materializes the scenario as a topology for packet-level
// simulation, by replaying the background segments onto a
// topo.ParkingLot. Links are numbered exactly as in the flat scenario, and
// the returned flows carry real endpoint nodes.
func (sc *Scenario) ParkingLot() (*topo.ParkingLot, []workload.Flow, error) {
	t := sc.d.T
	lot, err := topo.NewParkingLot(t.RouteRates(sc.Path.Links), t.RouteDelays(sc.Path.Links))
	if err != nil {
		return nil, nil, err
	}
	flows := make([]workload.Flow, len(sc.Flows))
	for i := range sc.Flows {
		m := &sc.Flows[i]
		f := &flows[i]
		*f = workload.Flow{ID: workload.FlowID(i), Size: sc.in.Sizes[i], Arrival: sc.in.Arrivals[i]}
		if m.Fg {
			f.Src, f.Dst, f.Route = lot.FgSrc(), lot.FgDst(), lot.FgRoute()
			continue
		}
		orig := &sc.d.Flows[m.Orig]
		srcRate, dstRate := sc.d.accessRates(orig)
		f.Src, f.Dst, f.Route, err = lot.AttachBg(uint64(orig.Src), uint64(orig.Dst), m.Join, m.Exit,
			srcRate, dstRate, stubDelay)
		if err != nil {
			return nil, nil, err
		}
	}
	return lot, flows, nil
}

// FgResult holds per-foreground-flow outcomes of a scenario simulation,
// aligned with Scenario foreground order (and carrying original IDs).
type FgResult struct {
	Orig     []workload.FlowID
	Sizes    []unit.ByteSize
	Slowdown []float64
}

// RunPacket executes the scenario at packet granularity (ns-3-path) and
// returns foreground slowdowns.
func (sc *Scenario) RunPacket(cfg packetsim.Config) (*FgResult, error) {
	return sc.RunPacketContext(context.Background(), cfg)
}

// RunPacketContext is RunPacket with cooperative cancellation: an expired
// or cancelled ctx aborts the packet simulation mid-run with ctx.Err().
func (sc *Scenario) RunPacketContext(ctx context.Context, cfg packetsim.Config) (*FgResult, error) {
	lot, flows, err := sc.ParkingLot()
	if err != nil {
		return nil, err
	}
	res, err := packetsim.RunContext(ctx, lot.Topology, flows, cfg)
	if err != nil {
		return nil, err
	}
	return sc.fgResult(res.Slowdown), nil
}

// FlowSimResult carries flowSim outcomes for the whole scenario: foreground
// slowdowns plus, for every original path link, the slowdowns and sizes of
// the background flows crossing it (the inputs to the feature maps of §3.4).
type FlowSimResult struct {
	Fg *FgResult
	// BgSizes[l] / BgSldn[l] describe background flows crossing path link l.
	BgSizes [][]unit.ByteSize
	BgSldn  [][]float64
}

// RunFlowSim executes the scenario in flowSim.
func (sc *Scenario) RunFlowSim() (*FlowSimResult, error) {
	return sc.RunFlowSimContext(context.Background())
}

// RunFlowSimContext is RunFlowSim with cooperative cancellation: an expired
// or cancelled ctx aborts the fluid simulation mid-run with ctx.Err().
func (sc *Scenario) RunFlowSimContext(ctx context.Context) (*FlowSimResult, error) {
	if err := sc.in.Run(ctx, &sc.res); err != nil {
		return nil, err
	}
	hops := sc.Hops()
	out := &FlowSimResult{
		Fg:      sc.fgResult(sc.res.Slowdown),
		BgSizes: make([][]unit.ByteSize, hops),
		BgSldn:  make([][]float64, hops),
	}
	// Size each link's slices exactly, carving them from two slabs.
	count := make([]int, hops)
	total := 0
	for i := range sc.Flows {
		if m := &sc.Flows[i]; !m.Fg {
			for l := m.Join; l < m.Exit; l++ {
				count[l]++
			}
			total += m.Exit - m.Join
		}
	}
	sizes := make([]unit.ByteSize, 0, total)
	sldn := make([]float64, 0, total)
	for l := 0; l < hops; l++ {
		if count[l] > 0 {
			out.BgSizes[l] = sizes[len(sizes) : len(sizes) : len(sizes)+count[l]]
			out.BgSldn[l] = sldn[len(sldn) : len(sldn) : len(sldn)+count[l]]
			sizes, sldn = sizes[:len(sizes)+count[l]], sldn[:len(sldn)+count[l]]
		}
	}
	for i := range sc.Flows {
		m := &sc.Flows[i]
		if m.Fg {
			continue
		}
		for l := m.Join; l < m.Exit; l++ {
			out.BgSizes[l] = append(out.BgSizes[l], sc.in.Sizes[i])
			out.BgSldn[l] = append(out.BgSldn[l], sc.res.Slowdown[i])
		}
	}
	return out, nil
}

func (sc *Scenario) fgResult(slowdown []float64) *FgResult {
	n := sc.NumFg() // foreground flows come first
	fr := &FgResult{
		Orig:     make([]workload.FlowID, n),
		Sizes:    slices.Clone(sc.in.Sizes[:n]),
		Slowdown: slices.Clone(slowdown[:n]),
	}
	for i := range fr.Orig {
		fr.Orig[i] = sc.Flows[i].Orig
	}
	return fr
}

// NumFg returns the scenario's foreground flow count.
func (sc *Scenario) NumFg() int { return len(sc.Path.Fg) }

// NumBg returns the scenario's background (segment) flow count.
func (sc *Scenario) NumBg() int { return len(sc.Flows) - sc.NumFg() }
