package pathsim

import (
	"math"
	"slices"
	"sort"
	"testing"

	"m3/internal/packetsim"
	"m3/internal/rng"
	"m3/internal/routing"
	"m3/internal/topo"
	"m3/internal/workload"
)

func smallWorkload(t *testing.T, n int, seed uint64) (*topo.FatTree, []workload.Flow) {
	t.Helper()
	ft, err := topo.SmallFatTree(topo.Oversub2to1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	flows, err := workload.Generate(ft, routing.NewFatTreeRouter(ft), workload.Spec{
		NumFlows: n, Sizes: workload.WebServer, Matrix: workload.MatrixB(32, r),
		Burstiness: 1.5, MaxLoad: 0.5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft, flows
}

func TestDecomposePartitionsFlows(t *testing.T) {
	ft, flows := smallWorkload(t, 2000, 1)
	d, err := Decompose(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	// Every flow is foreground on exactly one path.
	count := 0
	seen := make(map[workload.FlowID]bool)
	for i := range d.Paths {
		for _, id := range d.Paths[i].Fg {
			if seen[id] {
				t.Fatalf("flow %d foreground on multiple paths", id)
			}
			seen[id] = true
			count++
		}
	}
	if count != len(flows) {
		t.Errorf("fg flows total %d, want %d", count, len(flows))
	}
	if len(d.Paths) < 100 {
		t.Errorf("only %d distinct paths for 2000 flows — suspicious", len(d.Paths))
	}
}

func TestDecomposeFgHaveIdenticalRoutes(t *testing.T) {
	ft, flows := smallWorkload(t, 1000, 2)
	d, err := Decompose(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Paths {
		p := &d.Paths[i]
		for _, id := range p.Fg {
			if !slices.Equal(flows[id].Route, p.Links) {
				t.Fatalf("fg flow %d route differs from path", id)
			}
		}
	}
}

func TestBackgroundDefinition(t *testing.T) {
	ft, flows := smallWorkload(t, 1000, 3)
	d, err := Decompose(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the busiest path and verify Eq. 2 against a brute-force check.
	best := 0
	for i := range d.Paths {
		if len(d.Paths[i].Fg) > len(d.Paths[best].Fg) {
			best = i
		}
	}
	p := &d.Paths[best]
	bg := d.Background(p)
	onPath := make(map[topo.LinkID]bool)
	for _, l := range p.Links {
		onPath[l] = true
	}
	isFg := make(map[workload.FlowID]bool)
	for _, id := range p.Fg {
		isFg[id] = true
	}
	want := make(map[workload.FlowID]bool)
	for i := range flows {
		if isFg[flows[i].ID] {
			continue
		}
		for _, l := range flows[i].Route {
			if onPath[l] {
				want[flows[i].ID] = true
				break
			}
		}
	}
	if len(want) != len(bg) {
		t.Fatalf("bg count %d, brute force %d", len(bg), len(want))
	}
	for _, id := range bg {
		if !want[id] {
			t.Fatalf("flow %d wrongly classified background", id)
		}
	}
}

func TestScenarioConstruction(t *testing.T) {
	ft, flows := smallWorkload(t, 1500, 4)
	d, err := Decompose(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	byFg := make([]int, len(d.Paths))
	for i := range byFg {
		byFg[i] = i
	}
	sort.SliceStable(byFg, func(a, b int) bool { return len(d.Paths[byFg[a]].Fg) > len(d.Paths[byFg[b]].Fg) })
	for _, pi := range byFg[:8] {
		p := &d.Paths[pi]
		sc, err := d.Scenario(p)
		if err != nil {
			t.Fatal(err)
		}
		checkScenario(t, ft, flows, p, sc)
		sc.Release()
	}
}

// scenarioRoute returns scenario flow i's route as link IDs.
func scenarioRoute(sc *Scenario, i int) []topo.LinkID {
	var route []topo.LinkID
	for _, l := range sc.in.Routes[sc.in.RouteOff[i]:sc.in.RouteOff[i+1]] {
		route = append(route, topo.LinkID(l))
	}
	return route
}

// checkScenario asserts the structure of one path's scenario: flow spans,
// the flat link numbering, stub sharing and rates, and that the parking lot
// materialized for packet runs matches the flat slab on real nodes.
func checkScenario(t *testing.T, ft *topo.FatTree, flows []workload.Flow, p *Path, sc *Scenario) {
	t.Helper()
	if sc.NumFg() != len(p.Fg) {
		t.Errorf("scenario fg = %d, path fg = %d", sc.NumFg(), len(p.Fg))
	}
	if sc.NumBg() == 0 {
		t.Error("busy path has no background — suspicious")
	}
	hops := len(p.Links)
	// Path link i is scenario link 2i, with the original rate and delay.
	for i, l := range p.Links {
		orig := ft.Link(l)
		rate, delay := sc.in.Rates[2*i], sc.in.Delays[2*i]
		if orig.Rate != rate || orig.Delay != delay {
			t.Fatalf("path link %d rate/delay mismatch", i)
		}
	}
	type stubUse struct {
		host topo.NodeID
		pos  int
	}
	entryOf := make(map[topo.LinkID]stubUse)
	entryBy := make(map[stubUse]topo.LinkID)
	exitOf := make(map[topo.LinkID]stubUse)
	exitBy := make(map[stubUse]topo.LinkID)
	share := func(of map[topo.LinkID]stubUse, by map[stubUse]topo.LinkID, l topo.LinkID, u stubUse, what string) {
		t.Helper()
		if prev, ok := of[l]; ok && prev != u {
			t.Fatalf("%s stub %d shared by host %d at %d and host %d at %d", what, l, prev.host, prev.pos, u.host, u.pos)
		}
		if prev, ok := by[u]; ok && prev != l {
			t.Fatalf("host %d has two %s stubs at %d: %d and %d", u.host, what, u.pos, prev, l)
		}
		of[l], by[u] = u, l
	}
	for i := range sc.Flows {
		m := &sc.Flows[i]
		orig := &flows[m.Orig]
		if sc.in.Sizes[i] != orig.Size || sc.in.Arrivals[i] != orig.Arrival {
			t.Fatalf("scenario flow %d lost size/arrival", i)
		}
		if m.Join < 0 || m.Exit > hops || m.Join >= m.Exit {
			t.Fatalf("bad span [%d,%d)", m.Join, m.Exit)
		}
		route := scenarioRoute(sc, i)
		if m.Fg {
			if m.Join != 0 || m.Exit != hops {
				t.Fatal("fg flow span must cover the path")
			}
			for k, l := range route {
				if l != topo.LinkID(2*k) || len(route) != hops {
					t.Fatalf("fg flow %d route %v is not the path", i, route)
				}
			}
			continue
		}
		if len(route) != m.Exit-m.Join+2 {
			t.Fatalf("bg flow %d: route length %d, want %d", i, len(route), m.Exit-m.Join+2)
		}
		for k := m.Join; k < m.Exit; k++ {
			if route[1+k-m.Join] != topo.LinkID(2*k) {
				t.Fatalf("bg flow %d: hop %d is link %d, want path link %d", i, 1+k-m.Join, route[1+k-m.Join], k)
			}
		}
		entry, exit := route[0], route[len(route)-1]
		if entry < topo.LinkID(2*hops) || exit < topo.LinkID(2*hops) {
			t.Fatalf("bg flow %d: stub links %d/%d overlap the path's", i, entry, exit)
		}
		share(entryOf, entryBy, entry, stubUse{orig.Src, m.Join}, "entry")
		share(exitOf, exitBy, exit, stubUse{orig.Dst, m.Exit}, "exit")
		// A stub carries its original host's access capacity.
		if r := sc.in.Rates[entry]; r != ft.Link(orig.Route[0]).Rate {
			t.Fatalf("bg flow %d: entry stub rate %v, host access rate %v", i, r, ft.Link(orig.Route[0]).Rate)
		}
		if r := sc.in.Rates[exit]; r != ft.Link(orig.Route[len(orig.Route)-1]).Rate {
			t.Fatalf("bg flow %d: exit stub rate %v, host access rate %v", i, r, ft.Link(orig.Route[len(orig.Route)-1]).Rate)
		}
	}
	if len(entryOf) < 2 || len(exitOf) < 2 {
		t.Errorf("only %d entry and %d exit stubs — suspicious", len(entryOf), len(exitOf))
	}

	// The materialized parking lot is the flat slab on real nodes.
	lot, lflows, err := sc.ParkingLot()
	if err != nil {
		t.Fatal(err)
	}
	if err := lot.Validate(); err != nil {
		t.Fatal(err)
	}
	if lot.NumLinks() != len(sc.in.Rates) {
		t.Fatalf("lot has %d links, scenario %d", lot.NumLinks(), len(sc.in.Rates))
	}
	for l := 0; l < lot.NumLinks(); l++ {
		rate, delay := sc.in.Rates[l], sc.in.Delays[l]
		if lk := lot.Link(topo.LinkID(l)); lk.Rate != rate || lk.Delay != delay {
			t.Fatalf("lot link %d: %v/%v, scenario %v/%v", l, lk.Rate, lk.Delay, rate, delay)
		}
	}
	if len(lflows) != len(sc.Flows) {
		t.Fatalf("lot has %d flows, scenario %d", len(lflows), len(sc.Flows))
	}
	for i := range lflows {
		f := &lflows[i]
		if f.Src == f.Dst || lot.Nodes[f.Src].Kind != topo.Host || lot.Nodes[f.Dst].Kind != topo.Host {
			t.Fatalf("lot flow %d runs %d -> %d, want two distinct hosts", i, f.Src, f.Dst)
		}
		if err := lot.ValidateRoute(f.Src, f.Dst, f.Route); err != nil {
			t.Fatalf("lot flow %d: %v", i, err)
		}
		if !slices.Equal(f.Route, scenarioRoute(sc, i)) {
			t.Fatalf("lot flow %d route %v, scenario %v", i, f.Route, scenarioRoute(sc, i))
		}
		if int(f.ID) != i || f.Size != sc.in.Sizes[i] || f.Arrival != sc.in.Arrivals[i] {
			t.Fatalf("lot flow %d lost id/size/arrival", i)
		}
	}
}

func TestScenarioBgSegmentsCoverIntersection(t *testing.T) {
	ft, flows := smallWorkload(t, 1500, 5)
	d, err := Decompose(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range d.Paths {
		if len(d.Paths[i].Fg) > len(d.Paths[best].Fg) {
			best = i
		}
	}
	p := &d.Paths[best]
	sc, err := d.Scenario(p)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[topo.LinkID]int)
	for i, l := range p.Links {
		pos[l] = i
	}
	// Union of scenario bg spans per original flow == its path intersection.
	spanOf := make(map[workload.FlowID]map[int]bool)
	for i := range sc.Flows {
		m := &sc.Flows[i]
		if m.Fg {
			continue
		}
		if spanOf[m.Orig] == nil {
			spanOf[m.Orig] = make(map[int]bool)
		}
		for l := m.Join; l < m.Exit; l++ {
			if spanOf[m.Orig][l] {
				t.Fatalf("flow %d covers link %d twice", m.Orig, l)
			}
			spanOf[m.Orig][l] = true
		}
	}
	for _, id := range d.Background(p) {
		want := make(map[int]bool)
		for _, l := range flows[id].Route {
			if pi, ok := pos[l]; ok {
				want[pi] = true
			}
		}
		got := spanOf[id]
		if len(got) != len(want) {
			t.Fatalf("flow %d: scenario covers %d path links, original crosses %d",
				id, len(got), len(want))
		}
		for pi := range want {
			if !got[pi] {
				t.Fatalf("flow %d: path link %d not covered", id, pi)
			}
		}
	}
}

func TestScenarioRunsBothSimulators(t *testing.T) {
	ft, flows := smallWorkload(t, 800, 6)
	d, err := Decompose(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range d.Paths {
		if len(d.Paths[i].Fg) > len(d.Paths[best].Fg) {
			best = i
		}
	}
	sc, err := d.Scenario(&d.Paths[best])
	if err != nil {
		t.Fatal(err)
	}
	pk, err := sc.RunPacket(packetsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := sc.RunFlowSim()
	if err != nil {
		t.Fatal(err)
	}
	if len(pk.Slowdown) != sc.NumFg() || len(fs.Fg.Slowdown) != sc.NumFg() {
		t.Fatal("fg result size mismatch")
	}
	for i, s := range pk.Slowdown {
		if math.IsNaN(s) || s < 0.98 {
			t.Errorf("packet fg slowdown[%d] = %v", i, s)
		}
	}
	for i, s := range fs.Fg.Slowdown {
		if math.IsNaN(s) || s <= 0 {
			t.Errorf("flowsim fg slowdown[%d] = %v", i, s)
		}
	}
	if len(fs.BgSldn) != sc.Hops() {
		t.Fatalf("bg per-link slices: %d, want %d", len(fs.BgSldn), sc.Hops())
	}
	// fg IDs round-trip to original flows.
	for i, orig := range pk.Orig {
		if flows[orig].Size != pk.Sizes[i] {
			t.Fatal("fg orig mapping broken")
		}
	}

	// Results outlive the scenario: recycling it into other paths' scenarios
	// leaves them untouched, and rebuilding the path reproduces them.
	keep := cloneFlowSim(fs)
	sc.Release()
	for i := range d.Paths {
		other, err := d.Scenario(&d.Paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.RunFlowSim(); err != nil {
			t.Fatal(err)
		}
		other.Release()
	}
	if !sameFlowSim(fs, keep) {
		t.Fatal("flowSim result changed after its scenario was recycled")
	}
	again, err := d.Scenario(&d.Paths[best])
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	fs2, err := again.RunFlowSim()
	if err != nil {
		t.Fatal(err)
	}
	if !sameFlowSim(fs2, keep) {
		t.Fatal("rebuilt scenario's flowSim result differs")
	}
}

func cloneFlowSim(fs *FlowSimResult) *FlowSimResult {
	c := &FlowSimResult{Fg: &FgResult{
		Orig:     slices.Clone(fs.Fg.Orig),
		Sizes:    slices.Clone(fs.Fg.Sizes),
		Slowdown: slices.Clone(fs.Fg.Slowdown),
	}}
	for l := range fs.BgSldn {
		c.BgSizes = append(c.BgSizes, slices.Clone(fs.BgSizes[l]))
		c.BgSldn = append(c.BgSldn, slices.Clone(fs.BgSldn[l]))
	}
	return c
}

func sameFlowSim(a, b *FlowSimResult) bool {
	if !slices.Equal(a.Fg.Orig, b.Fg.Orig) || !slices.Equal(a.Fg.Sizes, b.Fg.Sizes) ||
		!slices.Equal(a.Fg.Slowdown, b.Fg.Slowdown) || len(a.BgSldn) != len(b.BgSldn) {
		return false
	}
	for l := range a.BgSldn {
		if !slices.Equal(a.BgSizes[l], b.BgSizes[l]) || !slices.Equal(a.BgSldn[l], b.BgSldn[l]) {
			return false
		}
	}
	return true
}

func TestDecomposeErrors(t *testing.T) {
	ft, _ := smallWorkload(t, 10, 7)
	if _, err := Decompose(ft.Topology, []workload.Flow{{ID: 42}}); err == nil {
		t.Error("out-of-range ID accepted")
	}
	if _, err := Decompose(ft.Topology, []workload.Flow{{ID: 0}}); err == nil {
		t.Error("routeless flow accepted")
	}
}

func TestFgWeights(t *testing.T) {
	ft, flows := smallWorkload(t, 500, 8)
	d, err := Decompose(ft.Topology, flows)
	if err != nil {
		t.Fatal(err)
	}
	w := d.FgWeights()
	var sum float64
	for _, v := range w {
		sum += v
	}
	if int(sum) != len(flows) {
		t.Errorf("weights sum to %v, want %d", sum, len(flows))
	}
}
