package hfast

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hfast-sim/hfast/internal/topology"
)

func TestBlocksForDegree(t *testing.T) {
	cases := []struct {
		deg, blockSize, want int
	}{
		{0, 16, 1},
		{1, 16, 1},
		{6, 16, 1},    // Cactus: one block per node
		{15, 16, 1},   // exactly fills the non-uplink ports
		{16, 16, 2},   // first overflow
		{29, 16, 2},   // 2·16 ports ≥ 1+2+29
		{30, 16, 3},   // SuperLU P=256 thresholded degree
		{55, 16, 4},   // PMEMD P=256 average
		{255, 16, 19}, // PARATEC P=256: ceil(254/14)
		{3, 4, 1},
		{4, 4, 2},
	}
	for _, c := range cases {
		if got := BlocksForDegree(c.deg, c.blockSize); got != c.want {
			t.Errorf("BlocksForDegree(%d,%d) = %d, want %d", c.deg, c.blockSize, got, c.want)
		}
	}
}

// TestBlockSize pins the one block-size rule: zero selects the default,
// sizes of 4 and up pass through, and anything else is refused.
func TestBlockSize(t *testing.T) {
	for _, tc := range []struct {
		requested, want int
		err             string
	}{
		{0, DefaultBlockSize, ""},
		{4, 4, ""},
		{32, 32, ""},
		{3, 0, "hfast: block size must be ≥ 4, got 3"},
		{-5, 0, "hfast: block size must be ≥ 4, got -5"},
	} {
		got, err := BlockSize(tc.requested)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("BlockSize(%d) error = %v, want %q", tc.requested, err, tc.err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("BlockSize(%d) = %d, %v, want %d", tc.requested, got, err, tc.want)
		}
	}
}

// TestAssignDegreesRefusesSmallBlocks: a degree model resolves its block
// size by the one rule too. A 2-port block nets no ports per extra block
// (BlocksForDegree divides by blockSize−2), and 3 or a negative size
// builds an assignment Validate refuses.
func TestAssignDegreesRefusesSmallBlocks(t *testing.T) {
	for _, bs := range []int{2, 3, -1} {
		a, err := AssignDegrees([]int{6, 6}, bs)
		if err == nil || !strings.Contains(err.Error(), "hfast: block size must be ≥ 4") {
			t.Errorf("AssignDegrees at block size %d = %+v, %v, want the block-size error", bs, a, err)
		}
	}
}

// TestBlocksForDegreePortAccounting property-checks that the assigned
// blocks always expose enough partner ports: n·B ≥ 1 + 2(n−1) + deg.
func TestBlocksForDegreePortAccounting(t *testing.T) {
	f := func(degRaw uint16, bsRaw uint8) bool {
		deg := int(degRaw) % 1024
		bs := 4 + int(bsRaw)%29
		n := BlocksForDegree(deg, bs)
		if n < 1 {
			return false
		}
		if n*bs < 1+2*(n-1)+deg {
			return false
		}
		// Minimality: one fewer block must not suffice (except the idle
		// single-block floor).
		if n > 1 && (n-1)*bs >= 1+2*(n-2)+deg {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPartnerDepth(t *testing.T) {
	// With 16-port blocks a 15-partner node keeps all partners at depth 1.
	for k := 0; k < 15; k++ {
		if d := PartnerDepth(k, 15, 16); d != 1 {
			t.Errorf("PartnerDepth(%d,15) = %d, want 1", k, d)
		}
	}
	// A 16-partner node has 2 blocks: the root keeps 14 partner slots and
	// the rest spill to depth 2.
	if d := PartnerDepth(13, 16, 16); d != 1 {
		t.Errorf("PartnerDepth(13,16) = %d, want 1", d)
	}
	if d := PartnerDepth(15, 16, 16); d != 2 {
		t.Errorf("PartnerDepth(15,16) = %d, want 2", d)
	}
	// Depths are non-decreasing in the partner index for a fixed degree.
	prev := 0
	for k := 0; k < 400; k++ {
		d := PartnerDepth(k, 400, 16)
		if d < prev {
			t.Fatalf("PartnerDepth not monotone at %d: %d < %d", k, d, prev)
		}
		prev = d
	}
	if prev < 3 {
		t.Errorf("expected depth >= 3 for 400 partners, got %d", prev)
	}
}

// starGraph builds a star with hub degree n-1 and big messages.
func starGraph(n int) *topology.Graph {
	g := topology.MustGraph(n)
	for j := 1; j < n; j++ {
		g.AddTraffic(0, j, 1, 1<<20, 1<<20)
	}
	return g
}

// ringGraph builds a ring with big messages.
func ringGraph(n int) *topology.Graph {
	g := topology.MustGraph(n)
	for i := 0; i < n; i++ {
		g.AddTraffic(i, (i+1)%n, 1, 1<<20, 1<<20)
	}
	return g
}

func TestAssignRing(t *testing.T) {
	g := ringGraph(32)
	a, err := Assign(g, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBlocks != 32 {
		t.Errorf("ring of 32: %d blocks, want 32 (one per node)", a.TotalBlocks)
	}
	r, ok := a.Route(0, 1)
	if !ok || r.SBHops != 2 || r.Crossings != 3 {
		t.Errorf("ring route: %+v ok=%v, want 2 hops / 3 crossings", r, ok)
	}
	if _, ok := a.Route(0, 5); ok {
		t.Error("non-partner pair should have no provisioned route")
	}
	if _, ok := a.Route(3, 3); ok {
		t.Error("self route should not exist")
	}
}

func TestAssignStarHighDegree(t *testing.T) {
	g := starGraph(64)
	a, err := Assign(g, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantHub := BlocksForDegree(63, 16)
	if a.Blocks[0] != wantHub {
		t.Errorf("hub blocks = %d, want %d", a.Blocks[0], wantHub)
	}
	if a.Blocks[1] != 1 {
		t.Errorf("leaf blocks = %d, want 1", a.Blocks[1])
	}
	// Leaves reach the hub through the hub's tree: route exists both ways
	// and is symmetric.
	r1, ok1 := a.Route(0, 63)
	r2, ok2 := a.Route(63, 0)
	if !ok1 || !ok2 || r1 != r2 {
		t.Errorf("asymmetric routes %+v vs %+v", r1, r2)
	}
	if r1.SBHops < 2 || r1.Crossings != r1.SBHops+1 {
		t.Errorf("bad star route %+v", r1)
	}
}

func TestAssignRespectsCutoff(t *testing.T) {
	g := topology.MustGraph(4)
	g.AddTraffic(0, 1, 10, 10<<10, 8<<10) // above 2 KB
	g.AddTraffic(0, 2, 10, 1000, 100)     // below
	a, err := Assign(g, 0, 16)            // cutoff 0 → DefaultCutoff
	if err != nil {
		t.Fatal(err)
	}
	if a.Cutoff != topology.DefaultCutoff {
		t.Errorf("default cutoff not applied: %d", a.Cutoff)
	}
	if len(a.Partners[0]) != 1 || a.Partners[0][0] != 1 {
		t.Errorf("thresholding failed: partners %v", a.Partners[0])
	}
}

func TestPortsAccounting(t *testing.T) {
	g := ringGraph(8)
	a, err := Assign(g, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	u := a.Ports()
	if u.ActivePorts != 8*16 {
		t.Errorf("active ports %d", u.ActivePorts)
	}
	// Per node: 1 uplink + 2 partners = 3 used ports.
	if u.UsedActivePorts != 8*3 {
		t.Errorf("used ports %d, want 24", u.UsedActivePorts)
	}
	if u.PassivePorts != 8+8*16 {
		t.Errorf("passive ports %d", u.PassivePorts)
	}
	if u.Utilization() <= 0 || u.Utilization() > 1 {
		t.Errorf("utilization %g out of range", u.Utilization())
	}
}

func TestCostLinearityInP(t *testing.T) {
	// For a bounded-degree workload, HFAST active cost grows linearly
	// with P while the fat-tree's ports/proc grows: the ratio must fall.
	params := DefaultParams()
	var prevRatio float64
	for i, p := range []int{64, 512, 4096} {
		a, err := Assign(ringGraph(p), 0, params.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := Compare(a, params)
		if err != nil {
			t.Fatal(err)
		}
		perNode := cmp.HFAST.Active / float64(p)
		if perNode != float64(params.BlockSize)*params.ActivePortCost {
			t.Errorf("P=%d: active cost per node %.1f not constant", p, perNode)
		}
		if i > 0 && cmp.Ratio() >= prevRatio {
			t.Errorf("P=%d: HFAST/fat-tree ratio %.3f did not fall (prev %.3f)", p, cmp.Ratio(), prevRatio)
		}
		prevRatio = cmp.Ratio()
	}
}

func TestCompareFullGraphFavorsFatTree(t *testing.T) {
	// A complete graph at P=256 forces ~19 blocks per node: HFAST should
	// cost more than the fat-tree (the paper's case-iv conclusion).
	n := 256
	g := topology.MustGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddTraffic(i, j, 1, 64<<10, 64<<10)
		}
	}
	a, err := Assign(g, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(a, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Ratio() <= 1 {
		t.Errorf("complete graph: HFAST/fat-tree ratio %.2f, want > 1", cmp.Ratio())
	}
}

func TestWireMatchesAssignment(t *testing.T) {
	for _, build := range []func() *topology.Graph{
		func() *topology.Graph { return ringGraph(16) },
		func() *topology.Graph { return starGraph(40) },
	} {
		g := build()
		a, err := Assign(g, 0, 16)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Wire(a)
		if err != nil {
			t.Fatal(err)
		}
		// Every provisioned pair routes identically through the physical
		// wiring and the analytic model.
		for i := 0; i < a.P; i++ {
			for _, j := range a.Partners[i] {
				rw, okw := w.Route(i, j)
				ra, oka := a.Route(i, j)
				if !okw || !oka || rw != ra {
					t.Fatalf("route mismatch (%d,%d): wire %+v/%v assign %+v/%v", i, j, rw, okw, ra, oka)
				}
			}
		}
		// Lit ports = 2×(uplinks + internal links + edges).
		edges := len(g.Edges(a.Cutoff))
		internal := a.TotalBlocks - a.P
		wantLit := 2 * (a.P + internal + edges)
		if w.Switch.LitPorts() != wantLit {
			t.Errorf("lit ports %d, want %d", w.Switch.LitPorts(), wantLit)
		}
	}
}

func TestCircuitSwitchInvariants(t *testing.T) {
	cs := NewCircuitSwitch(4)
	if err := cs.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := cs.Connect(0, 2); err == nil {
		t.Error("double-lighting a port must fail")
	}
	if err := cs.Connect(3, 3); err == nil {
		t.Error("self-loop must fail")
	}
	if cs.Peer(0) != 1 || cs.Peer(1) != 0 {
		t.Error("peer bookkeeping broken")
	}
	if cs.LitPorts() != 2 {
		t.Errorf("lit = %d, want 2 (failed connects light nothing)", cs.LitPorts())
	}
}

// TestRouteSymmetryQuick property-checks route symmetry on random graphs.
func TestRouteSymmetryQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := topology.MustGraph(24)
		s := uint64(seed)
		next := func() uint64 { s = s*6364136223846793005 + 1442695040888963407; return s >> 33 }
		for e := 0; e < 60; e++ {
			i := int(next()) % 24
			j := int(next()) % 24
			if i == j {
				continue
			}
			size := 1 << (next() % 21)
			g.AddTraffic(i, j, 1, int64(size), size)
		}
		a, err := Assign(g, 0, 16)
		if err != nil {
			return false
		}
		for i := 0; i < 24; i++ {
			for j := 0; j < 24; j++ {
				r1, ok1 := a.Route(i, j)
				r2, ok2 := a.Route(j, i)
				if ok1 != ok2 || r1 != r2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignFromHintsMatchesMeasured(t *testing.T) {
	// A ring declared as topology hints provisions the same fabric as a
	// ring measured from traffic.
	const n = 24
	hints := make([][]int, n)
	for i := range hints {
		hints[i] = []int{(i + 1) % n} // one-sided; symmetrization fills the rest
	}
	fromHints, err := AssignFromHints(hints, 16)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := Assign(ringGraph(n), 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if fromHints.TotalBlocks != measured.TotalBlocks {
		t.Errorf("blocks: hints %d vs measured %d", fromHints.TotalBlocks, measured.TotalBlocks)
	}
	for i := 0; i < n; i++ {
		hp, mp := fromHints.Partners[i], measured.Partners[i]
		if len(hp) != len(mp) {
			t.Fatalf("node %d partner count differs: %v vs %v", i, hp, mp)
		}
		for k := range hp {
			if hp[k] != mp[k] {
				t.Fatalf("node %d partners differ: %v vs %v", i, hp, mp)
			}
		}
	}
}

func TestAssignFromHintsValidation(t *testing.T) {
	if _, err := AssignFromHints(nil, 16); err == nil {
		t.Error("empty hints accepted")
	}
	if _, err := AssignFromHints([][]int{{5}}, 16); err == nil {
		t.Error("out-of-range hint accepted")
	}
	if _, err := AssignFromHints([][]int{{0}}, 2); err == nil {
		t.Error("tiny block size accepted")
	}
	// Self-hints are ignored.
	a, err := AssignFromHints([][]int{{0}, {0}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Partners[0]) != 1 || a.Partners[0][0] != 1 {
		t.Errorf("self-hint handling: %v", a.Partners[0])
	}
}

// stencilGraph is a ring over n ranks with partners at the given strides,
// every edge above the default cutoff.
func stencilGraph(n int, strides ...int) *topology.Graph {
	g := topology.MustGraph(n)
	for i := 0; i < n; i++ {
		for _, s := range strides {
			g.AddTraffic(i, (i+s)%n, 1, 1<<20, 1<<20)
		}
	}
	return g
}

// TestAssignersShareOneRule: measured traffic, the same partners declared
// as hints and a budget that admits every edge provision one fabric, each
// a valid assignment, because all three size blocks from the partner
// lists by one rule.
func TestAssignersShareOneRule(t *testing.T) {
	g := stencilGraph(64, 1, 8, 9, 27)
	measured, err := Assign(g, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := AssignFromHints(measured.Partners, 8)
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := AssignWithBudget(g, 0, 8, measured.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Assignment{"measured": measured, "hinted": hinted, "budgeted": budgeted} {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.TotalBlocks != measured.TotalBlocks || !slices.Equal(a.Blocks, measured.Blocks) {
			t.Errorf("%s: %d blocks %v, measured %d %v", name, a.TotalBlocks, a.Blocks, measured.TotalBlocks, measured.Blocks)
		}
		for i := range a.Partners {
			if !slices.Equal(a.Partners[i], measured.Partners[i]) {
				t.Fatalf("%s: node %d partners %v, measured %v", name, i, a.Partners[i], measured.Partners[i])
			}
		}
	}
	if measured.TotalBlocks <= g.P {
		t.Fatal("the test needs nodes of more than one block")
	}
}

// TestAssignAllocs: beyond the partner lists Graph.Partners builds,
// Assign allocates the list of them, the assignment and its block counts.
func TestAssignAllocs(t *testing.T) {
	g := stencilGraph(256, 1, 2, 16, 17, 64)
	lists := testing.AllocsPerRun(20, func() {
		for i := 0; i < g.P; i++ {
			_ = g.Partners(i, topology.DefaultCutoff)
		}
	})
	assign := testing.AllocsPerRun(20, func() {
		if _, err := Assign(g, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if assign != lists+3 {
		t.Fatalf("Assign allocates %v objects; its partner lists take %v, want them plus 3", assign, lists)
	}
}
