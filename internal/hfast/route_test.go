package hfast

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/hfast-sim/hfast/internal/topology"
)

// checkRoutes holds MaxRoute to two independent readings of the same
// fabric: the maximum over all pairs of Assignment.Route (the analytic
// model, one PartnerDepth per endpoint) and of Wiring.Route (the depths of
// the slots Wire physically chose). It also holds PartnerDepth to the
// wiring slot by slot.
func checkRoutes(t *testing.T, name string, a *Assignment) {
	t.Helper()
	w, err := Wire(a)
	if err != nil {
		t.Fatalf("%s: wire: %v", name, err)
	}
	for i, ps := range a.Partners {
		for k := range ps {
			if got, want := PartnerDepth(k, len(ps), a.BlockSize), w.PartnerDepthOf[i][k]; got != want {
				t.Fatalf("%s: PartnerDepth(%d,%d,%d) = %d, node %d is wired at depth %d",
					name, k, len(ps), a.BlockSize, got, i, want)
			}
		}
	}
	var analytic, physical Route
	for i := 0; i < a.P; i++ {
		for j := 0; j < a.P; j++ {
			ra, oka := a.Route(i, j)
			rw, okw := w.Route(i, j)
			if oka != okw || ra != rw {
				t.Fatalf("%s: route (%d,%d): assignment %+v/%v, wiring %+v/%v", name, i, j, ra, oka, rw, okw)
			}
			if ra.SBHops > analytic.SBHops {
				analytic = ra
			}
			if rw.SBHops > physical.SBHops {
				physical = rw
			}
		}
	}
	if got := a.MaxRoute(); got != analytic || got != physical {
		t.Errorf("%s: MaxRoute() = %+v, max over Assignment.Route %+v, over Wiring.Route %+v", name, got, analytic, physical)
	}
}

// randomGraph draws a symmetric graph in which each pair is an edge with
// probability density, all above the default cutoff.
func randomGraph(rng *rand.Rand, p int, density float64) *topology.Graph {
	g := topology.MustGraph(p)
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if rng.Float64() < density {
				g.AddTraffic(i, j, 1, 1<<20, 1<<20)
			}
		}
	}
	return g
}

// TestMaxRouteMatchesRoutes is the oracle for the linear-time MaxRoute,
// which bench's own oracle cannot be (it calls MaxRoute on both sides).
func TestMaxRouteMatchesRoutes(t *testing.T) {
	// A hub of every interesting degree: empty, one block exactly full and
	// one over, two levels exactly full and one over, three levels.
	for _, bs := range []int{4, 8, 16} {
		for _, deg := range []int{0, 1, bs - 1, bs, maxTwoLevel(bs), maxTwoLevel(bs) + 1, 400} {
			a, err := Assign(starGraph(deg+1), 0, bs)
			if err != nil {
				t.Fatal(err)
			}
			checkRoutes(t, fmt.Sprintf("star deg=%d bs=%d", deg, bs), a)
		}
	}
	// Every small tree shape, on one endpoint (a star) and on both (a
	// complete graph). In these the deepest level always holds two partners
	// or more, so a depth cursor off by one at a level's first slot still
	// gets the maximum right; the hand-built case below is the one that
	// catches it.
	for n := 2; n <= 60; n++ {
		a, err := Assign(starGraph(n), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkRoutes(t, fmt.Sprintf("star of %d bs=4", n), a)
		checkRoutes(t, fmt.Sprintf("complete graph of %d bs=4", n), allToAll(t, n, 4))
	}
	// The worst route alone on one edge, (20,21), which MaxRoute walks from
	// node 20, where 21 sits in the first slot of the second level (index 2
	// of a shape [2 5]), to node 21, which holds 20 on its third.
	g := topology.MustGraph(23)
	for _, e := range [][2]int{{20, 0}, {20, 1}, {20, 21}, {20, 22}} {
		g.AddTraffic(e[0], e[1], 1, 1<<20, 1<<20)
	}
	for leaf := 0; leaf < 20; leaf++ {
		g.AddTraffic(21, leaf, 1, 1<<20, 1<<20)
	}
	lone, err := Assign(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := lone.Route(20, 21); r.SBHops != 5 {
		t.Fatalf("route (20,21) has %d hops, the case wants 2+3", r.SBHops)
	}
	checkRoutes(t, "lone worst edge", lone)
	// Random graphs, both endpoints of an edge deep in their trees.
	rng := rand.New(rand.NewSource(18))
	for _, c := range []struct {
		p, bs   int
		density float64
	}{
		{24, 16, 0.2}, {48, 4, 0.5}, {48, 8, 0.9}, {97, 4, 0.3}, {600, 4, 0.04},
	} {
		a, err := Assign(randomGraph(rng, c.p, c.density), 0, c.bs)
		if err != nil {
			t.Fatal(err)
		}
		checkRoutes(t, fmt.Sprintf("random P=%d bs=%d density=%g", c.p, c.bs, c.density), a)
	}
	// Declared topologies: an all-to-all (the paper's case iv) from
	// one-sided hints.
	hints := make([][]int, 40)
	for i := range hints {
		for j := i + 1; j < len(hints); j++ {
			hints[i] = append(hints[i], j)
		}
	}
	a, err := AssignFromHints(hints, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkRoutes(t, "hinted all-to-all", a)
	// A degree model has block counts but no partner lists: nothing is
	// routed, whatever the degrees.
	a = AssignDegrees([]int{0, 3, 40, 400}, 16)
	for i := 0; i < a.P; i++ {
		for j := 0; j < a.P; j++ {
			if r, ok := a.Route(i, j); ok || r != (Route{}) {
				t.Fatalf("degree model routes (%d,%d): %+v", i, j, r)
			}
		}
	}
	if got := a.MaxRoute(); got != (Route{}) {
		t.Errorf("degree model MaxRoute() = %+v, want zero", got)
	}
}

// TestMaxRoutePanicsLikePartnerDepth: an edge only one endpoint lists is a
// bug in whoever built the assignment, and MaxRoute reports it with the
// panic PartnerDepth documents.
func TestMaxRoutePanicsLikePartnerDepth(t *testing.T) {
	a := &Assignment{P: 2, BlockSize: 16, Partners: [][]int{{1}, nil}, Blocks: []int{1, 1}, TotalBlocks: 2}
	defer func() {
		want := "hfast: partner index -1 out of range [0,0)"
		if got := recover(); got != want {
			t.Errorf("recovered %v, want %q", got, want)
		}
	}()
	a.MaxRoute()
}

func TestValidate(t *testing.T) {
	budget := make([]int, 40)
	capped, err := AssignWithBudget(starGraph(40), 0, 16, budget)
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := AssignFromHints([][]int{{1, 2}, {2}, nil}, 4)
	if err != nil {
		t.Fatal(err)
	}
	star := func() *Assignment {
		a, err := Assign(starGraph(40), 0, 16)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for name, a := range map[string]*Assignment{"star": star(), "budget": capped, "hints": hinted} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: a planner's own output refused: %v", name, err)
		}
	}
	for name, corrupt := range map[string]func(a *Assignment){
		"no nodes":            func(a *Assignment) { *a = Assignment{BlockSize: 16} },
		"negative P":          func(a *Assignment) { a.P = -1 },
		"short partner table": func(a *Assignment) { a.Partners = a.Partners[:39] },
		"short block table":   func(a *Assignment) { a.Blocks = a.Blocks[:1] },
		"block size":          func(a *Assignment) { a.BlockSize = 3 },
		"partner past P":      func(a *Assignment) { a.Partners[3] = []int{40} },
		"negative partner":    func(a *Assignment) { a.Partners[3] = []int{-1} },
		"self edge":           func(a *Assignment) { a.Partners[3] = []int{3} },
		"unsorted":            func(a *Assignment) { a.Partners[0][0], a.Partners[0][1] = a.Partners[0][1], a.Partners[0][0] },
		"duplicate":           func(a *Assignment) { a.Partners[0][1] = a.Partners[0][0] },
		"one-sided edge":      func(a *Assignment) { a.Partners[3] = nil },
		"too few blocks":      func(a *Assignment) { a.Blocks[0], a.TotalBlocks = a.Blocks[0]-1, a.TotalBlocks-1 },
		"too many blocks":     func(a *Assignment) { a.Blocks[5], a.TotalBlocks = 2, a.TotalBlocks+1 },
		"total":               func(a *Assignment) { a.TotalBlocks = 0 },
	} {
		a := star()
		corrupt(a)
		if err := a.Validate(); !errors.Is(err, ErrInvalidAssignment) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidAssignment", name, err)
		}
	}
}

// TestWireRefusesAbsurdCrossbar: the block size is a request parameter, so
// a crossbar no machine could hold — or one whose port count overflows —
// is an error from Wire, not a panic from the allocator or the switch.
func TestWireRefusesAbsurdCrossbar(t *testing.T) {
	for _, bs := range []int{1 << 22, 1 << 40, 1 << 62} {
		a, err := Assign(ringGraph(8), 0, bs)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("block size %d: %v", bs, err)
		}
		if _, err := Wire(a); err == nil {
			t.Errorf("block size %d: crossbar of 8×%d ports wired", bs, bs)
		}
	}
	if _, err := Wire(&Assignment{}); err == nil {
		t.Error("empty assignment wired")
	}
}

// allToAll and halo3D are the two ends of the paper's range: TDC = P−1
// (PMEMD, PARATEC) and a bounded-degree stencil (Cactus, LBMHD).
func allToAll(tb testing.TB, p, blockSize int) *Assignment {
	partners := make([][]int, p)
	blocks := make([]int, p)
	for i := range partners {
		for j := 0; j < p; j++ {
			if j != i {
				partners[i] = append(partners[i], j)
			}
		}
		blocks[i] = BlocksForDegree(p-1, blockSize)
	}
	a := &Assignment{P: p, BlockSize: blockSize, Partners: partners, Blocks: blocks, TotalBlocks: p * blocks[0]}
	if err := a.Validate(); err != nil {
		tb.Fatal(err)
	}
	return a
}

func halo3D(tb testing.TB, nx, ny, nz int) *Assignment {
	hints := make([][]int, nx*ny*nz)
	at := func(x, y, z int) int { return ((x+nx)%nx*ny+(y+ny)%ny)*nz + (z+nz)%nz }
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				hints[at(x, y, z)] = []int{at(x+1, y, z), at(x, y+1, z), at(x, y, z+1)}
			}
		}
	}
	a, err := AssignFromHints(hints, DefaultBlockSize)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

var routeSink Route

func BenchmarkMaxRoute(b *testing.B) {
	for _, c := range []struct {
		name string
		a    *Assignment
	}{
		{"alltoall/P=64", allToAll(b, 64, DefaultBlockSize)},
		{"alltoall/P=256", allToAll(b, 256, DefaultBlockSize)},
		{"alltoall/P=1024", allToAll(b, 1024, DefaultBlockSize)},
		{"halo3d/P=16384", halo3D(b, 32, 32, 16)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				routeSink = c.a.MaxRoute()
			}
		})
	}
}
