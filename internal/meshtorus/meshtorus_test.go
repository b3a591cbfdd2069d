package meshtorus

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/hfast-sim/hfast/internal/topology"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, false); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := New([]int{4, 0}, false); err == nil {
		t.Error("zero dim accepted")
	}
	m, err := New([]int{4, 4, 4}, true)
	if err != nil || m.Size() != 64 {
		t.Fatalf("3D torus: %v size %d", err, m.Size())
	}
}

func TestNearCube(t *testing.T) {
	for _, tc := range []struct {
		p    int
		want []int
	}{
		{64, []int{4, 4, 4}},
		{256, []int{8, 8, 4}},
		{128, []int{8, 4, 4}},
		{8, []int{2, 2, 2}},
		{1, []int{1, 1, 1}},
		{2, []int{2, 1, 1}},
		{27, []int{3, 3, 3}},
		{30, []int{5, 3, 2}},
		{60, []int{5, 4, 3}},
		// Sizes whose most cubic grid a greedy cube-root search misses.
		{28, []int{7, 2, 2}},
		{108, []int{6, 6, 3}},
		{1, []int{1, 1}},
		{2, []int{2, 1}},
		{4, []int{2, 2}},
		{12, []int{4, 3}},
		{64, []int{8, 8}},
		{100, []int{10, 10}},
		{256, []int{16, 16}},
	} {
		if got := NearCube(tc.p, len(tc.want)); !slices.Equal(got, tc.want) {
			t.Errorf("NearCube(%d, %d) = %v, want %v", tc.p, len(tc.want), got, tc.want)
		}
	}
}

// TestNearCubeQuickProduct checks NearCube against a brute force over
// every descending factorization: its extents multiply to p, and no other
// factorization has a smaller spread, or the same spread and a smaller
// gap between the two largest extents.
func TestNearCubeQuickProduct(t *testing.T) {
	f := func(raw uint16) bool {
		p := int(raw)%2048 + 1
		for _, ndims := range []int{2, 3} {
			dims := NearCube(p, ndims)
			if len(dims) != ndims || !slices.IsSortedFunc(dims, func(a, b int) int { return b - a }) {
				t.Logf("NearCube(%d, %d) = %v is not descending", p, ndims, dims)
				return false
			}
			prod := 1
			for _, d := range dims {
				prod *= d
			}
			if prod != p {
				t.Logf("NearCube(%d, %d) = %v does not multiply to %d", p, ndims, dims, p)
				return false
			}
			spread, gap := dims[0]-dims[ndims-1], dims[0]-dims[1]
			for c := 1; c*c*c <= p; c++ {
				for b := c; b*b*c <= p; b++ {
					a := p / (b * c)
					if a*b*c != p || ndims == 2 && c != 1 {
						continue
					}
					other := []int{a, b, c}[:ndims]
					if s := other[0] - other[ndims-1]; s < spread || s == spread && a-b < gap {
						t.Logf("NearCube(%d, %d) = %v, but %v is more cubic", p, ndims, dims, other)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBaseline checks that the fixed fabric is the torus over NearCube's
// 3-D grid, so it has p nodes at every size, and that it refuses p < 1.
func TestBaseline(t *testing.T) {
	for _, p := range []int{1, 28, 64, 108, 1000} {
		m, err := Baseline(p)
		if err != nil {
			t.Fatalf("Baseline(%d): %v", p, err)
		}
		if !slices.Equal(m.Wrap, []bool{true, true, true}) || !slices.Equal(m.Dims, NearCube(p, 3)) || m.Size() != p {
			t.Errorf("Baseline(%d) = %v wrap=%v, want the torus %v", p, m.Dims, m.Wrap, NearCube(p, 3))
		}
	}
	if _, err := Baseline(0); err == nil {
		t.Error("Baseline(0) accepted")
	}
}

// offsetOracle is Offset by coordinates: split r into digits, move each
// by its delta, refuse an open edge, wrap a ring, and recombine.
func offsetOracle(m Mesh, r int, delta []int) int {
	c := make([]int, len(m.Dims))
	for i, d := range m.Dims {
		c[i] = r % d
		r /= d
	}
	out, stride := 0, 1
	for i, d := range m.Dims {
		x := c[i] + delta[i]
		if x < 0 || x >= d {
			if !m.Wrap[i] {
				return -1
			}
			x = ((x % d) + d) % d
		}
		out += x * stride
		stride *= d
	}
	return out
}

// gridShapes mix open and wrapped dimensions, extents 1 and 2 included:
// 3×4 open and 4×2 periodic in x only are the Cartesian grids of the MPI
// topology directive this type replaced.
var gridShapes = []Mesh{
	{Dims: []int{3, 4}, Wrap: []bool{false, false}},
	{Dims: []int{4, 2}, Wrap: []bool{true, false}},
	{Dims: []int{2, 4}, Wrap: []bool{true, true}},
	{Dims: []int{3, 4, 5}, Wrap: []bool{true, false, true}},
	{Dims: []int{2, 1, 3}, Wrap: []bool{true, true, false}},
	{Dims: []int{13, 1, 1}, Wrap: []bool{false, false, true}},
}

// TestOffsetMatchesCoordinates checks Offset against the coordinate
// oracle for every rank and every delta in {-2..2}ⁿ.
func TestOffsetMatchesCoordinates(t *testing.T) {
	for _, m := range gridShapes {
		delta := make([]int, len(m.Dims))
		var walk func(i int)
		walk = func(i int) {
			if i == len(delta) {
				for r := 0; r < m.Size(); r++ {
					if got, want := m.Offset(r, delta...), offsetOracle(m, r, delta); got != want {
						t.Errorf("%v wrap %v: Offset(%d, %v) = %d, want %d", m.Dims, m.Wrap, r, delta, got, want)
					}
				}
				return
			}
			for delta[i] = -2; delta[i] <= 2; delta[i]++ {
				walk(i + 1)
			}
		}
		walk(0)
	}
}

// TestNeighborsAreUnitOffsets: Neighbors is, per dimension, Offset -1
// then +1, without open edges, r itself, or a ring of two's repeat.
func TestNeighborsAreUnitOffsets(t *testing.T) {
	for _, m := range gridShapes {
		for r := 0; r < m.Size(); r++ {
			var want []int
			for i := range m.Dims {
				for _, dir := range []int{-1, 1} {
					delta := make([]int, len(m.Dims))
					delta[i] = dir
					if n := m.Offset(r, delta...); n >= 0 && n != r && !slices.Contains(want, n) {
						want = append(want, n)
					}
				}
			}
			if got := m.Neighbors(r); !slices.Equal(got, want) {
				t.Errorf("%v wrap %v: Neighbors(%d) = %v, want %v", m.Dims, m.Wrap, r, got, want)
			}
		}
	}
	// 4×2, periodic in x only: two neighbours along the ring, one across.
	for r := 0; r < 8; r++ {
		if n := len(gridShapes[1].Neighbors(r)); n != 3 {
			t.Errorf("4x2 periodic-x rank %d has %d neighbors, want 3", r, n)
		}
	}
}

// TestNeighborsOrder pins the order, which the halo flows of the netsim
// benchmark are generated in.
func TestNeighborsOrder(t *testing.T) {
	thin, _ := New([]int{2, 4}, true)
	square, _ := New([]int{4, 4}, true)
	for _, tc := range []struct {
		m    Mesh
		r    int
		want []int
	}{
		{thin, 0, []int{1, 6, 2}},
		{thin, 5, []int{4, 3, 7}},
		{square, 0, []int{3, 1, 12, 4}},
		{square, 5, []int{4, 6, 1, 9}},
		{square, 15, []int{14, 12, 11, 3}},
	} {
		if got := tc.m.Neighbors(tc.r); !slices.Equal(got, tc.want) {
			t.Errorf("%v torus: Neighbors(%d) = %v, want %v", tc.m.Dims, tc.r, got, tc.want)
		}
	}
}

// TestOffsetAllocatesNothing: lbmhd and amr ask for a partner per
// direction per step.
func TestOffsetAllocatesNothing(t *testing.T) {
	m := Mesh{Dims: []int{5, 5, 4}, Wrap: []bool{false, true, true}}
	var sum int
	if n := testing.AllocsPerRun(100, func() { sum += m.Offset(37, 1, -1, 2) }); n != 0 {
		t.Errorf("Offset allocates %.0f times per call, want 0", n)
	}
}

func TestNeighborsMeshVsTorus(t *testing.T) {
	mesh, _ := New([]int{4, 4}, false)
	corner := 0
	if n := len(mesh.Neighbors(corner)); n != 2 {
		t.Errorf("mesh corner has %d neighbors, want 2", n)
	}
	torus, _ := New([]int{4, 4}, true)
	if n := len(torus.Neighbors(corner)); n != 4 {
		t.Errorf("torus corner has %d neighbors, want 4", n)
	}
	// Dimension of extent 2 contributes one distinct neighbor even with
	// wraparound.
	thin, _ := New([]int{2, 4}, true)
	if n := len(thin.Neighbors(0)); n != 3 {
		t.Errorf("2x4 torus node has %d neighbors, want 3", n)
	}
}

func TestEdgesCount(t *testing.T) {
	mesh, _ := New([]int{4, 4}, false)
	// 2D mesh: 2*4*3 = 24 edges.
	if e := len(mesh.Edges()); e != 24 {
		t.Errorf("4x4 mesh has %d edges, want 24", e)
	}
	torus, _ := New([]int{4, 4}, true)
	// 2D torus: 2 per node = 32 edges.
	if e := len(torus.Edges()); e != 32 {
		t.Errorf("4x4 torus has %d edges, want 32", e)
	}
}

func TestDistance(t *testing.T) {
	torus, _ := New([]int{8, 8}, true)
	a, b := 0, 63 // (0, 0) and (7, 7)
	if d := torus.Distance(a, b); d != 2 {
		t.Errorf("torus wrap distance %d, want 2", d)
	}
	mesh, _ := New([]int{8, 8}, false)
	if d := mesh.Distance(a, b); d != 14 {
		t.Errorf("mesh distance %d, want 14", d)
	}
	if d := mesh.Distance(a, a); d != 0 {
		t.Errorf("self distance %d", d)
	}
}

// TestDistanceAllocatesNothing: pmemd asks for a distance per pair per
// step and OptimizePlacement per edge per move.
func TestDistanceAllocatesNothing(t *testing.T) {
	torus, err := Baseline(64)
	if err != nil {
		t.Fatal(err)
	}
	var sum int
	if n := testing.AllocsPerRun(100, func() { sum += torus.Distance(5, 58) }); n != 0 {
		t.Errorf("Distance allocates %.0f times per call, want 0", n)
	}
}

func TestAppendDORLengthMatchesDistance(t *testing.T) {
	f := func(sa, sb uint8, wrap bool) bool {
		m, _ := New([]int{4, 3, 2}, wrap)
		a := int(sa) % m.Size()
		b := int(sb) % m.Size()
		// The walk appends after whatever buf holds.
		nodes := m.AppendDOR([]int{-1}, a, b)
		if nodes[0] != -1 {
			return false
		}
		nodes = nodes[1:]
		if len(nodes) != m.Distance(a, b)+1 || nodes[0] != a || nodes[len(nodes)-1] != b {
			return false
		}
		// Every hop is a valid mesh edge.
		valid := map[[2]int]bool{}
		for _, e := range m.Edges() {
			valid[e] = true
		}
		for k := 1; k < len(nodes); k++ {
			if !valid[[2]int{min(nodes[k-1], nodes[k]), max(nodes[k-1], nodes[k])}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmbedIsomorphic(t *testing.T) {
	// A graph that IS the mesh embeds with dilation 1.
	m, _ := New([]int{4, 4}, false)
	g := topology.MustGraph(16)
	for _, e := range m.Edges() {
		g.AddTraffic(e[0], e[1], 1, 1<<20, 1<<20)
	}
	emb, err := Embed(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !emb.Isomorphic || emb.MaxDilation != 1 {
		t.Errorf("mesh-shaped graph did not embed isomorphically: %+v", emb)
	}
}

func TestEmbedNonIsomorphic(t *testing.T) {
	// A ring with a long chord cannot be dilation-1 on a 1D mesh.
	m, _ := New([]int{16}, false)
	g := topology.MustGraph(16)
	g.AddTraffic(0, 15, 1, 1<<20, 1<<20)
	emb, err := Embed(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Isomorphic || emb.MaxDilation != 15 {
		t.Errorf("chord embedding: %+v", emb)
	}
	if emb.MaxCongestion != 1<<20 {
		t.Errorf("congestion %d, want %d", emb.MaxCongestion, 1<<20)
	}
}

func TestEmbedSizeMismatch(t *testing.T) {
	m, _ := New([]int{4}, false)
	g := topology.MustGraph(8)
	if _, err := Embed(g, m, 0); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestDegreeAndCost(t *testing.T) {
	m, _ := New([]int{4, 4, 4}, true)
	if m.Degree() != 6 {
		t.Errorf("3D torus degree %d, want 6", m.Degree())
	}
	if c := m.Cost(1); c != float64(64*7) {
		t.Errorf("cost %g, want 448", c)
	}
}
