package meshtorus

import (
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
	cases := map[int][]int{
		64:  {4, 4, 4},
		256: {8, 8, 4},
		128: {8, 4, 4},
		8:   {2, 2, 2},
		1:   {1, 1, 1},
		30:  {5, 3, 2},
	}
	for p, want := range cases {
		got := NearCube(p, 3)
		if len(got) != 3 || got[0]*got[1]*got[2] != p {
			t.Errorf("NearCube(%d) = %v does not multiply to %d", p, got, p)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("NearCube(%d) = %v, want %v", p, got, want)
				break
			}
		}
	}
}

func TestNearCubeQuickProduct(t *testing.T) {
	f := func(raw uint16) bool {
		p := int(raw)%2048 + 1
		dims := NearCube(p, 3)
		prod := 1
		for _, d := range dims {
			prod *= d
		}
		return prod == p && len(dims) == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordsRankRoundTrip(t *testing.T) {
	m, _ := New([]int{3, 4, 5}, false)
	for r := 0; r < m.Size(); r++ {
		if got := m.Rank(m.Coords(r)); got != r {
			t.Fatalf("round trip broke at %d: got %d", r, got)
		}
	}
}

func TestNeighborsMeshVsTorus(t *testing.T) {
	mesh, _ := New([]int{4, 4}, false)
	corner := mesh.Rank([]int{0, 0})
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
	a := torus.Rank([]int{0, 0})
	b := torus.Rank([]int{7, 7})
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
