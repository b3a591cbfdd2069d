package netsim

import (
	"testing"
	"testing/quick"

	"github.com/hfast-sim/hfast/internal/meshtorus"
)

// RouterFunc adapts a function returning whole paths to the Router
// interface, for the hand-built fabrics of the tests.
type RouterFunc func(src, dst int) ([]int, float64, bool)

// RouteAppend implements Router by appending f's path to buf.
func (f RouterFunc) RouteAppend(buf []int, src, dst int) ([]int, float64, bool) {
	path, lat, ok := f(src, dst)
	if !ok {
		return buf, lat, false
	}
	return append(buf, path...), lat, true
}

// TestRouterFuncAppendContract pins the half of the Router contract the
// engine relies on when one flow of a chunk is unroutable: the arena comes
// back at its original length, so the next flow's path starts where the
// missing one would have.
func TestRouterFuncAppendContract(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   RouterFunc
		want []int
		ok   bool
	}{
		{"miss", func(int, int) ([]int, float64, bool) { return nil, 0, false }, []int{7, 8}, false},
		{"miss with a path", func(int, int) ([]int, float64, bool) { return []int{3, 4}, 1, false }, []int{7, 8}, false},
		{"hit", func(int, int) ([]int, float64, bool) { return []int{3, 4}, 1, true }, []int{7, 8, 3, 4}, true},
		{"empty hit", func(int, int) ([]int, float64, bool) { return nil, 1, true }, []int{7, 8}, true},
	} {
		buf := make([]int, 2, 8)
		buf[0], buf[1] = 7, 8
		got, _, ok := c.fn.RouteAppend(buf, 0, 1)
		if ok != c.ok || len(got) != len(c.want) {
			t.Errorf("%s: got %v ok=%v, want %v ok=%v", c.name, got, ok, c.want, c.ok)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: got %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

// TestMeshNetRouteAppendAllocs gates the mesh walk at zero allocations:
// coordinates stay on the stack and the path lands in the caller's buffer.
func TestMeshNetRouteAppendAllocs(t *testing.T) {
	m, err := meshtorus.New([]int{8, 8, 8}, true)
	if err != nil {
		t.Fatal(err)
	}
	mn := NewMeshNet(m, DefaultLinkParams())
	buf := make([]int, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		buf, _, _ = mn.RouteAppend(buf[:0], 0, 511)
	}); n != 0 {
		t.Errorf("RouteAppend into a grown buffer made %v allocations, want 0", n)
	}
	if want := m.Distance(0, 511) + 2; len(buf) != want {
		t.Errorf("path has %d links, want %d", len(buf), want)
	}
}

// TestMeshNetRoutesPastStackDims routes on a 9-dimensional mesh, one past
// the walk's stack bound: the coordinates spill to the heap and the route
// stays the dimension-ordered one — injection, Distance mesh links,
// ejection.
func TestMeshNetRoutesPastStackDims(t *testing.T) {
	dims := []int{2, 2, 2, 2, 2, 2, 2, 2, 3}
	m, err := meshtorus.New(dims, true)
	if err != nil {
		t.Fatal(err)
	}
	mn := NewMeshNet(m, DefaultLinkParams())
	meshLinks := map[int]bool{}
	for i := 0; i < mn.Network().Links(); i++ {
		meshLinks[i] = true
	}
	for i := range mn.up {
		delete(meshLinks, mn.up[i])
		delete(meshLinks, mn.down[i])
	}
	for _, pair := range [][2]int{{0, m.Size() - 1}, {5, 700}, {767, 1}} {
		src, dst := pair[0], pair[1]
		path, _, ok := mn.RouteAppend(nil, src, dst)
		if !ok {
			t.Fatalf("(%d,%d) unroutable", src, dst)
		}
		if want := m.Distance(src, dst) + 2; len(path) != want {
			t.Fatalf("(%d,%d): %d links, want %d", src, dst, len(path), want)
		}
		if path[0] != mn.up[src] || path[len(path)-1] != mn.down[dst] {
			t.Errorf("(%d,%d) does not start at the injection and end at the ejection link", src, dst)
		}
		for _, l := range path[1 : len(path)-1] {
			if !meshLinks[l] {
				t.Errorf("(%d,%d): hop %d is not a mesh link", src, dst, l)
			}
		}
	}
}

// TestTreeNetRouteQuick bounds every tree route: distinct leaves route
// over at least one and at most 2·(depth+1) links, the same count both
// ways, at one hop latency per link; a node never routes to itself.
func TestTreeNetRouteQuick(t *testing.T) {
	const p = 200
	tn, err := NewTreeNet(p)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw)%p, int(bRaw)%p
		path, lat, ok := tn.RouteAppend(nil, a, b)
		if a == b {
			return !ok
		}
		back, _, _ := tn.RouteAppend(nil, b, a)
		return ok && len(path) > 0 && len(path) <= 2*(treeDepth(p)+1) &&
			len(back) == len(path) && lat == float64(len(path))*treeHopLatency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeNetUpLinkIsChildMinusOne pins the indexing that replaced the
// tree's link map: one link per child, each at the tree's bandwidth, and
// child c reaches its parent over link c−1 alone.
func TestTreeNetUpLinkIsChildMinusOne(t *testing.T) {
	const p = 40
	tn, err := NewTreeNet(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := tn.Network().Links(); n != p-1 {
		t.Fatalf("%d links, want %d", n, p-1)
	}
	for c := 1; c < p; c++ {
		if bw := tn.Network().links[c-1]; bw != treeLinkBandwidth {
			t.Errorf("link %d bandwidth %g, want %g", c-1, bw, treeLinkBandwidth)
		}
		parent := (c - 1) / treeFanout
		for _, pair := range [][2]int{{c, parent}, {parent, c}} {
			path, lat, ok := tn.RouteAppend(nil, pair[0], pair[1])
			if !ok || len(path) != 1 || path[0] != c-1 || lat != treeHopLatency {
				t.Errorf("(%d,%d): path %v latency %g ok=%v, want [%d] at %g",
					pair[0], pair[1], path, lat, ok, c-1, treeHopLatency)
			}
		}
	}
}

// treeDepth is the route-length oracle of the collective tree: the number
// of levels above the leaves, the smallest d with treeFanout^d ≥ p.
func treeDepth(p int) int {
	d, reach := 0, 1
	for reach < p {
		reach *= treeFanout
		d++
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := NewTreeNet(0); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 9: 2, 27: 3, 28: 4, 256: 6}
	for p, want := range cases {
		if got := treeDepth(p); got != want {
			t.Errorf("depth(%d) = %d, want %d", p, got, want)
		}
	}
}

// TestHopsBetween pins the hop counts of point-to-point paths through the
// lowest common ancestor: the hop count is the length of the routed path.
func TestHopsBetween(t *testing.T) {
	tn, err := NewTreeNet(13) // fanout 3: 0 is root; children 1,2,3; etc.
	if err != nil {
		t.Fatal(err)
	}
	hops := func(a, b int) int {
		path, _, ok := tn.RouteAppend(nil, a, b)
		if !ok {
			t.Fatalf("(%d,%d) unroutable", a, b)
		}
		return len(path)
	}
	if path, _, ok := tn.RouteAppend(nil, 5, 5); ok || len(path) != 0 {
		t.Errorf("self route ok=%v over %d hops", ok, len(path))
	}
	// 1 and its parent's other child 2: up to 0, down to 2 = 2 hops.
	if h := hops(1, 2); h != 2 {
		t.Errorf("sibling hops %d, want 2", h)
	}
	// 4 (child of 1) to 1: 1 hop.
	if h := hops(4, 1); h != 1 {
		t.Errorf("parent hops %d, want 1", h)
	}
	if hops(4, 12) != hops(12, 4) {
		t.Error("hops not symmetric")
	}
}
