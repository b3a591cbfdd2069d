package netsim

import (
	"testing"
	"testing/quick"

	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/treenet"
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
				t.Errorf("(%d,%d): hop %d (%s) is not a mesh link", src, dst, l, mn.Network().Link(l).Name)
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
		return ok && len(path) > 0 && len(path) <= 2*(tn.tree.Depth()+1) &&
			len(back) == len(path) && lat == float64(len(path))*treenet.HopLatency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
