package treenet_test

import (
	"testing"

	"github.com/hfast-sim/hfast/internal/netsim"
	"github.com/hfast-sim/hfast/internal/treenet"
)

// TestHopsBetween pins the hop counts of point-to-point paths through the
// lowest common ancestor. The one LCA walk is netsim.TreeNet's route, so
// the hop count is the length of the routed path.
func TestHopsBetween(t *testing.T) {
	tn, err := netsim.NewTreeNet(13, treenet.DefaultParams()) // fanout 3: 0 is root; children 1,2,3; etc.
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
