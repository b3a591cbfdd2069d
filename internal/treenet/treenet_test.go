package treenet

import (
	"math"
	"testing"
)

func mustTree(t *testing.T, p int) *Tree {
	t.Helper()
	tr, err := New(p, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, DefaultParams()); err == nil {
		t.Error("zero nodes accepted")
	}
	bad := DefaultParams()
	bad.Fanout = 1
	if _, err := New(8, bad); err == nil {
		t.Error("fanout 1 accepted")
	}
	bad = DefaultParams()
	bad.LinkBandwidth = 0
	if _, err := New(8, bad); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 9: 2, 27: 3, 28: 4, 256: 6}
	for p, want := range cases {
		if got := mustTree(t, p).Depth(); got != want {
			t.Errorf("depth(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestCostLinear(t *testing.T) {
	small := mustTree(t, 64)
	big := mustTree(t, 4096)
	perNode := func(tr *Tree) float64 { return tr.Cost() / float64(tr.P) }
	if math.Abs(perNode(small)-perNode(big)) > perNode(small)*0.05 {
		t.Errorf("tree cost not linear: %.2f vs %.2f per node", perNode(small), perNode(big))
	}
	if small.Links() != 63 {
		t.Errorf("links %d, want 63", small.Links())
	}
}
