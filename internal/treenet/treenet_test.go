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

func TestLatencies(t *testing.T) {
	tr := mustTree(t, 27)
	p := tr.Params
	want := 3*p.HopLatency + 1024/p.LinkBandwidth
	if got := tr.BroadcastLatency(1024); math.Abs(got-want) > 1e-15 {
		t.Errorf("broadcast latency %g, want %g", got, want)
	}
	if tr.AllreduceLatency(8) != tr.ReduceLatency(8)+tr.BroadcastLatency(8) {
		t.Error("allreduce != reduce + broadcast")
	}
}

func TestCostLinear(t *testing.T) {
	small := mustTree(t, 64)
	big := mustTree(t, 4096)
	if math.Abs(small.CostPerNode()-big.CostPerNode()) > small.CostPerNode()*0.05 {
		t.Errorf("tree cost not linear: %.2f vs %.2f per node",
			small.CostPerNode(), big.CostPerNode())
	}
	if small.Links() != 63 {
		t.Errorf("links %d, want 63", small.Links())
	}
}

func TestCollectiveFasterThanDataFabricForSmall(t *testing.T) {
	// The design point: an 8-byte allreduce on the tree must beat P−1
	// point-to-point latencies on a multi-layer packet fabric. Sanity:
	// allreduce of 8 bytes at P=256 stays in the microsecond range.
	tr := mustTree(t, 256)
	if l := tr.AllreduceLatency(8); l > 5e-6 {
		t.Errorf("8B allreduce takes %g s; tree model broken", l)
	}
}
