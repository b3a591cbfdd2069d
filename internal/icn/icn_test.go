package icn

import (
	"testing"

	"github.com/hfast-sim/hfast/internal/topology"
)

func meshGraph(nx, ny int) *topology.Graph {
	g := topology.MustGraph(nx * ny)
	rank := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				g.AddTraffic(rank(x, y), rank(x+1, y), 1, 1<<20, 1<<20)
			}
			if y+1 < ny {
				g.AddTraffic(rank(x, y), rank(x, y+1), 1, 1<<20, 1<<20)
			}
		}
	}
	return g
}

func TestPartitionCoversAllNodes(t *testing.T) {
	g := meshGraph(4, 4)
	n, err := Partition(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for b, blk := range n.Blocks {
		if len(blk) > 4 {
			t.Errorf("block %d oversize: %v", b, blk)
		}
		for _, v := range blk {
			if seen[v] {
				t.Errorf("node %d in two blocks", v)
			}
			seen[v] = true
			if n.BlockOf[v] != b {
				t.Errorf("BlockOf[%d] = %d, want %d", v, n.BlockOf[v], b)
			}
		}
	}
	if len(seen) != 16 {
		t.Errorf("covered %d nodes, want 16", len(seen))
	}
}

func TestPartitionValidation(t *testing.T) {
	if _, err := Partition(meshGraph(2, 2), 0, 1); err == nil {
		t.Error("block size 1 accepted")
	}
}

func TestMeshContractsIntoICN(t *testing.T) {
	// A 2D mesh has bounded contraction: with affinity grouping into 2x2
	// tiles... the greedy heuristic should find a partition whose
	// contracted degree fits k=8 comfortably.
	g := meshGraph(4, 4)
	n, err := Partition(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := n.Contract(g, 0)
	if c.Max > 8 {
		t.Errorf("mesh contraction max %d unreasonably high", c.Max)
	}
	if c.Avg <= 0 {
		t.Errorf("avg contraction %g", c.Avg)
	}
}

func TestHighDegreeHubBreaksICN(t *testing.T) {
	// A star of degree 63 cannot fit an ICN with k=4: the hub's block
	// must reach ~60 external blocks over 4 ports.
	g := topology.MustGraph(64)
	for j := 1; j < 64; j++ {
		g.AddTraffic(0, j, 1, 1<<20, 1<<20)
	}
	n, err := Partition(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := n.Contract(g, 0)
	if c.Fits {
		t.Errorf("contraction max %d reported fitting k=4", c.Max)
	}
	if c.OversubscribedEdges == 0 {
		t.Error("expected oversubscribed edges on the hub block")
	}
	if c.WorstShare >= 1 {
		t.Errorf("worst share %.2f should reflect contention", c.WorstShare)
	}
}

func TestIntraBlockTrafficFree(t *testing.T) {
	// Two disjoint cliques of size 4 with k=4: all edges internal.
	g := topology.MustGraph(8)
	for base := 0; base < 8; base += 4 {
		for i := base; i < base+4; i++ {
			for j := i + 1; j < base+4; j++ {
				g.AddTraffic(i, j, 1, 1<<20, 1<<20)
			}
		}
	}
	n, err := Partition(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := n.Contract(g, 0)
	if c.Max != 0 || c.OversubscribedEdges != 0 || !c.Fits {
		t.Errorf("disjoint cliques should contract to isolated blocks: %+v", c)
	}
}

func TestContractionThresholding(t *testing.T) {
	g := topology.MustGraph(8)
	g.AddTraffic(0, 4, 1, 10<<10, 10<<10) // big: crosses blocks
	g.AddTraffic(1, 5, 1, 100, 100)       // small: ignored at 2 KB
	n, err := Partition(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	c0 := n.Contract(g, 1)
	c2k := n.Contract(g, 0) // 0 → default 2 KB
	sum0, sum2k := 0, 0
	for i := range c0.PerBlock {
		sum0 += c0.PerBlock[i]
		sum2k += c2k.PerBlock[i]
	}
	if sum2k > sum0 {
		t.Errorf("thresholded contraction %d exceeds raw %d", sum2k, sum0)
	}
}
