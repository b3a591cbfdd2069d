package cliquemap

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/topology"
)

func cliqueGraph(groups, size int) *topology.Graph {
	g := topology.MustGraph(groups * size)
	for grp := 0; grp < groups; grp++ {
		base := grp * size
		for i := base; i < base+size; i++ {
			for j := i + 1; j < base+size; j++ {
				g.AddTraffic(i, j, 1, 1<<20, 1<<20)
			}
		}
	}
	return g
}

func TestGreedyFindsDisjointCliques(t *testing.T) {
	g := cliqueGraph(4, 6) // 4 cliques of 6, block size 16
	m, err := Greedy(g, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cliques) != 4 {
		t.Fatalf("found %d cliques, want 4: %+v", len(m.Cliques), m.Cliques)
	}
	for _, cl := range m.Cliques {
		if len(cl.Members) != 6 {
			t.Errorf("clique size %d, want 6", len(cl.Members))
		}
		if cl.ExternalPorts != 0 {
			t.Errorf("disjoint clique has %d external ports", cl.ExternalPorts)
		}
	}
	if m.ExtraBlocks != 0 {
		t.Errorf("extra blocks %d, want 0", m.ExtraBlocks)
	}
}

func TestGreedyCoversEveryNode(t *testing.T) {
	f := func(seed int64) bool {
		g := topology.MustGraph(20)
		s := uint64(seed)
		next := func() uint64 { s = s*2862933555777941757 + 3037000493; return s >> 33 }
		for e := 0; e < 40; e++ {
			i, j := int(next())%20, int(next())%20
			if i != j {
				g.AddTraffic(i, j, 1, 1<<20, 1<<20)
			}
		}
		m, err := Greedy(g, 0, 8)
		if err != nil {
			return false
		}
		seen := map[int]int{}
		for ci, cl := range m.Cliques {
			for _, v := range cl.Members {
				if _, dup := seen[v]; dup {
					return false
				}
				seen[v] = ci
				if m.CliqueOf[v] != ci {
					return false
				}
			}
		}
		return len(seen) == 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueMembersAreMutuallyAdjacent(t *testing.T) {
	f := func(seed int64) bool {
		g := topology.MustGraph(16)
		s := uint64(seed)
		next := func() uint64 { s = s*6364136223846793005 + 1; return s >> 33 }
		for e := 0; e < 30; e++ {
			i, j := int(next())%16, int(next())%16
			if i != j {
				g.AddTraffic(i, j, 1, 64<<10, 64<<10)
			}
		}
		m, err := Greedy(g, 0, 8)
		if err != nil {
			return false
		}
		for _, cl := range m.Cliques {
			for x := 0; x < len(cl.Members); x++ {
				for y := x + 1; y < len(cl.Members); y++ {
					a, b := cl.Members[x], cl.Members[y]
					if !g.Connected(a, b, topology.DefaultCutoff) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareNaiveSavesOnCliques(t *testing.T) {
	g := cliqueGraph(8, 8)
	s, m, err := CompareNaive(g, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Naive: 64 nodes × 1 block; clique: 8 blocks.
	if s.NaiveBlocks != 64 {
		t.Errorf("naive blocks %d, want 64", s.NaiveBlocks)
	}
	if s.CliqueBlocks != 8 {
		t.Errorf("clique blocks %d, want 8", s.CliqueBlocks)
	}
	if s.PortsSavedPct < 80 {
		t.Errorf("savings %.0f%%, want ≥ 80%%", s.PortsSavedPct)
	}
	wantIntra := 8 * (8 * 7 / 2)
	if s.IntraCliqueEdges != wantIntra {
		t.Errorf("intra edges %d, want %d", s.IntraCliqueEdges, wantIntra)
	}
	if m.TotalBlocks() != 8 {
		t.Errorf("mapping total blocks %d", m.TotalBlocks())
	}
}

func TestExternalEdgesGetExtraBlocks(t *testing.T) {
	// A hub with 30 leaves: any clique holding the hub needs fan-out
	// blocks for the external edges.
	g := topology.MustGraph(31)
	for j := 1; j < 31; j++ {
		g.AddTraffic(0, j, 1, 1<<20, 1<<20)
	}
	m, err := Greedy(g, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExtraBlocks == 0 {
		t.Error("hub's external edges should force extra blocks")
	}
	// The clique mapping must still never lose to naive by more than the
	// sharing bound... sanity: totals positive.
	if m.TotalBlocks() <= 0 {
		t.Error("non-positive block total")
	}
}

func TestCliqueNeverWorseThanNaiveOnCliqueGraphs(t *testing.T) {
	for groups := 1; groups <= 6; groups++ {
		for size := 2; size <= 8; size += 2 {
			g := cliqueGraph(groups, size)
			s, _, err := CompareNaive(g, 0, 16)
			if err != nil {
				t.Fatal(err)
			}
			if s.CliqueBlocks > s.NaiveBlocks {
				t.Errorf("groups=%d size=%d: clique %d > naive %d",
					groups, size, s.CliqueBlocks, s.NaiveBlocks)
			}
		}
	}
}

func TestGreedyValidation(t *testing.T) {
	if _, err := Greedy(topology.MustGraph(4), 0, 2); err == nil {
		t.Error("block size 2 accepted")
	}
}

// TestGreedyZeroBlockSizeIsDefault: block size 0 selects
// hfast.DefaultBlockSize, as in every other planner. Cliques of 20 are
// cut at the block size, so the mapping tells 16 from any other size.
func TestGreedyZeroBlockSizeIsDefault(t *testing.T) {
	g := cliqueGraph(2, 20)
	got, err := Greedy(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Greedy(g, 0, hfast.DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockSize != 16 || !reflect.DeepEqual(got, want) {
		t.Errorf("Greedy at block size 0 planned %+v, want the block-size-16 plan %+v", got, want)
	}
}
