package topology

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
)

func TestGraphSymmetry(t *testing.T) {
	g := MustGraph(4)
	g.AddTraffic(0, 1, 2, 100, 60)
	g.AddTraffic(3, 1, 1, 50, 50)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if g.Vol(i, j) != g.Vol(j, i) || g.Msgs(i, j) != g.Msgs(j, i) || g.MaxMsg(i, j) != g.MaxMsg(j, i) {
				t.Fatalf("graph not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestGraphErrors(t *testing.T) {
	if _, err := NewGraph(0); err == nil {
		t.Error("NewGraph(0) did not error")
	}
	if _, err := NewGraph(-3); err == nil {
		t.Error("NewGraph(-3) did not error")
	}
	g := MustGraph(4)
	if err := g.AddTraffic(0, 4, 1, 1, 1); err == nil {
		t.Error("out-of-range dst did not error")
	}
	if err := g.AddTraffic(-1, 2, 1, 1, 1); err == nil {
		t.Error("out-of-range src did not error")
	}
	if err := g.AddTraffic(0, 1, 1, 1, 1); err != nil {
		t.Errorf("valid pair errored: %v", err)
	}
	if p := g.Partners(99, 0); p != nil {
		t.Errorf("out-of-range Partners = %v, want nil", p)
	}
}

func TestSelfTrafficIgnored(t *testing.T) {
	g := MustGraph(3)
	g.AddTraffic(1, 1, 5, 500, 100)
	if g.TotalBytes() != 0 {
		t.Error("self traffic counted")
	}
	if d := g.Degrees(0); d[1] != 0 {
		t.Error("self traffic created degree")
	}
}

func TestDegreesAndCutoff(t *testing.T) {
	g := MustGraph(4)
	g.AddTraffic(0, 1, 1, 10000, 10000) // big
	g.AddTraffic(0, 2, 1, 100, 100)     // small
	g.AddTraffic(0, 3, 1, 2048, 2048)   // exactly at cutoff
	if d := g.Degrees(0); d[0] != 3 {
		t.Errorf("unthresholded degree %d, want 3", d[0])
	}
	if d := g.Degrees(DefaultCutoff); d[0] != 2 {
		t.Errorf("2KB-thresholded degree %d, want 2 (cutoff is inclusive)", d[0])
	}
	if d := g.Degrees(1 << 20); d[0] != 0 {
		t.Errorf("1MB-thresholded degree %d, want 0", d[0])
	}
}

func TestStats(t *testing.T) {
	g := MustGraph(4)
	// Star: node 0 talks to everyone.
	for j := 1; j < 4; j++ {
		g.AddTraffic(0, j, 1, 5000, 5000)
	}
	st := g.Stats(0)
	if st.Max != 3 || st.Min != 1 {
		t.Errorf("star stats: %+v", st)
	}
	if st.Avg != (3.0+1+1+1)/4 {
		t.Errorf("star avg: %g", st.Avg)
	}
	if st.Median != 1 {
		t.Errorf("star median: %g", st.Median)
	}
}

func TestAdjSortedAndMerged(t *testing.T) {
	g := MustGraph(6)
	// Insert partners out of order, with a duplicate pair to merge.
	g.AddTraffic(2, 5, 1, 10, 10)
	g.AddTraffic(2, 1, 1, 20, 20)
	g.AddTraffic(2, 4, 1, 30, 30)
	g.AddTraffic(1, 2, 2, 40, 50) // reverse direction of (2,1)
	adj := g.Adj(2)
	if len(adj) != 3 {
		t.Fatalf("adj(2) has %d entries, want 3: %+v", len(adj), adj)
	}
	for k := 1; k < len(adj); k++ {
		if adj[k-1].To >= adj[k].To {
			t.Fatalf("adjacency not sorted: %+v", adj)
		}
	}
	if adj[0].To != 1 || adj[0].Vol != 60 || adj[0].Msgs != 3 || adj[0].MaxMsg != 50 {
		t.Errorf("merged edge wrong: %+v", adj[0])
	}
	if g.EdgeCount() != 3 {
		t.Errorf("EdgeCount = %d, want 3", g.EdgeCount())
	}
}

func TestTDCMonotoneInCutoffQuick(t *testing.T) {
	// Property: raising the cutoff never increases any degree.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 3 + rng.Intn(14)
		g := MustGraph(p)
		edges := rng.Intn(3 * p)
		for e := 0; e < edges; e++ {
			i, j := rng.Intn(p), rng.Intn(p)
			size := 1 << rng.Intn(21)
			g.AddTraffic(i, j, 1, int64(size), size)
		}
		prev := g.Degrees(0)
		for _, c := range PaperCutoffs()[1:] {
			cur := g.Degrees(c)
			for n := range cur {
				if cur[n] > prev[n] {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperCutoffs(t *testing.T) {
	cs := PaperCutoffs()
	if cs[0] != 0 || cs[1] != 128 || cs[len(cs)-1] != 1<<20 {
		t.Errorf("unexpected cutoff series %v", cs)
	}
	for i := 2; i < len(cs); i++ {
		if cs[i] != 2*cs[i-1] {
			t.Errorf("cutoffs not doubling at %d: %v", i, cs)
		}
	}
}

func TestSweepMatchesStats(t *testing.T) {
	g := MustGraph(5)
	g.AddTraffic(0, 1, 1, 4096, 4096)
	g.AddTraffic(2, 3, 1, 64, 64)
	sweep := g.Sweep(nil)
	for _, st := range sweep {
		want := g.Stats(st.Cutoff)
		if st != want {
			t.Errorf("sweep/stat mismatch at cutoff %d: %+v vs %+v", st.Cutoff, st, want)
		}
	}
}

func TestFCNUtilization(t *testing.T) {
	g := MustGraph(4)
	// Complete graph: utilization 1.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddTraffic(i, j, 1, 4096, 4096)
		}
	}
	if u := g.FCNUtilization(0); u != 1 {
		t.Errorf("complete graph utilization %g", u)
	}
	single := MustGraph(1)
	if u := single.FCNUtilization(0); u != 0 {
		t.Errorf("P=1 utilization %g", u)
	}
}

// TestCloneSharesNothing: a clone's adjacency is one block cut per rank,
// so inserting a partner into one rank must move that rank's slice, not
// slide over its neighbours' edges or reach back into the original.
func TestCloneSharesNothing(t *testing.T) {
	g := MustGraph(5)
	g.AddTraffic(0, 1, 2, 100, 60)
	g.AddTraffic(1, 2, 1, 50, 50)
	g.AddTraffic(1, 4, 3, 30, 10)
	g.AddTraffic(2, 3, 0, 0, 0) // carries no messages: a clone drops it
	snapshot := func(g *Graph) [][]Edge {
		out := make([][]Edge, g.P)
		for i := range out {
			out[i] = append([]Edge(nil), g.Adj(i)...)
		}
		return out
	}
	before := snapshot(g)
	c := g.Clone()
	if c.Msgs(0, 1) != 2 || c.Vol(1, 4) != 30 || c.EdgeCount() != 3 || len(c.Adj(3)) != 0 {
		t.Fatalf("clone lost or kept the wrong edges: %+v", snapshot(c))
	}
	cloned := snapshot(c)
	more := MustGraph(5)
	more.AddTraffic(1, 3, 7, 700, 100) // a partner rank 1 did not have, between two it had
	more.AddTraffic(0, 1, 1, 1, 1)     // and one it had
	c.Add(more)
	if got := snapshot(g); !reflect.DeepEqual(got, before) {
		t.Errorf("Add into the clone changed the original:\n got %+v\nwant %+v", got, before)
	}
	got := snapshot(c)
	for _, r := range []int{2, 4} { // the ranks on either side of rank 1's edges
		if !reflect.DeepEqual(got[r], cloned[r]) {
			t.Errorf("rank %d of the clone changed: %+v, was %+v", r, got[r], cloned[r])
		}
	}
	if c.Msgs(1, 3) != 7 || c.Msgs(3, 1) != 7 || c.Msgs(0, 1) != 3 || c.Msgs(1, 2) != 1 || c.Msgs(1, 4) != 3 {
		t.Errorf("clone after Add: %+v", got)
	}
}

func TestEdgesAndSubgraph(t *testing.T) {
	g := MustGraph(4)
	g.AddTraffic(0, 1, 2, 10000, 8000)
	g.AddTraffic(1, 2, 1, 100, 100)
	edges := g.Edges(2048)
	if len(edges) != 1 || edges[0] != [2]int{0, 1} {
		t.Errorf("edges at 2KB: %v", edges)
	}
	sub := g.Subgraph(2048)
	if sub.Msgs(0, 1) != 2 || sub.Vol(0, 1) != 10000 || sub.MaxMsg(0, 1) != 8000 {
		t.Errorf("subgraph lost edge data: %+v", sub)
	}
	if sub.Msgs(1, 2) != 0 {
		t.Error("subgraph kept sub-cutoff edge")
	}
}

func TestFromProfileEndToEnd(t *testing.T) {
	set := ipm.NewCollectorSet(0)
	w := mpi.NewWorld(4, mpi.WithTracerFactory(set.Factory))
	err := w.Run(func(c *mpi.Comm) {
		n, me := c.Size(), c.Rank()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		// Ring: everyone exchanges 64 KB with both neighbors.
		c.Sendrecv(right, 1, mpi.Size(64<<10), left, 1)
		c.Sendrecv(left, 2, mpi.Size(64<<10), right, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := set.Profile("ring", 4, nil)
	g, err := FromProfile(prof, "")
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats(0)
	if st.Max != 2 || st.Min != 2 || st.Avg != 2 {
		t.Errorf("ring TDC: %+v", st)
	}
	if g.Vol(0, 1) != 2*64<<10 { // one 64KB send in each direction
		t.Errorf("ring volume 0-1: %d", g.Vol(0, 1))
	}
}
