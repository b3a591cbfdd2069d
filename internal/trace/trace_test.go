package trace

import (
	"reflect"
	"testing"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
	"github.com/hfast-sim/hfast/internal/topology"
)

// phasedProfile runs a 2-phase app: steps 0-1 are a ring, steps 2-3 are a
// shuffle — the classic reconfiguration opportunity.
func phasedProfile(t *testing.T) *ipm.Profile {
	t.Helper()
	const p = 8
	set := ipm.NewCollectorSet(0)
	w := mpi.NewWorld(p, mpi.WithTracerFactory(set.Factory))
	err := w.Run(func(c *mpi.Comm) {
		me := c.Rank()
		for s := 0; s < 4; s++ {
			c.RegionBegin(stepName(s))
			var peerA, peerB int
			if s < 2 {
				peerA, peerB = (me+1)%p, (me+p-1)%p
			} else {
				peerA, peerB = me^4, me^4
			}
			c.Sendrecv(peerA, 1, mpi.Size(64<<10), peerB, 1)
			c.RegionEnd()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return set.Profile("phased", p, nil)
}

func stepName(s int) string {
	names := []string{"step000", "step001", "step002", "step003"}
	return names[s]
}

func TestWindowsExtraction(t *testing.T) {
	ws := replay(t, phasedProfile(t)).Windows
	if len(ws) != 4 {
		t.Fatalf("got %d windows, want 4", len(ws))
	}
	for i, w := range ws {
		if w.Region != stepName(i) {
			t.Errorf("window %d region %q", i, w.Region)
		}
	}
	// Ring windows: TDC 2; shuffle windows: TDC 1.
	if ws[0].Stats.Max != 2 || ws[3].Stats.Max != 1 {
		t.Errorf("window degrees: first %+v last %+v", ws[0].Stats, ws[3].Stats)
	}
}

func TestChurn(t *testing.T) {
	ws := replay(t, phasedProfile(t)).Windows
	if c := Churn(ws[0].Graph, ws[1].Graph, 0); c != 0 {
		t.Errorf("same-phase churn %d, want 0", c)
	}
	// Phase switch: 8 ring edges disappear, 4 shuffle edges appear.
	if c := Churn(ws[1].Graph, ws[2].Graph, 0); c != 12 {
		t.Errorf("phase-switch churn %d, want 12", c)
	}
}

// analyze computes a profile's opportunity over its "step" windows.
func analyze(t *testing.T, p *ipm.Profile) Opportunity {
	t.Helper()
	op, err := replay(t, p).Opportunity()
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestAnalyzeOpportunity(t *testing.T) {
	op := analyze(t, phasedProfile(t))
	if op.Windows != 4 {
		t.Fatalf("windows %d", op.Windows)
	}
	if op.MaxWindowTDC != 2 {
		t.Errorf("max window TDC %d, want 2", op.MaxWindowTDC)
	}
	// Union: ring (2) + shuffle partner (1) = 3.
	if op.UnionTDC != 3 {
		t.Errorf("union TDC %d, want 3", op.UnionTDC)
	}
	if op.ReconfigurableGain != 1 {
		t.Errorf("gain %d, want 1", op.ReconfigurableGain)
	}
	if op.MeanChurn <= 0 {
		t.Errorf("mean churn %g", op.MeanChurn)
	}
}

func TestAnalyzeEmptyProfile(t *testing.T) {
	op := analyze(t, &ipm.Profile{App: "empty", Procs: 4})
	if op.Windows != 0 || op.UnionTDC != 0 {
		t.Errorf("empty analyze: %+v", op)
	}
}

func TestChurnCutoffDefaults(t *testing.T) {
	a := topology.MustGraph(4)
	b := topology.MustGraph(4)
	a.AddTraffic(0, 1, 1, 100, 100) // below default cutoff
	if c := Churn(a, b, 0); c != 0 {
		t.Errorf("sub-threshold edge churned: %d", c)
	}
	if c := Churn(a, b, 1); c != 1 {
		t.Errorf("raw churn %d, want 1", c)
	}
}

// mapEdgeDiff is the comparison edgeDiff replaced — each graph's
// thresholded edges in a map, membership tested edge by edge — kept as
// the oracle for the merge walk.
func mapEdgeDiff(a, b *topology.Graph, cutoff int) (both, one int) {
	set := func(g *topology.Graph) map[[2]int]bool {
		s := make(map[[2]int]bool)
		for _, e := range g.Edges(cutoff) {
			s[e] = true
		}
		return s
	}
	ea, eb := set(a), set(b)
	for e := range ea {
		if eb[e] {
			both++
		} else {
			one++
		}
	}
	for e := range eb {
		if !ea[e] {
			one++
		}
	}
	return both, one
}

func TestEdgeDiffMatchesMapOracle(t *testing.T) {
	// ring builds a graph whose rank i talks to i+off for each offset, in
	// messages of the given size.
	ring := func(p, size int, offsets ...int) *topology.Graph {
		g := topology.MustGraph(p)
		for _, off := range offsets {
			for i := 0; i < p; i++ {
				g.AddTraffic(i, (i+off)%p, 1, int64(size), size)
			}
		}
		return g
	}
	mixed := ring(16, 8192, 1, 5)
	mixed.Add(ring(16, 100, 2)) // sub-threshold edges interleaved with the rest
	silent := topology.MustGraph(16)
	silent.AddTraffic(0, 1, 0, 0, 0) // recorded, never used: in no edge set
	graphs := map[string]*topology.Graph{
		"empty":  topology.MustGraph(16),
		"silent": silent,
		"ring1":  ring(16, 8192, 1),
		"ring15": ring(16, 8192, 15), // ring1's edges, entered from the other end
		"ring3":  ring(16, 8192, 3),
		"dense":  ring(16, 8192, 1, 2, 3, 4, 5, 6, 7, 8),
		"small":  ring(16, 100, 1, 3),
		"mixed":  mixed,
	}
	for an, a := range graphs {
		for bn, b := range graphs {
			for _, cutoff := range []int{0, 1, 101, topology.DefaultCutoff, 1 << 20} {
				both, one := edgeDiff(a, b, cutoff)
				wantBoth, wantOne := mapEdgeDiff(a, b, cutoff)
				if both != wantBoth || one != wantOne {
					t.Errorf("edgeDiff(%s, %s, %d) = (%d, %d), map oracle (%d, %d)", an, bn, cutoff, both, one, wantBoth, wantOne)
				}
			}
		}
	}
	if both, one := edgeDiff(graphs["ring1"], graphs["ring15"], 0); both != 16 || one != 0 {
		t.Errorf("the same ring twice: (%d, %d), want (16, 0)", both, one)
	}
	if both, one := edgeDiff(graphs["ring1"], graphs["ring3"], 0); both != 0 || one != 32 {
		t.Errorf("disjoint rings: (%d, %d), want (0, 32)", both, one)
	}
}

// TestChurnAllocatesNothing: the window comparison walks both graphs'
// rows where they lie; it lists no edges.
func TestChurnAllocatesNothing(t *testing.T) {
	a := synthWindow(t, "step000", 256, []int{1, 16}).Graph
	b := synthWindow(t, "step001", 256, []int{1, 17}).Graph
	if c := Churn(a, b, 0); c != 2*256 {
		t.Fatalf("churn %d, want %d", c, 2*256)
	}
	if allocs := testing.AllocsPerRun(20, func() { Churn(a, b, 0) }); allocs != 0 {
		t.Fatalf("Churn on two P=256 halo windows: %.0f allocations, want 0", allocs)
	}
}

// FuzzGraphAdd holds both walks over sorted adjacency rows to their
// oracles on random symmetric graphs: topology's Add to the per-edge
// insertion it replaced (ForEachEdge, then AddTraffic, which is addHalf
// at both ends — topology's TestAddMatchesAddHalfOracle keeps the same
// oracle), and edgeDiff to mapEdgeDiff.
func FuzzGraphAdd(f *testing.F) {
	f.Add(uint8(8), uint8(8), []byte{2, 1, 2, 200, 3, 1, 3, 10, 6, 2, 5, 255, 0, 7, 0, 1, 5, 2, 1, 9})
	f.Add(uint8(16), uint8(5), []byte{7, 0, 4, 128, 2, 0, 15, 128, 4, 3, 9, 1, 1, 4, 3, 0})
	f.Fuzz(func(t *testing.T, pg, ps uint8, ops []byte) {
		gp := 1 + int(pg%32)
		sp := 1 + int(ps)%gp
		// build replays ops: every four bytes add one pair's traffic to g
		// (low bit 0) or src (1), 0–3 messages of up to 4 KB.
		build := func() (g, src *topology.Graph) {
			g, src = topology.MustGraph(gp), topology.MustGraph(sp)
			for k := 0; k+3 < len(ops); k += 4 {
				into := g
				if ops[k]&1 == 1 {
					into = src
				}
				msgs, size := int64(ops[k]>>1&3), int(ops[k+3])<<4
				into.AddTraffic(int(ops[k+1])%into.P, int(ops[k+2])%into.P, msgs, msgs*int64(size), size)
			}
			return g, src
		}
		g, src := build()
		want, wantSrc := build()
		wantSrc.ForEachEdge(func(i, j int, e topology.Edge) {
			if e.Msgs > 0 {
				want.AddTraffic(i, j, e.Msgs, e.Vol, e.MaxMsg)
			}
		})
		g.Add(src)
		for i := 0; i < gp; i++ {
			if !reflect.DeepEqual(g.Adj(i), want.Adj(i)) {
				t.Fatalf("rank %d: Add merged %+v, the per-edge oracle %+v", i, g.Adj(i), want.Adj(i))
			}
		}
		for _, cutoff := range []int{0, 1, topology.DefaultCutoff} {
			for _, pair := range [][2]*topology.Graph{{g, src}, {src, g}, {src, src}} {
				both, one := edgeDiff(pair[0], pair[1], cutoff)
				if wantBoth, wantOne := mapEdgeDiff(pair[0], pair[1], cutoff); both != wantBoth || one != wantOne {
					t.Fatalf("edgeDiff at cutoff %d = (%d, %d), map oracle (%d, %d)", cutoff, both, one, wantBoth, wantOne)
				}
			}
		}
	})
}
