package hfast

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
)

// offsetGraph builds a graph with one above-cutoff ring per offset so diff
// tests can control the partner sets exactly.
func offsetGraph(t *testing.T, procs int, offsets []int) *topology.Graph {
	t.Helper()
	g, err := topology.NewGraph(procs)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range offsets {
		for i := 0; i < procs; i++ {
			g.AddTraffic(i, (i+off)%procs, 4, 1<<20, 1<<18)
		}
	}
	return g
}

func mustAssign(t *testing.T, g *topology.Graph) *Assignment {
	t.Helper()
	a, err := Assign(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDiffDarkFabric pins the prev == nil case: everything is a setup,
// nothing is kept or torn down, and the diff costs exactly what wiring
// from scratch costs (Saved = 0).
func TestDiffDarkFabric(t *testing.T) {
	next := mustAssign(t, offsetGraph(t, 16, []int{1, 2}))
	d, err := DiffAssignments(nil, next)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := 16 * 2 // two rings, each edge counted once
	if len(d.Setup) != wantEdges || len(d.Teardown) != 0 || d.Kept != 0 {
		t.Fatalf("dark fabric diff: setup=%d teardown=%d kept=%d, want %d/0/0",
			len(d.Setup), len(d.Teardown), d.Kept, wantEdges)
	}
	if d.BlocksDelta != next.TotalBlocks {
		t.Fatalf("blocks delta = %d, want %d", d.BlocksDelta, next.TotalBlocks)
	}
	if d.PortMoves != d.FullMoves {
		t.Fatalf("dark-fabric moves %d != full wiring %d", d.PortMoves, d.FullMoves)
	}
	if d.Saved() != 0 {
		t.Fatalf("dark fabric saved %.3f, want 0", d.Saved())
	}
	if d.Settle != SettleTime {
		t.Fatalf("settle = %v, want %v", d.Settle, SettleTime)
	}
}

// TestDiffIdentical pins the no-op case: same assignment on both sides
// keeps every circuit, moves nothing, and stalls for zero settle time.
func TestDiffIdentical(t *testing.T) {
	a := mustAssign(t, offsetGraph(t, 16, []int{1, 2}))
	d, err := DiffAssignments(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Setup) != 0 || len(d.Teardown) != 0 {
		t.Fatalf("identical diff moved circuits: setup=%d teardown=%d", len(d.Setup), len(d.Teardown))
	}
	if d.Kept != 32 || d.BlocksDelta != 0 || d.PortMoves != 0 {
		t.Fatalf("identical diff: kept=%d delta=%d moves=%d, want 32/0/0", d.Kept, d.BlocksDelta, d.PortMoves)
	}
	if d.Settle != 0 {
		t.Fatalf("identical diff settles %v, want 0", d.Settle)
	}
	if s := d.Saved(); s != 1 {
		t.Fatalf("identical diff saved %.3f, want 1", s)
	}
}

// TestDiffPartialOverlap checks the merge classification on a shared
// ring: the common offset survives, the old one tears down, the new one
// sets up, and the partial diff beats from-scratch wiring.
func TestDiffPartialOverlap(t *testing.T) {
	const p = 16
	prev := mustAssign(t, offsetGraph(t, p, []int{1, 2}))
	next := mustAssign(t, offsetGraph(t, p, []int{1, 3}))
	d, err := DiffAssignments(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kept != p || len(d.Setup) != p || len(d.Teardown) != p {
		t.Fatalf("overlap diff: kept=%d setup=%d teardown=%d, want %d each", d.Kept, len(d.Setup), len(d.Teardown), p)
	}
	for _, e := range append(append([][2]int{}, d.Setup...), d.Teardown...) {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not normalized i < j", e)
		}
	}
	if d.Saved() <= 0 {
		t.Fatalf("half-overlap diff saved %.3f, want > 0 (moves %d vs full %d)", d.Saved(), d.PortMoves, d.FullMoves)
	}
}

// TestPlanDiffMatchesAssign pins the planner invariant the streaming
// endpoint relies on: PlanDiff's next assignment is exactly Assign(g) —
// diffing changes the transition cost, never the provisioned target.
func TestPlanDiffMatchesAssign(t *testing.T) {
	g1 := offsetGraph(t, 32, []int{1, 5})
	g2 := offsetGraph(t, 32, []int{1, 9})
	prev := mustAssign(t, g1)
	next, d, err := PlanDiff(prev, g2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := mustAssign(t, g2)
	nj, _ := json.Marshal(next)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(nj, wj) {
		t.Fatalf("PlanDiff target differs from Assign")
	}
	if len(d.Setup) == 0 || len(d.Teardown) == 0 || d.Kept == 0 {
		t.Fatalf("expected a mixed diff, got setup=%d teardown=%d kept=%d", len(d.Setup), len(d.Teardown), d.Kept)
	}
	if _, _, err := PlanDiff(prev, g2, 0, prev.BlockSize*2); err == nil {
		t.Fatal("expected error diffing across block sizes")
	}
}

// TestCapacityInvertsBlocks checks CapacityForBlocks against
// BlocksForDegree over the whole practical range: a tree of b blocks must
// accept exactly the degrees BlocksForDegree maps to <= b blocks.
func TestCapacityInvertsBlocks(t *testing.T) {
	for _, bs := range []int{4, 8, 16} {
		for b := 1; b <= 6; b++ {
			cap := CapacityForBlocks(b, bs)
			if got := BlocksForDegree(cap, bs); got > b {
				t.Fatalf("blockSize %d: capacity %d of %d blocks needs %d blocks", bs, cap, b, got)
			}
			if got := BlocksForDegree(cap+1, bs); got <= b {
				t.Fatalf("blockSize %d: degree %d should overflow %d blocks, needs %d", bs, cap+1, b, got)
			}
		}
	}
	if CapacityForBlocks(0, 16) != 0 {
		t.Fatal("zero blocks should expose zero partners")
	}
}

// TestAssignWithBudget checks the static planner admits highest-volume
// edges first and respects per-node capacity.
func TestAssignWithBudget(t *testing.T) {
	const p = 8
	g, err := topology.NewGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 talks to every other node; volume decreases with partner id.
	for j := 1; j < p; j++ {
		g.AddTraffic(0, j, 4, int64((p-j)<<20), 1<<18)
	}
	budget := make([]int, p)
	for i := range budget {
		budget[i] = 1
	}
	a, err := AssignWithBudget(g, 0, 4, budget) // blockSize 4: capacity 3 per node
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Partners[0]; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("node 0 admitted %v, want highest-volume partners [1 2 3]", got)
	}
	for i := 1; i <= 3; i++ {
		if len(a.Partners[i]) != 1 || a.Partners[i][0] != 0 {
			t.Fatalf("node %d partners %v, want [0]", i, a.Partners[i])
		}
	}
	for i := 4; i < p; i++ {
		if len(a.Partners[i]) != 0 {
			t.Fatalf("node %d admitted %v beyond node 0's budget", i, a.Partners[i])
		}
	}
	if _, err := AssignWithBudget(g, 0, 4, budget[:p-1]); err == nil {
		t.Fatal("expected error for budget of wrong length")
	}
}

// TestDiffDeterminism pins the diff pipeline's run-to-run byte
// stability: two builds of the same assignments and their diff, one at
// GOMAXPROCS=1 and one at 4, encode to identical bytes.
func TestDiffDeterminism(t *testing.T) {
	pairsFor := func(procs, off int) []ipm.PairTraffic {
		var ps []ipm.PairTraffic
		for i := 0; i < procs; i++ {
			ps = append(ps, ipm.PairTraffic{Src: i, Dst: (i + off) % procs, Msgs: 4, Bytes: 1 << 20, MaxMsg: 1 << 18})
		}
		return ps
	}
	run := func() []byte {
		const procs = 256
		g1, err := topology.FromPairs(procs, pairsFor(procs, 7))
		if err != nil {
			t.Fatal(err)
		}
		g2, err := topology.FromPairs(procs, pairsFor(procs, 31))
		if err != nil {
			t.Fatal(err)
		}
		prev := mustAssign(t, g1)
		next, d, err := PlanDiff(prev, g2, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(struct {
			Prev, Next *Assignment
			Diff       *CircuitDiff
		}{prev, next, d})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(4)
	four := run()
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(one, four) {
		t.Fatalf("circuit diff differs across GOMAXPROCS (%d vs %d bytes)", len(one), len(four))
	}
}
