package experiments

import (
	"strings"
	"testing"

	"github.com/hfast-sim/hfast/internal/analysis"
	"github.com/hfast-sim/hfast/internal/hfast"
)

// testRunner caches small profiles; experiments here run at P=16 to stay
// fast (the full paper sizes are covered by the calibration tests and the
// benchmarks).
func testRunner() *Runner { return NewRunner(2) }

func TestTable1Renders(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	out := b.String()
	for _, want := range []string{"SGI Altix", "46.0KB", "2048 bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	var b strings.Builder
	Table2(&b)
	out := b.String()
	for _, want := range []string{"cactus", "84000", "Lattice Boltzmann", "paratec"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestRunnerCaches(t *testing.T) {
	r := testRunner()
	p1, err := r.Profile("cactus", 8)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Profile("cactus", 8)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("runner did not cache the profile")
	}
	if _, err := r.Profile("nonesuch", 8); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestFig2DataSmall(t *testing.T) {
	r := testRunner()
	mix, err := Fig2Data(r, "lbmhd", 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) == 0 {
		t.Fatal("empty call mix")
	}
	var total float64
	for _, cs := range mix {
		total += cs.Pct
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("call mix sums to %.2f%%", total)
	}
}

func TestFig3DataMergesAllApps(t *testing.T) {
	r := testRunner()
	hist, err := Fig3Data(r, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) == 0 {
		t.Fatal("no collective sizes merged")
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Bytes <= hist[i-1].Bytes {
			t.Fatal("merged histogram not sorted")
		}
	}
}

func TestFigAppDataSeries(t *testing.T) {
	old := PaperProcs
	PaperProcs = []int{8, 16}
	defer func() { PaperProcs = old }()
	r := testRunner()
	big, series, err := FigAppData(r, "cactus")
	if err != nil {
		t.Fatal(err)
	}
	if big.P != 16 {
		t.Errorf("big graph P=%d, want 16", big.P)
	}
	if len(series[8]) == 0 || len(series[16]) == 0 {
		t.Error("missing sweep series")
	}
}

func TestTable3RowsSmall(t *testing.T) {
	old := PaperProcs
	PaperProcs = []int{8}
	defer func() { PaperProcs = old }()
	r := testRunner()
	rows, err := Table3Rows(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, s := range rows {
		if s.Procs != 8 || s.PTPCallPct+s.CollCallPct < 99.9 {
			t.Errorf("bad row %+v", s)
		}
	}
}

func TestCostRowsSmall(t *testing.T) {
	r := testRunner()
	rows, err := CostRows(r, 16, hfast.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if row.Cmp.Blocks < 16 {
			t.Errorf("%s: only %d blocks for 16 nodes", row.App, row.Cmp.Blocks)
		}
		if row.Cmp.HFAST.Total() <= 0 || row.Cmp.FatTree.Total() <= 0 {
			t.Errorf("%s: non-positive costs", row.App)
		}
	}
}

func TestScalingSweepShapes(t *testing.T) {
	params := hfast.DefaultParams()
	pts, err := ScalingSweep(func(int) int { return 6 }, []int{64, 4096}, params)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded degree: per-node HFAST cost is scale-independent.
	if pts[0].HFASTPerNode != pts[1].HFASTPerNode {
		t.Errorf("per-node cost changed: %.0f vs %.0f", pts[0].HFASTPerNode, pts[1].HFASTPerNode)
	}
	// Fat-tree ports/proc must grow.
	if pts[1].FatTreePorts <= pts[0].FatTreePorts {
		t.Errorf("fat-tree ports/proc did not grow: %d vs %d", pts[0].FatTreePorts, pts[1].FatTreePorts)
	}
	// Full-degree workload costs explode superlinearly per node.
	full, err := ScalingSweep(func(p int) int { return p - 1 }, []int{64, 4096}, params)
	if err != nil {
		t.Fatal(err)
	}
	if full[1].HFASTPerNode <= full[0].HFASTPerNode*10 {
		t.Errorf("case-iv per-node cost should explode: %.0f → %.0f",
			full[0].HFASTPerNode, full[1].HFASTPerNode)
	}
}

func TestRightSizedBlock(t *testing.T) {
	cases := map[int]int{0: 4, 3: 4, 6: 8, 7: 8, 8: 16, 15: 16, 16: 32}
	for deg, want := range cases {
		if got := RightSizedBlock(deg); got != want {
			t.Errorf("RightSizedBlock(%d) = %d, want %d", deg, got, want)
		}
	}
}

func TestAblationRowsSmall(t *testing.T) {
	r := testRunner()
	rows, err := AblationRows(r, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Savings.CliqueBlocks <= 0 || row.Savings.NaiveBlocks <= 0 {
			t.Errorf("%s: bad savings %+v", row.App, row.Savings)
		}
	}
}

// TestBlockSizeAblation pins EXPERIMENTS.md's block-size sweep: HFAST's
// one free design parameter over GTC's measured P=256 topology.
func TestBlockSizeAblation(t *testing.T) {
	r := NewRunner(0)
	for bs, want := range map[int]int{8: 2432, 16: 4096, 32: 8192} {
		a, err := r.Assignment("gtc", 256, 0, bs)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.TotalBlocks * bs; got != want {
			t.Errorf("gtc/256 at block size %d: %d active ports, want %d", bs, got, want)
		}
	}
}

// TestHintsMatchMeasured pins DESIGN.md's A8: the 4×4×4 grid, periodic
// in z, provisions the same fabric from its declared topology as from
// its measured traffic.
func TestHintsMatchMeasured(t *testing.T) {
	hinted, measured, err := hintsData()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*hfast.Assignment{hinted, measured} {
		if a.TotalBlocks != 64 || a.MaxRoute().SBHops != 2 {
			t.Errorf("%d blocks, worst route %d SB hops; want 64 and 2", a.TotalBlocks, a.MaxRoute().SBHops)
		}
	}
	if !samePartners(hinted, measured) {
		t.Error("declared and measured partner sets differ")
	}
}

func TestNetsimRowsSmall(t *testing.T) {
	r := testRunner()
	rows, err := NetsimRows(r, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Flows == 0 {
			t.Errorf("%s: no flows", row.App)
		}
		if row.FCN <= 0 || row.Mesh <= 0 {
			t.Errorf("%s: non-positive makespans %+v", row.App, row)
		}
	}
}

func TestTraceRowsSmall(t *testing.T) {
	r := testRunner()
	rows, err := TraceRows(r, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Op.Windows != 2 {
			t.Errorf("%s: %d windows, want 2 (steps)", row.App, row.Op.Windows)
		}
		if row.Op.UnionTDC < row.Op.MaxWindowTDC {
			t.Errorf("%s: union TDC %d below window max %d", row.App, row.Op.UnionTDC, row.Op.MaxWindowTDC)
		}
	}
}

// TestCasesRowsSmall classifies every application at a power of two and
// at P=28, whose most cubic grid (7×2×2) a greedy factorizer misses:
// Cactus's stencil embeds in the mesh baseline at every P.
func TestCasesRowsSmall(t *testing.T) {
	r := testRunner()
	for _, procs := range []int{16, 28} {
		rows, err := CasesRows(r, procs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("P=%d: got %d case rows", procs, len(rows))
		}
		for _, c := range rows {
			if c.Got == "" {
				t.Errorf("P=%d %s: empty classification", procs, c.App)
			}
			if c.App == "cactus" && c.Got != analysis.CaseI {
				t.Errorf("P=%d: cactus is case %s, want %s", procs, c.Got, analysis.CaseI)
			}
		}
	}
}

func TestICNRowsSmall(t *testing.T) {
	r := testRunner()
	rows, err := ICNRows(r, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	// PARATEC (all-to-all) cannot embed in a k=4 ICN even at P=16: its
	// blocks' external edges vastly exceed the circuit ports.
	for _, row := range rows {
		if row.App == "paratec" &&
			row.Contraction.Fits && row.Contraction.OversubscribedEdges == 0 {
			t.Error("paratec reported embedding cleanly in a k=4 ICN")
		}
	}
}

func TestSchedRowsSmall(t *testing.T) {
	rows, err := SchedRows([]int{64}, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Flex.Jobs != 40 || rows[0].Mesh.Jobs != 40 {
		t.Fatalf("bad sched rows %+v", rows)
	}
	if rows[0].Flex.BlockedWithFreeNodes != 0 {
		t.Error("flexible allocator fragmented")
	}
	if rows[0].Mesh.AvgWait < rows[0].Flex.AvgWait-1e-9 {
		t.Errorf("mesh waits %.2f below flex %.2f", rows[0].Mesh.AvgWait, rows[0].Flex.AvgWait)
	}
}

func TestFaultRowsSmall(t *testing.T) {
	r := testRunner()
	rows, err := FaultRows(r, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d fault rows", len(rows))
	}
	for _, row := range rows {
		if row.Report.Failed != 2 {
			t.Errorf("%s: failed=%d", row.App, row.Report.Failed)
		}
		if row.Report.HFASTBlocksFreed < 2 {
			t.Errorf("%s: blocks freed %d < failures", row.App, row.Report.HFASTBlocksFreed)
		}
	}
}

func TestPlacementRowsSmall(t *testing.T) {
	r := testRunner()
	rows, err := PlacementRows(r, 16, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d placement rows", len(rows))
	}
	for _, row := range rows {
		if row.CostAfter > row.CostBefore {
			t.Errorf("%s: optimization worsened cost %d -> %d", row.App, row.CostBefore, row.CostAfter)
		}
		if row.Optimized.AvgDilation > row.Identity.AvgDilation+1e-9 {
			t.Errorf("%s: optimized dilation %.2f above identity %.2f",
				row.App, row.Optimized.AvgDilation, row.Identity.AvgDilation)
		}
	}
}

func TestNetsimTreeCarriesSmallFlows(t *testing.T) {
	r := testRunner()
	rows, err := NetsimRows(r, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Collective > 0 && row.TreeTime <= 0 {
			t.Errorf("%s: %d tree flows but no tree makespan", row.App, row.Collective)
		}
	}
}
