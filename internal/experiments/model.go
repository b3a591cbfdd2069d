package experiments

import (
	"fmt"
	"io"
	"math"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/cliquemap"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/par"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/report"
	"github.com/hfast-sim/hfast/internal/trace"
)

// CostRow is one application's §5.3 cost-model comparison.
type CostRow struct {
	App   string
	Procs int
	Cmp   hfast.Comparison
}

// CostRows provisions every application at the given size and compares
// against the fat-tree baseline.
func CostRows(r *Runner, procs int, params hfast.Params) ([]CostRow, error) {
	var rows []CostRow
	for _, app := range apps.Names() {
		cmp, err := r.Comparison(app, procs, 0, params)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CostRow{App: app, Procs: procs, Cmp: cmp})
	}
	return rows, nil
}

// CostModel renders the per-application cost comparison (§5.3).
func CostModel(w io.Writer, r *Runner, procs int) error {
	params := hfast.DefaultParams()
	rows, err := CostRows(r, procs, params)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "§5.3 cost model at P=%d (block size %d, active:passive port cost %g:%g)\n",
		procs, params.BlockSize, params.ActivePortCost, params.PassivePortCost)
	tbl := report.NewTable("Code", "Blocks", "Blocks/node", "HFAST cost", "Fat-tree cost", "Ratio", "Worst route (SB hops)")
	for _, row := range rows {
		tbl.AddRow(
			row.App,
			fmt.Sprintf("%d", row.Cmp.Blocks),
			fmt.Sprintf("%.2f", float64(row.Cmp.Blocks)/float64(procs)),
			fmt.Sprintf("%.0f", row.Cmp.HFAST.Total()),
			fmt.Sprintf("%.0f", row.Cmp.FatTree.Total()),
			fmt.Sprintf("%.2f", row.Cmp.Ratio()),
			fmt.Sprintf("%d", row.Cmp.MaxRoute.SBHops),
		)
	}
	tbl.Write(w)
	return nil
}

// ScalingPoint is one point of the analytic cost sweep.
type ScalingPoint struct {
	Procs         int
	HFASTCost     float64
	FatTreeCost   float64
	FatTreePorts  int // ports per processor
	HFASTPerNode  float64
	MeshCost      float64
	HFASTBlocks   int
	FatTreeLayers int
}

// ScalingSweep extends the cost model past simulated sizes with analytic
// degree models per hypothesis case: bounded TDC (cases i/ii, degree d),
// √P growth (SuperLU-like), and full connectivity (case iv).
func ScalingSweep(degreeOf func(p int) int, sizes []int, params hfast.Params) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, p := range sizes {
		deg := degreeOf(p)
		if deg > p-1 {
			deg = p - 1
		}
		degrees := make([]int, p)
		for i := range degrees {
			degrees[i] = deg
		}
		a, err := hfast.AssignDegrees(degrees, params.BlockSize)
		if err != nil {
			return nil, err
		}
		cmp, err := hfast.Compare(a, params)
		if err != nil {
			return nil, err
		}
		mesh, err := meshtorus.Baseline(p)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalingPoint{
			Procs:         p,
			HFASTCost:     cmp.HFAST.Total(),
			FatTreeCost:   cmp.FatTree.Total(),
			FatTreePorts:  cmp.Tree.PortsPerProc(),
			HFASTPerNode:  cmp.HFAST.Total() / float64(p),
			MeshCost:      mesh.Cost(params.ActivePortCost),
			HFASTBlocks:   a.TotalBlocks,
			FatTreeLayers: cmp.Tree.Layers,
		})
	}
	return out, nil
}

// ScalingSizes is the default sweep: 64 to 65536 processors.
var ScalingSizes = []int{64, 256, 1024, 4096, 16384, 65536}

// RightSizedBlock returns the smallest power-of-two block size (≥4) whose
// non-uplink ports cover the degree — the block a system architect would
// actually buy for a bounded-TDC workload.
func RightSizedBlock(deg int) int {
	b := 4
	for b-1 < deg {
		b <<= 1
	}
	return b
}

// Scaling renders the analytic sweep for a bounded-degree workload
// (TDC 6, Cactus-like) — the paper's core cost argument: per-node HFAST
// cost is constant while fat-tree ports per processor grow with log P.
// The "right-sized" column uses the smallest block covering the degree
// (8 ports for TDC 6) instead of the default 16-port block.
func Scaling(w io.Writer) error {
	params := hfast.DefaultParams()
	pts, err := ScalingSweep(func(int) int { return 6 }, ScalingSizes, params)
	if err != nil {
		return err
	}
	rightParams := params
	rightParams.BlockSize = RightSizedBlock(6)
	rpts, err := ScalingSweep(func(int) int { return 6 }, ScalingSizes, rightParams)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Cost scaling for a bounded-TDC workload (degree 6):")
	tbl := report.NewTable("P", "FT layers", "FT ports/proc", "fat-tree cost", "HFAST (16-port)", "HFAST (right-sized 8)", "mesh cost", "rightsized/FT")
	for i, pt := range pts {
		tbl.AddRow(
			fmt.Sprintf("%d", pt.Procs),
			fmt.Sprintf("%d", pt.FatTreeLayers),
			fmt.Sprintf("%d", pt.FatTreePorts),
			fmt.Sprintf("%.3g", pt.FatTreeCost),
			fmt.Sprintf("%.3g", pt.HFASTCost),
			fmt.Sprintf("%.3g", rpts[i].HFASTCost),
			fmt.Sprintf("%.3g", pt.MeshCost),
			fmt.Sprintf("%.2f", rpts[i].HFASTCost/pt.FatTreeCost),
		)
	}
	tbl.Write(w)
	fmt.Fprintln(w, "per-node HFAST cost is constant; fat-tree ports/proc grow with log P (1+2(L-1)),")
	fmt.Fprintln(w, "and the fat-tree must be built to its full (power-of-radix) capacity.")

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Cost scaling for a SuperLU-like workload (TDC ≈ 2√P):")
	pts, err = ScalingSweep(func(p int) int { return 2 * int(math.Sqrt(float64(p))) }, ScalingSizes, params)
	if err != nil {
		return err
	}
	tbl = report.NewTable("P", "HFAST cost", "fat-tree cost", "ratio")
	for _, pt := range pts {
		tbl.AddRow(fmt.Sprintf("%d", pt.Procs), fmt.Sprintf("%.3g", pt.HFASTCost),
			fmt.Sprintf("%.3g", pt.FatTreeCost), fmt.Sprintf("%.2f", pt.HFASTCost/pt.FatTreeCost))
	}
	tbl.Write(w)
	return nil
}

// AblationRow compares the linear-time assignment against the clique
// mapping for one application.
type AblationRow struct {
	App     string
	Procs   int
	Savings cliquemap.Savings
}

// AblationRows runs the clique-mapping ablation on every application.
func AblationRows(r *Runner, procs, blockSize int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, app := range apps.Names() {
		g, err := r.Graph(app, procs)
		if err != nil {
			return nil, err
		}
		s, _, err := cliquemap.CompareNaive(g, 0, blockSize)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{App: app, Procs: procs, Savings: s})
	}
	return rows, nil
}

// Ablation renders the clique-mapping ablation (§6 future work).
func Ablation(w io.Writer, r *Runner, procs int) error {
	rows, err := AblationRows(r, procs, hfast.DefaultBlockSize)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation: linear-time assignment vs greedy clique mapping (P=%d)\n", procs)
	tbl := report.NewTable("Code", "Naive blocks", "Clique blocks", "Saved", "Intra-clique edges")
	for _, row := range rows {
		tbl.AddRow(
			row.App,
			fmt.Sprintf("%d", row.Savings.NaiveBlocks),
			fmt.Sprintf("%d", row.Savings.CliqueBlocks),
			fmt.Sprintf("%.0f%%", row.Savings.PortsSavedPct),
			fmt.Sprintf("%d", row.Savings.IntraCliqueEdges),
		)
	}
	tbl.Write(w)
	return nil
}

// NetsimRow is one application's simulated makespan on the three fabrics.
type NetsimRow struct {
	App        string
	Procs      int
	Flows      int
	HFAST      float64 // seconds
	FCN        float64
	Mesh       float64
	Collective int     // flows HFAST hands to the collective tree (§2.4)
	TreeTime   float64 // makespan of those flows on the dedicated tree
}

// NetsimRows replays each application's steady-state traffic (one flow
// per directed pair per step-average) on HFAST, FCN, and mesh models.
func NetsimRows(r *Runner, procs int) ([]NetsimRow, error) {
	return NetsimRowsFor(r, apps.Names(), procs)
}

// netsimJob is one fabric simulation of one app's traffic; jobs write
// disjoint fields of their row, so the set shards over the worker pool
// without locking.
type netsimJob struct {
	ai     int
	app    string
	fabric string
}

// NetsimRowsFor replays the named applications' steady-state traffic on
// the three fabric models through the pipeline's Netsim stage. Per-app
// preparation (the profile) runs serially — it comes from the
// pipeline's warm cache — and the fabric simulations, three independent
// jobs per app, shard over the internal/par worker pool. Every job
// resolves a distinct fabric artifact and owns distinct row fields (the
// HFAST job also sets the flow count), so the parallel run is
// deterministic and race-free.
func NetsimRowsFor(r *Runner, appNames []string, procs int) ([]NetsimRow, error) {
	fabrics := []string{pipeline.FabricHFAST, pipeline.FabricFCN, pipeline.FabricMesh}
	rows := make([]NetsimRow, len(appNames))
	var jobs []netsimJob
	for ai, app := range appNames {
		if _, err := r.Profile(app, procs); err != nil {
			return nil, err
		}
		rows[ai] = NetsimRow{App: app, Procs: procs}
		for _, fabric := range fabrics {
			jobs = append(jobs, netsimJob{ai: ai, app: app, fabric: fabric})
		}
	}
	errs := make([]error, len(jobs))
	par.For(len(jobs), func(i int) {
		j := jobs[i]
		res, err := r.Netsim(j.app, procs, j.fabric)
		if err != nil {
			errs[i] = err
			return
		}
		row := &rows[j.ai]
		switch j.fabric {
		case pipeline.FabricHFAST:
			row.Flows = res.Flows
			row.HFAST = res.Makespan
			row.Collective = res.Collective
			row.TreeTime = res.TreeTime
		case pipeline.FabricFCN:
			row.FCN = res.Makespan
		case pipeline.FabricMesh:
			row.Mesh = res.Makespan
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s at P=%d: %w",
				jobs[i].app, jobs[i].fabric, procs, err)
		}
	}
	return rows, nil
}

// Netsim renders the fabric comparison.
func Netsim(w io.Writer, r *Runner, procs int) error {
	rows, err := NetsimRows(r, procs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Flow-level fabric comparison at P=%d (per-step traffic, makespan in ms)\n", procs)
	writeFabricTable(w, rows)
	fmt.Fprintln(w, "(sub-2KB flows ride the dedicated low-bandwidth tree, simulated in the last column)")
	return nil
}

// writeFabricTable renders fabric replays as one makespan table.
func writeFabricTable(w io.Writer, rows []NetsimRow) {
	tbl := report.NewTable("Code", "Flows", "HFAST", "FCN", "Mesh(torus)", "Mesh/HFAST", "tree flows", "tree ms")
	for _, row := range rows {
		tbl.AddRow(
			row.App,
			fmt.Sprintf("%d", row.Flows),
			fmt.Sprintf("%.3f", row.HFAST*1e3),
			fmt.Sprintf("%.3f", row.FCN*1e3),
			fmt.Sprintf("%.3f", row.Mesh*1e3),
			fmt.Sprintf("%.2f", row.Mesh/row.HFAST),
			fmt.Sprintf("%d", row.Collective),
			fmt.Sprintf("%.3f", row.TreeTime*1e3),
		)
	}
	tbl.Write(w)
}

// TraceRow is one application's reconfiguration-opportunity summary.
type TraceRow struct {
	App   string
	Procs int
	Op    trace.Opportunity
}

// TraceRows analyzes time-windowed TDC for every application.
func TraceRows(r *Runner, procs int) ([]TraceRow, error) {
	var rows []TraceRow
	for _, app := range apps.Names() {
		st, err := r.Replay(app, procs, 0)
		if err != nil {
			return nil, err
		}
		op, err := st.Opportunity()
		if err != nil {
			return nil, err
		}
		rows = append(rows, TraceRow{App: app, Procs: procs, Op: op})
	}
	return rows, nil
}

// TraceStudy renders the future-work time-windowed TDC analysis.
func TraceStudy(w io.Writer, r *Runner, procs int) error {
	rows, err := TraceRows(r, procs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Time-windowed TDC (future work §6) at P=%d\n", procs)
	tbl := report.NewTable("Code", "Windows", "Max window TDC", "Union TDC", "Mean churn", "Reconfig gain")
	for _, row := range rows {
		tbl.AddRow(
			row.App,
			fmt.Sprintf("%d", row.Op.Windows),
			fmt.Sprintf("%d", row.Op.MaxWindowTDC),
			fmt.Sprintf("%d", row.Op.UnionTDC),
			fmt.Sprintf("%.1f", row.Op.MeanChurn),
			fmt.Sprintf("%d", row.Op.ReconfigurableGain),
		)
	}
	tbl.Write(w)
	return nil
}
