package experiments

import (
	"context"
	"fmt"
	"io"

	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/netsim"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/report"
	"github.com/hfast-sim/hfast/internal/topology"
	"github.com/hfast-sim/hfast/internal/trace"
)

// ReplanRow compares two ways of spending the same switch hardware on
// one application run: a single static plan provisioned for the whole
// run's union traffic, versus re-provisioning at every detected phase
// boundary. The hardware is held constant at what the replanner needs —
// each node's block budget is its busiest phase's block count — so a
// static plan for a migrating workload cannot admit the union of all
// phases' partners and spills the excess onto the shared collective
// tree, while the replanned schedule pays a settling stall per boundary
// instead.
type ReplanRow struct {
	App    string
	Procs  int
	Phases int
	// StaticBlocks is the budgeted static plan's block pool;
	// ReplanMaxBlocks the largest per-phase pool (equal by construction
	// of the budget, up to packing slack).
	StaticBlocks    int
	ReplanMaxBlocks int
	// StaticDropped counts union edges above the cutoff the static plan
	// could not admit within the budget.
	StaticDropped int
	// StaticMakespan and ReplanMakespan are summed per-window replay
	// makespans in seconds; ReplanMakespan includes one settling stall
	// per phase boundary.
	StaticMakespan float64
	ReplanMakespan float64
	// Reconfigs is the number of phase boundaries (beyond phase 0);
	// PortMoves their total diff cost; DiffSaved the mean fraction of a
	// from-scratch rewire the diffs avoided.
	Reconfigs int
	PortMoves int
	DiffSaved float64
}

// ReplanRows runs the study for the given apps at one concurrency.
// Detection, budgeting, and simulation are all deterministic.
func ReplanRows(r *Runner, appNames []string, procs, cutoff, blockSize int) ([]ReplanRow, error) {
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	if blockSize == 0 {
		blockSize = hfast.DefaultBlockSize
	}
	var rows []ReplanRow
	for _, app := range appNames {
		row, err := replanOne(r, app, procs, cutoff, blockSize)
		if err != nil {
			return nil, fmt.Errorf("replan study %s P=%d: %w", app, procs, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func replanOne(r *Runner, app string, procs, cutoff, blockSize int) (ReplanRow, error) {
	row := ReplanRow{App: app, Procs: procs}
	st, err := r.Replay(app, procs, cutoff)
	if err != nil {
		return row, err
	}
	ws := st.Windows
	if len(ws) == 0 {
		return row, fmt.Errorf("no step windows")
	}
	phases := st.Phases()
	row.Phases = len(phases)

	// Per-phase plans, the per-node budget they imply, and the diff chain.
	assigns := make([]*hfast.Assignment, len(phases))
	budget := make([]int, procs)
	var prev *hfast.Assignment
	for pi, ph := range phases {
		a, diff, err := hfast.PlanDiff(prev, ph.Graph, cutoff, blockSize)
		if err != nil {
			return row, err
		}
		assigns[pi] = a
		prev = a
		if a.TotalBlocks > row.ReplanMaxBlocks {
			row.ReplanMaxBlocks = a.TotalBlocks
		}
		for i, b := range a.Blocks {
			if b > budget[i] {
				budget[i] = b
			}
		}
		if pi > 0 {
			row.Reconfigs++
			row.PortMoves += diff.PortMoves
			row.DiffSaved += diff.Saved()
		}
	}
	if row.Reconfigs > 0 {
		row.DiffSaved /= float64(row.Reconfigs)
	}

	// The static plan provisions the union of all phases under the same
	// per-node hardware the replanner used.
	union := topology.MustGraph(procs)
	for _, ph := range phases {
		union.Add(ph.Graph)
	}
	static, err := hfast.AssignWithBudget(union, cutoff, blockSize, budget)
	if err != nil {
		return row, err
	}
	row.StaticBlocks = static.TotalBlocks
	admitted := 0
	for i := range static.Partners {
		admitted += len(static.Partners[i])
	}
	row.StaticDropped = len(union.Edges(cutoff)) - admitted/2

	// Replay every window on both fabrics. Spilled or sub-threshold flows
	// ride the shared collective tree concurrently with the circuit
	// traffic, so a window costs the slower of the two. Each replay is
	// keyed by the whole plan and window, so a repeated window — or a
	// phase plan equal to the static one — simulates once; the windows
	// still sum in order.
	replay := func(a *hfast.Assignment, g *topology.Graph) (float64, error) {
		in := struct {
			Plan   *hfast.Assignment
			Window *topology.Graph
		}{a, g}
		v, _, err := r.Pipeline().Derived(context.Background(), "replan-replay", in, func(context.Context) (any, error) {
			circuits, _, tree, err := pipeline.ReplayHFAST(netsim.NewHFASTNet(a, netsim.DefaultLinkParams()), procs, pipeline.AppendFlows(nil, g, 1))
			return max(circuits, tree), err
		})
		if err != nil {
			return 0, err
		}
		return v.(float64), nil
	}
	for k, w := range ws {
		st, err := replay(static, w.Graph)
		if err != nil {
			return row, err
		}
		row.StaticMakespan += st
		rt, err := replay(assigns[phaseOf(phases, k)], w.Graph)
		if err != nil {
			return row, err
		}
		row.ReplanMakespan += rt
	}
	row.ReplanMakespan += float64(row.Reconfigs) * hfast.SettleTime.Seconds()
	return row, nil
}

// phaseOf returns the phase index owning window k.
func phaseOf(phases []trace.Phase, k int) int {
	for pi, ph := range phases {
		if k >= ph.Start && k < ph.End {
			return pi
		}
	}
	return len(phases) - 1
}

// Replan renders the static-vs-replanned comparison for the six paper
// apps plus the adaptive AMR skeleton. Statically-communicating apps
// collapse to one phase (both columns equal by construction); the
// migrating workload is where per-phase replanning wins.
func Replan(w io.Writer, r *Runner, procs int) error {
	names := append(append([]string{}, PaperApps...), "amr")
	rows, err := ReplanRows(r, names, procs, 0, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Static plan vs per-phase replanning at P=%d (equal per-node hardware)\n", procs)
	tbl := report.NewTable("Code", "Phases", "Static blocks", "Replan max blocks",
		"Dropped edges", "Static makespan", "Replanned (incl. settle)", "Speedup", "Reconfig moves", "Diff saved")
	for _, row := range rows {
		speed := 1.0
		if row.ReplanMakespan > 0 {
			speed = row.StaticMakespan / row.ReplanMakespan
		}
		tbl.AddRow(
			row.App,
			fmt.Sprintf("%d", row.Phases),
			fmt.Sprintf("%d", row.StaticBlocks),
			fmt.Sprintf("%d", row.ReplanMaxBlocks),
			fmt.Sprintf("%d", row.StaticDropped),
			fmt.Sprintf("%.4fs", row.StaticMakespan),
			fmt.Sprintf("%.4fs", row.ReplanMakespan),
			fmt.Sprintf("%.2fx", speed),
			fmt.Sprintf("%d", row.PortMoves),
			fmt.Sprintf("%.0f%%", 100*row.DiffSaved),
		)
	}
	tbl.Write(w)
	fmt.Fprintln(w, "(static plans get the replanner's per-node block budget; dropped edges ride the shared collective tree)")
	return nil
}
