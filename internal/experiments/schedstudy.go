package experiments

import (
	"fmt"
	"io"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/report"
	"github.com/hfast-sim/hfast/internal/sched"
)

// SchedComparison is the batch-queue study on one machine size.
type SchedComparison struct {
	Capacity int
	Jobs     int
	Flex     sched.Result
	Mesh     sched.Result
}

// SchedRows simulates the same synthetic job trace under flexible (HFAST/
// FCN) and contiguous-mesh allocation at several machine sizes.
func SchedRows(sizes []int, jobsPerRun int, seed uint64) ([]SchedComparison, error) {
	var out []SchedComparison
	for _, capacity := range sizes {
		jobs := sched.SyntheticJobs(jobsPerRun, capacity, seed)
		flex, err := sched.Simulate(jobs, sched.NewFlexAllocator(capacity))
		if err != nil {
			return nil, err
		}
		dims := meshtorus.NearCube(capacity, 3)
		ma, err := sched.NewMeshAllocator(dims[0], dims[1], dims[2])
		if err != nil {
			return nil, err
		}
		mres, err := sched.Simulate(jobs, ma)
		if err != nil {
			return nil, err
		}
		out = append(out, SchedComparison{Capacity: capacity, Jobs: jobsPerRun, Flex: flex, Mesh: mres})
	}
	return out, nil
}

// Sched renders the job-packing comparison (§1/§2.5: HFAST "obviates the
// need for job-packing by the batch system").
func Sched(w io.Writer) error {
	rows, err := SchedRows([]int{64, 256, 1024}, 120, 7)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Batch scheduling: flexible placement (HFAST/FCN) vs contiguous sub-mesh")
	tbl := report.NewTable("Nodes", "Jobs",
		"flex wait (avg/max)", "mesh wait (avg/max)",
		"flex util", "mesh util", "mesh frag. blocks")
	for _, row := range rows {
		tbl.AddRow(
			fmt.Sprintf("%d", row.Capacity),
			fmt.Sprintf("%d", row.Jobs),
			fmt.Sprintf("%.1f / %.1f", row.Flex.AvgWait, row.Flex.MaxWait),
			fmt.Sprintf("%.1f / %.1f", row.Mesh.AvgWait, row.Mesh.MaxWait),
			fmt.Sprintf("%.0f%%", 100*row.Flex.Utilization),
			fmt.Sprintf("%.0f%%", 100*row.Mesh.Utilization),
			fmt.Sprintf("%d", row.Mesh.BlockedWithFreeNodes),
		)
	}
	tbl.Write(w)
	fmt.Fprintln(w, "(frag. blocks = times the mesh queue head stalled although enough nodes were free)")
	return nil
}

// FaultRow is one application's failure study.
type FaultRow struct {
	App    string
	Report sched.FaultReport
}

// FaultRows kills a deterministic set of nodes and compares the mesh and
// HFAST impact for every application at the given size.
func FaultRows(r *Runner, procs, failures int) ([]FaultRow, error) {
	m, err := meshtorus.Baseline(procs)
	if err != nil {
		return nil, err
	}
	var failed []int
	for i := 0; i < failures; i++ {
		// Spread failures deterministically.
		failed = append(failed, (i*procs/failures+procs/7)%procs)
	}
	var rows []FaultRow
	for _, app := range apps.Names() {
		g, err := r.Graph(app, procs)
		if err != nil {
			return nil, err
		}
		rep, err := sched.FaultImpact(g, m, failed, hfast.DefaultBlockSize)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FaultRow{App: app, Report: rep})
	}
	return rows, nil
}

// Faults renders the node-failure comparison (§1: failures in a
// low-degree network are far more disruptive than in an FCN/HFAST).
func Faults(w io.Writer, r *Runner, procs, failures int) error {
	rows, err := FaultRows(r, procs, failures)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Node-failure impact at P=%d with %d failed nodes\n", procs, failures)
	tbl := report.NewTable("Code", "Surviving edges",
		"mesh cut", "mesh detour (max/avg)", "HFAST worst route", "HFAST blocks freed")
	for _, row := range rows {
		rep := row.Report
		tbl.AddRow(
			row.App,
			fmt.Sprintf("%d", rep.SurvivingEdges),
			fmt.Sprintf("%d", rep.MeshDisconnected),
			fmt.Sprintf("%.2f / %.2f", rep.MeshMaxDetour, rep.MeshAvgDetour),
			fmt.Sprintf("%d hops", rep.HFASTMaxRoute.SBHops),
			fmt.Sprintf("%d", rep.HFASTBlocksFreed),
		)
	}
	tbl.Write(w)
	fmt.Fprintln(w, "(HFAST routes never stretch: failed nodes simply return their blocks to the pool)")
	return nil
}
