package experiments

import (
	"fmt"
	"io"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/report"
	"github.com/hfast-sim/hfast/internal/topology"
)

// PlacementRow compares identity and optimized job placement on a torus
// for one application.
type PlacementRow struct {
	App       string
	Procs     int
	Identity  meshtorus.Embedding
	Optimized meshtorus.Embedding
	// CostBefore/CostAfter are the volume-weighted hop totals.
	CostBefore, CostAfter int64
}

// PlacementRows runs the §2.2 placement study: fixed-topology systems
// need careful task placement (here: simulated annealing over rank swaps)
// to approach a good embedding, and even then non-mesh patterns stay
// dilated — whereas HFAST routes every provisioned pair in a constant
// number of switch blocks regardless of placement.
func PlacementRows(r *Runner, procs, iters int) ([]PlacementRow, error) {
	m, err := meshtorus.Baseline(procs)
	if err != nil {
		return nil, err
	}
	var rows []PlacementRow
	for _, app := range apps.Names() {
		g, err := r.Graph(app, procs)
		if err != nil {
			return nil, err
		}
		pl, before, after, err := meshtorus.OptimizePlacement(g, m, 0, iters, 42)
		if err != nil {
			return nil, err
		}
		identity, err := meshtorus.Embed(g, m, topology.DefaultCutoff)
		if err != nil {
			return nil, err
		}
		optimized, err := meshtorus.EmbedPlaced(g, m, pl, topology.DefaultCutoff)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PlacementRow{
			App: app, Procs: procs,
			Identity: identity, Optimized: optimized,
			CostBefore: before, CostAfter: after,
		})
	}
	return rows, nil
}

// Placement renders the placement-optimization study.
func Placement(w io.Writer, r *Runner, procs, iters int) error {
	rows, err := PlacementRows(r, procs, iters)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Task placement on a torus at P=%d (%d annealing steps) vs HFAST\n", procs, iters)
	tbl := report.NewTable("Code",
		"identity dilation (max/avg)", "optimized dilation (max/avg)",
		"hop volume saved", "HFAST")
	for _, row := range rows {
		saved := "0%"
		if row.CostBefore > 0 {
			saved = fmt.Sprintf("%.0f%%", 100*(1-float64(row.CostAfter)/float64(row.CostBefore)))
		}
		tbl.AddRow(
			row.App,
			fmt.Sprintf("%d / %.2f", row.Identity.MaxDilation, row.Identity.AvgDilation),
			fmt.Sprintf("%d / %.2f", row.Optimized.MaxDilation, row.Optimized.AvgDilation),
			saved,
			"2 SB hops, any placement",
		)
	}
	tbl.Write(w)
	fmt.Fprintln(w, "(mesh systems must re-place or migrate tasks to approach this; HFAST re-points circuits)")
	return nil
}
