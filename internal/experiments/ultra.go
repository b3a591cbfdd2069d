package experiments

import (
	"fmt"
	"io"
	"os"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/report"
	"github.com/hfast-sim/hfast/internal/topology"
)

// UltraProcs extends the paper's P=64/256 grid to the concurrency the
// title argues for. The sparse graph path makes this grid feasible:
// memory scales with edges, not P², so the ultra rows hold a few hundred
// KB instead of the ~25 MB three dense 1024×1024 matrices would need.
var UltraProcs = []int{1024}

// UltraSizes is the grid Ultra actually renders: UltraProcs by default,
// extended to P=4096 and P=16384 — the region-sharded netsim's target
// scale — when HFAST_TEST_ULTRA=1 opts into the long run. ultraCaps
// leaves out the codes whose profiles are too large there.
func UltraSizes() []int {
	sizes := append([]int{}, UltraProcs...)
	if os.Getenv("HFAST_TEST_ULTRA") != "" {
		sizes = append(sizes, 4096, 16384)
	}
	return sizes
}

// UltraRow is one skeleton analyzed and provisioned at an ultra-scale
// concurrency.
type UltraRow struct {
	App   string
	Procs int
	// Edges is the undirected edge count of the steady-state graph;
	// DenseCells is the P² cell count a dense representation would scan.
	Edges      int
	DenseCells int64
	Stats      topology.TDCStats
	Cmp        hfast.Comparison
}

// UltraRows runs the full analysis-and-provisioning pipeline — profile,
// sparse graph build, TDC, assignment, cost model — for each named app at
// each ultra size, except where ultraCaps leaves the app out.
func UltraRows(r *Runner, appNames []string, sizes []int) ([]UltraRow, error) {
	params := hfast.DefaultParams()
	var rows []UltraRow
	for _, app := range appNames {
		for _, procs := range sizes {
			if ultraCapped(app, procs) {
				continue
			}
			g, err := r.Graph(app, procs)
			if err != nil {
				return nil, err
			}
			cmp, err := r.Comparison(app, procs, 0, params)
			if err != nil {
				return nil, err
			}
			rows = append(rows, UltraRow{
				App:        app,
				Procs:      procs,
				Edges:      g.EdgeCount(),
				DenseCells: int64(procs) * int64(procs),
				Stats:      g.Stats(topology.DefaultCutoff),
				Cmp:        cmp,
			})
		}
	}
	return rows, nil
}

// UltraFabricSizes is the grid the fabric-contention study replays:
// the analysis sizes, extended to P=65536 — the component-parallel
// scheduler's target scale — when HFAST_TEST_ULTRA=1 opts into the long
// run. The analysis grid stops at P=16384, and the contention study is
// the only consumer that scales further.
func UltraFabricSizes() []int {
	sizes := UltraSizes()
	if os.Getenv("HFAST_TEST_ULTRA") != "" {
		sizes = append(sizes, 65536)
	}
	return sizes
}

// ultraCaps is the largest P at which the ultra grid profiles each
// skeleton, and why; a skeleton it does not name runs at every size. Past
// its cap a code's profile does not fit a 2-core, 8 GB box in minutes,
// and the runtime has no timer to end the attempt.
var ultraCaps = map[string]struct {
	procs int
	why   string
}{
	"superlu": {1024, "dense: its profile grows as P^2"},
	"pmemd":   {1024, "dense: its profile grows as P^2"},
	"paratec": {1024, "dense: 1.18 GB of profile at P=1024, over 7.2 GB RSS at P=4096"},
	"gtc":     {4096, "its profile grows ~14.6x per 4x in P: 314 MB at P=4096"},
	"lbmhd":   {16384, "its profile builder spends minutes materializing the traffic"},
}

// ultraCapped reports whether ultraCaps leaves app out at procs.
func ultraCapped(app string, procs int) bool {
	c, ok := ultraCaps[app]
	return ok && procs > c.procs
}

// writeUltraOmitted names each of appNames that ultraCaps leaves out at
// procs, and why.
func writeUltraOmitted(w io.Writer, appNames []string, procs int) {
	for _, app := range appNames {
		if ultraCapped(app, procs) {
			c := ultraCaps[app]
			fmt.Fprintf(w, "(P=%d omits %s, profiled only up to P=%d: %s)\n", procs, app, c.procs, c.why)
		}
	}
}

// UltraFabricAppsAt narrows the replayed skeletons by ultraCaps: past
// P=16384 only the halo skeleton replays — its bounded degree keeps the
// flow count linear in P.
func UltraFabricAppsAt(procs int) []string {
	var names []string
	for _, app := range UltraFabricApps() {
		if !ultraCapped(app, procs) {
			names = append(names, app)
		}
	}
	return names
}

// UltraFabricApps names the skeletons the ultra fabric-contention study
// simulates: the bounded-degree codes, which the incremental engine
// replays in tens of milliseconds at P=1024. The dense codes (superlu,
// pmemd, paratec) are excluded by construction, not by budget: their
// steady-state graphs connect every pair, so the affected set of each
// completion is the whole flow set and the replay degrades to the
// global solver's quadratic behavior (~10 s at P=64, ~2 min at P=128,
// extrapolating past 50 h at P=1024). Their fabric verdict needs no
// simulation — TDC ≈ P−1 in the grid above is the paper's case-iv
// "needs a fat tree" conclusion.
func UltraFabricApps() []string {
	return []string{"cactus", "lbmhd", "gtc"}
}

// Ultra renders the P=1024 grid for all six skeletons, followed by the
// fabric-contention study: the steady-state traffic of UltraFabricApps
// replayed on the HFAST, FCN, and mesh models with the incremental
// event-driven netsim engine.
func Ultra(w io.Writer, r *Runner) error {
	sizes := UltraSizes()
	rows, err := UltraRows(r, apps.Names(), sizes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ultra-scale grid at P=%v (steady state, %dB cutoff)\n", sizes, topology.DefaultCutoff)
	tbl := report.NewTable("Code", "P", "Edges", "Fill", "TDC max", "TDC avg", "Blocks", "Cost ratio")
	for _, row := range rows {
		tbl.AddRow(
			row.App,
			fmt.Sprintf("%d", row.Procs),
			fmt.Sprintf("%d", row.Edges),
			fmt.Sprintf("%.2f%%", 100*float64(2*row.Edges)/float64(row.DenseCells)),
			fmt.Sprintf("%d", row.Stats.Max),
			fmt.Sprintf("%.1f", row.Stats.Avg),
			fmt.Sprintf("%d", row.Cmp.Blocks),
			fmt.Sprintf("%.2f", row.Cmp.Ratio()),
		)
	}
	tbl.Write(w)
	for _, procs := range sizes {
		writeUltraOmitted(w, apps.Names(), procs)
	}

	for _, fprocs := range UltraFabricSizes() {
		frows, err := NetsimRowsFor(r, UltraFabricAppsAt(fprocs), fprocs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nFabric contention at P=%d (per-step traffic, makespan in ms)\n", fprocs)
		writeFabricTable(w, frows)
		writeUltraOmitted(w, UltraFabricApps(), fprocs)
	}
	fmt.Fprintln(w, "(dense codes are omitted: with every pair communicating the incremental")
	fmt.Fprintln(w, " replay has no locality to exploit; their TDC above already settles case iv)")
	return nil
}
