package experiments

import (
	"fmt"
	"io"

	"github.com/hfast-sim/hfast/internal/analysis"
	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/bdp"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/report"
	"github.com/hfast-sim/hfast/internal/topology"
)

// Table1 renders the bandwidth-delay products (paper Table 1), computed
// from published link parameters, against the values the paper prints.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: bandwidth-delay products per interconnect")
	tbl := report.NewTable("System", "Technology", "MPI latency", "Peak BW", "BDP (computed)", "BDP (paper)")
	for _, ic := range bdp.Table1 {
		tbl.AddRow(
			ic.System,
			ic.Technology,
			fmt.Sprintf("%.1fus", ic.LatencyUS),
			fmt.Sprintf("%.1fGB/s", ic.BandwidthMBs/1000),
			fmt.Sprintf("%.1fKB", ic.ProductKB()),
			fmt.Sprintf("%.1fKB", bdp.PaperProductsKB[ic.System]),
		)
	}
	tbl.Write(w)
	fmt.Fprintf(w, "threshold adopted: %d bytes (best product ≈ %.1f KB)\n",
		bdp.TargetThreshold, bdp.BestProduct()/1000)
}

// Table2 renders the application overview (paper Table 2).
func Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: scientific applications examined")
	tbl := report.NewTable("Name", "Lines", "Discipline", "Problem and Method", "Structure")
	for _, in := range apps.Registry {
		tbl.AddRow(in.Name, fmt.Sprintf("%d", in.PaperLines), in.Discipline, in.Problem, in.Structure)
	}
	tbl.Write(w)
}

// Table3Rows computes the summary rows for every application at the
// paper's two sizes.
func Table3Rows(r *Runner) ([]analysis.Summary, error) {
	var rows []analysis.Summary
	for _, app := range apps.Names() {
		for _, procs := range PaperProcs {
			p, err := r.Profile(app, procs)
			if err != nil {
				return nil, err
			}
			sum, err := analysis.Summarize(p, ipm.SteadyState, topology.DefaultCutoff)
			if err != nil {
				return nil, err
			}
			rows = append(rows, sum)
		}
	}
	return rows, nil
}

// Table3 renders the summary of code characteristics (paper Table 3).
func Table3(w io.Writer, r *Runner) error {
	rows, err := Table3Rows(r)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 3: summary of code characteristics (steady state, 2KB cutoff)")
	report.SummaryTable(w, rows)
	return nil
}

// CaseResult is one application's hypothesis classification.
type CaseResult struct {
	App      string
	Procs    int
	Got      analysis.Case
	Expected string
}

// CasesRows classifies every application against the paper's hypothesis
// (§2.5 / §5.2), using a mesh-embedding oracle for the case i/ii split.
func CasesRows(r *Runner, procs int) ([]CaseResult, error) {
	meshEmbeds := func(g *topology.Graph) bool {
		m, err := meshtorus.Baseline(g.P)
		if err != nil {
			return false
		}
		emb, err := meshtorus.Embed(g, m, 1)
		return err == nil && emb.Isomorphic
	}
	var out []CaseResult
	for _, in := range apps.Registry {
		g, err := r.Graph(in.Name, procs)
		if err != nil {
			return nil, err
		}
		got := analysis.Classify(g, meshEmbeds)
		out = append(out, CaseResult{App: in.Name, Procs: procs, Got: got, Expected: in.Case})
	}
	return out, nil
}

// Cases renders the classification table.
func Cases(w io.Writer, r *Runner, procs int) error {
	rows, err := CasesRows(r, procs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Hypothesis classification (§5.2) at P=%d\n", procs)
	tbl := report.NewTable("Code", "Classified", "Paper", "Agrees")
	for _, c := range rows {
		tbl.AddRow(c.App, string(c.Got), c.Expected, fmt.Sprintf("%v", string(c.Got) == c.Expected))
	}
	tbl.Write(w)
	return nil
}
