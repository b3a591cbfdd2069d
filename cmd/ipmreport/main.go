// Command ipmreport renders a JSON communication profile (produced by
// hfastsim) as a human-readable IPM-style report: call mix, buffer-size
// CDFs, the communication-topology heatmap, the concurrency-with-cutoff
// sweep, and the Table 3 summary row — plus the HFAST provisioning the
// traffic would need.
//
// Usage:
//
//	hfastsim -app superlu -p 256 | ipmreport
//	ipmreport -i gtc256.json -region steady
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/hfast-sim/hfast/internal/analysis"
	"github.com/hfast-sim/hfast/internal/bdp"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/report"
	"github.com/hfast-sim/hfast/internal/topology"
)

func main() {
	in := flag.String("i", "-", "input profile JSON (- for stdin)")
	region := flag.String("region", "steady", "regions to analyze: steady, all, init, or a region name")
	cutoff := flag.Int("cutoff", topology.DefaultCutoff, "TDC message-size cutoff in bytes")
	flag.Parse()
	if flag.NArg() > 0 {
		usageErr(fmt.Sprintf("unexpected argument %q", flag.Arg(0)))
	}
	// The pipeline's own cutoff rule, checked before anything prints.
	if _, err := (pipeline.FoldSeed{Cutoff: *cutoff}).Normalize(); err != nil {
		usageErr(err.Error())
	}

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			usageErr(err.Error())
		}
		defer f.Close()
		src = f
	}
	prof, err := ipm.ReadJSON(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipmreport: %v\n", err)
		os.Exit(1)
	}

	// One filter serves the raw profile series (call mix, CDFs) and keys
	// the content-addressed pipeline stages.
	filter := ipm.Region(*region)
	if f := ipm.RegionFilter(*region); f == ipm.SteadyState || f == ipm.AllRegions {
		filter = f
	}

	w := os.Stdout
	fmt.Fprintf(w, "# IPM report: %s, P=%d, params=%v\n\n", prof.App, prof.Procs, prof.Params)

	report.CallMix(w, "Call mix", analysis.CallMix(prof.CallCounts(filter), 1.0))
	if ct := prof.CommTime(filter); ct > 0 {
		fmt.Fprintf(w, " modeled time in MPI: %.3f ms total across ranks\n", ct*1e3)
	}
	fmt.Fprintln(w)

	report.CDFPlot(w, "Point-to-point buffer sizes", analysis.CDF(prof.PTPSizes(filter)), bdp.TargetThreshold)
	fmt.Fprintln(w)
	report.CDFPlot(w, "Collective buffer sizes", analysis.CDF(prof.CollectiveSizes(filter)), bdp.TargetThreshold)
	fmt.Fprintln(w)

	// Graph and comparison come from the shared stage chain: the graph
	// artifact built for the heatmap is the same one the assignment and
	// cost model below key off.
	pipe := pipeline.New(pipeline.Options{})
	ref, err := pipeline.Supplied(prof)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipmreport: %v\n", err)
		os.Exit(1)
	}
	g, _, err := pipe.Graph(context.Background(), ref, filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipmreport: topology: %v\n", err)
		os.Exit(1)
	}
	report.Heatmap(w, "Communication volume", g, 32)
	fmt.Fprintln(w)

	series := map[int][]topology.TDCStats{prof.Procs: g.Sweep(nil)}
	report.TDCSweep(w, "Concurrency with cutoff", series)
	fmt.Fprintln(w)

	sum, err := analysis.Summarize(prof, filter, *cutoff)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipmreport: summary: %v\n", err)
		os.Exit(1)
	}
	report.SummaryTable(w, []analysis.Summary{sum})
	fmt.Fprintln(w)

	cmp, _, err := pipe.Comparison(context.Background(), ref, filter, *cutoff, hfast.DefaultParams())
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipmreport: provisioning: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "HFAST provisioning: %d blocks (%.2f/node), worst route %d SB hops / %d crossings\n",
		cmp.Blocks, float64(cmp.Blocks)/float64(prof.Procs), cmp.MaxRoute.SBHops, cmp.MaxRoute.Crossings)
	fmt.Fprintf(w, "cost: HFAST %.0f vs fat-tree %.0f (ratio %.2f)\n",
		cmp.HFAST.Total(), cmp.FatTree.Total(), cmp.Ratio())
}

// usageErr reports a usage-class mistake (bad invocation rather than a
// failed run): message plus flag usage, exit 2.
func usageErr(msg string) {
	fmt.Fprintf(os.Stderr, "ipmreport: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}
