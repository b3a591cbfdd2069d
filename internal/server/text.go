package server

import (
	"fmt"
	"io"

	"github.com/hfast-sim/hfast/internal/pipeline"
)

// writePlanText renders a provisioning plan the way cmd/hfastplan does:
// a deterministic plain-text summary for terminals and curl.
func writePlanText(w io.Writer, p *pipeline.Plan) {
	a := p.Assignment
	u, max := p.Summary.Ports, p.Summary.MaxRoute
	fmt.Fprintf(w, "HFAST wiring plan: %s P=%d cutoff=%dB block=%d\n", p.App, p.Procs, a.Cutoff, a.BlockSize)
	fmt.Fprintf(w, "  active blocks:   %d total (%.2f per node)\n", a.TotalBlocks, float64(a.TotalBlocks)/float64(a.P))
	fmt.Fprintf(w, "  active ports:    %d used of %d (%.1f%% utilization)\n", u.UsedActivePorts, u.ActivePorts, 100*u.Utilization())
	fmt.Fprintf(w, "  passive ports:   %d\n", u.PassivePorts)
	fmt.Fprintf(w, "  circuit switch:  %d ports, %d lit (%d circuits)\n", p.Summary.SwitchPorts, p.Summary.LitPorts, p.Summary.LitPorts/2)
	fmt.Fprintf(w, "  worst route:     %d SB hops, %d crossings\n", max.SBHops, max.Crossings)
}

// writeCompareText renders a baseline comparison as a plain-text table.
func writeCompareText(w io.Writer, c *CompareResponse) {
	fmt.Fprintf(w, "HFAST vs baselines: %s P=%d cutoff=%dB block=%d\n", c.App, c.Procs, c.Cutoff, c.BlockSize)
	fmt.Fprintf(w, "  %-10s %10s %10s %10s %10s %12s\n", "design", "active", "passive", "collective", "nic", "total")
	row := func(name string, cr CostResponse) {
		fmt.Fprintf(w, "  %-10s %10.1f %10.1f %10.1f %10.1f %12.1f\n", name, cr.Active, cr.Passive, cr.Collective, cr.NIC, cr.Total)
	}
	row("hfast", c.HFAST)
	row("fat-tree", c.FatTree)
	fmt.Fprintf(w, "  ratio (hfast/fat-tree): %.3f\n", c.Ratio)
	fmt.Fprintf(w, "  fat-tree: %d layers, %d ports/proc\n", c.FatTreeLayers, c.FatTreePortsPerProc)
	fmt.Fprintf(w, "  mesh %v: cost %.1f\n", c.Mesh.Dims, c.Mesh.Cost)
	if c.ICN.Error != "" {
		fmt.Fprintf(w, "  icn (k=%d): infeasible: %s\n", c.ICN.K, c.ICN.Error)
	} else {
		fmt.Fprintf(w, "  icn (k=%d): fits=%v max-contraction=%d avg=%.2f oversubscribed=%d worst-share=%.2f\n",
			c.ICN.K, c.ICN.Fits, c.ICN.MaxContraction, c.ICN.AvgContraction, c.ICN.OversubscribedEdges, c.ICN.WorstShare)
	}
}
