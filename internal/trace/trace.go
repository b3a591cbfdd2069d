// Package trace implements the paper's future-work proposal (§6): a
// time-windowed topological degree of communication. By computing the TDC
// per application step instead of over the whole run, it exposes phases
// whose partner sets differ — exactly the windows in which an HFAST
// circuit switch could be reconfigured mid-run to track the application.
package trace

import (
	"fmt"

	"github.com/hfast-sim/hfast/internal/topology"
)

// Window is the communication activity of one profiling region (one
// application step).
type Window struct {
	// Region is the region name ("step003").
	Region string
	// Graph is the traffic graph of this window alone.
	Graph *topology.Graph
	// Stats is the TDC at the analysis cutoff.
	Stats topology.TDCStats
}

// Churn measures how much the thresholded partner-set changes between two
// windows: the number of edges present in exactly one of them.
func Churn(a, b *topology.Graph, cutoff int) int {
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	_, one := edgeDiff(a, b, cutoff)
	return one
}

// edgeDiff compares two graphs' thresholded edge sets by one merge walk
// per rank i over both graphs' sorted partners above i, the (i, j) order
// Edges lists them in, without listing them: both counts the edges in
// either set that are also in the other, one those in exactly one of them.
func edgeDiff(a, b *topology.Graph, cutoff int) (both, one int) {
	for i := range max(a.P, b.P) {
		ea, eb := a.Adj(i), b.Adj(i)
		for len(ea) > 0 || len(eb) > 0 {
			switch {
			case len(ea) > 0 && !counted(ea[0], i, cutoff):
				ea = ea[1:]
			case len(eb) > 0 && !counted(eb[0], i, cutoff):
				eb = eb[1:]
			case len(eb) == 0 || len(ea) > 0 && ea[0].To < eb[0].To:
				one++
				ea = ea[1:]
			case len(ea) == 0 || eb[0].To < ea[0].To:
				one++
				eb = eb[1:]
			default:
				both++
				ea, eb = ea[1:], eb[1:]
			}
		}
	}
	return both, one
}

// counted reports whether rank i's edge e is an edge (i, e.To) of the
// thresholded set, listed from its lower end.
func counted(e topology.Edge, i, cutoff int) bool {
	return e.To > i && e.Msgs > 0 && e.MaxMsg >= cutoff
}

// Opportunity summarizes whether runtime reconfiguration would help an
// application: stable windows mean one provisioning suffices; high churn
// with low per-window degree means the fabric can track phases with few
// port moves.
type Opportunity struct {
	// Windows is the number of steps analyzed.
	Windows int
	// MaxWindowTDC is the largest per-window max degree — what the fabric
	// must provision at any instant.
	MaxWindowTDC int
	// UnionTDC is the max degree of the union graph — what a static
	// provisioning must support.
	UnionTDC int
	// MeanChurn is the average edge churn between consecutive windows.
	MeanChurn float64
	// ReconfigurableGain is UnionTDC − MaxWindowTDC: blocks a
	// reconfigurable fabric saves over a statically provisioned one.
	ReconfigurableGain int
}

// AnalyzeWindows computes the reconfiguration opportunity from a run's
// folded windows (StreamState.Opportunity memoizes it per snapshot). The
// windows carry their own rank count (each Graph.P); procs is the
// caller's idea of the run size, and a mismatch is an error rather than
// a silently wrong union graph.
func AnalyzeWindows(procs int, ws []Window, cutoff int) (Opportunity, error) {
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	for i := range ws {
		if ws[i].Graph != nil && ws[i].Graph.P != procs {
			return Opportunity{}, fmt.Errorf("trace: window %q spans %d ranks but caller claims %d procs",
				ws[i].Region, ws[i].Graph.P, procs)
		}
	}
	op := Opportunity{Windows: len(ws)}
	if len(ws) == 0 {
		return op, nil
	}
	union, err := topology.NewGraph(procs)
	if err != nil {
		return Opportunity{}, err
	}
	churnSum := 0
	for i, w := range ws {
		if w.Stats.Max > op.MaxWindowTDC {
			op.MaxWindowTDC = w.Stats.Max
		}
		union.Add(w.Graph)
		if i > 0 {
			churnSum += Churn(ws[i-1].Graph, w.Graph, cutoff)
		}
	}
	op.UnionTDC = union.Stats(cutoff).Max
	if len(ws) > 1 {
		op.MeanChurn = float64(churnSum) / float64(len(ws)-1)
	}
	op.ReconfigurableGain = op.UnionTDC - op.MaxWindowTDC
	return op, nil
}
