// Package analysis computes the reduced communication metrics the paper
// reports: call-type breakdowns (Figure 2), buffer-size CDFs (Figures 3
// and 4), and the per-application summary rows of Table 3 (call mix
// percentages, median buffer sizes, thresholded TDC, FCN utilization).
package analysis

import (
	"sort"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
	"github.com/hfast-sim/hfast/internal/topology"
)

// CDFPoint is one point of a cumulative buffer-size distribution.
type CDFPoint struct {
	// Bytes is the buffer size.
	Bytes int
	// Pct is the percentage of calls with buffers ≤ Bytes.
	Pct float64
}

// CDF turns a size histogram into a cumulative distribution. The returned
// points are sorted by size and end at 100%.
func CDF(hist []ipm.SizeCount) []CDFPoint {
	var total int64
	for _, sc := range hist {
		total += sc.Count
	}
	if total == 0 {
		return nil
	}
	out := make([]CDFPoint, 0, len(hist))
	var cum int64
	for _, sc := range hist {
		cum += sc.Count
		out = append(out, CDFPoint{Bytes: sc.Bytes, Pct: 100 * float64(cum) / float64(total)})
	}
	return out
}

// PctAtOrBelow returns the percentage of calls with buffers ≤ limit.
func PctAtOrBelow(hist []ipm.SizeCount, limit int) float64 {
	var total, below int64
	for _, sc := range hist {
		total += sc.Count
		if sc.Bytes <= limit {
			below += sc.Count
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(below) / float64(total)
}

// Median returns the weighted median buffer size of a histogram, -1 when
// it is empty.
func Median(hist []ipm.SizeCount) int {
	var total int64
	for _, sc := range hist {
		total += sc.Count
	}
	if total == 0 {
		return -1
	}
	half := (total + 1) / 2
	var cum int64
	for _, sc := range hist {
		cum += sc.Count
		if cum >= half {
			return sc.Bytes
		}
	}
	return hist[len(hist)-1].Bytes
}

// CallShare is one slice of a Figure 2 call-mix pie.
type CallShare struct {
	// Call is the MPI entry point; mpi.Call(-1) labels the "Other" slice.
	Call mpi.Call
	// Count is the number of calls.
	Count int64
	// Pct is the share of all communication calls.
	Pct float64
}

// OtherCall labels the aggregated "Other" slice in a call mix.
const OtherCall = mpi.Call(-1)

// CallMix reproduces Figure 2: the relative share of each call type,
// folding calls below minPct into an "Other" slice. Slices are sorted by
// descending share with Other last.
func CallMix(counts map[mpi.Call]int64, minPct float64) []CallShare {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return nil
	}
	var out []CallShare
	var other int64
	for call, n := range counts {
		pct := 100 * float64(n) / float64(total)
		if pct < minPct {
			other += n
			continue
		}
		out = append(out, CallShare{Call: call, Count: n, Pct: pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Call < out[j].Call
	})
	if other > 0 {
		out = append(out, CallShare{Call: OtherCall, Count: other, Pct: 100 * float64(other) / float64(total)})
	}
	return out
}

// Summary is one application row of the paper's Table 3.
type Summary struct {
	// App and Procs identify the run.
	App   string
	Procs int
	// PTPCallPct is the share of non-collective communication calls;
	// CollCallPct is the collective share (they sum to 100).
	PTPCallPct  float64
	CollCallPct float64
	// MedianPTPBuf and MedianCollBuf are weighted median buffer sizes in
	// bytes (-1 when no such calls happened).
	MedianPTPBuf  int
	MedianCollBuf int
	// TDCMax and TDCAvg are the topological degree of communication at
	// Cutoff (the paper's 2 KB bandwidth-delay product).
	Cutoff int
	TDCMax int
	TDCAvg float64
	// MaxTDC0 and AvgTDC0 are the unthresholded degrees.
	MaxTDC0 int
	AvgTDC0 float64
	// FCNUtil is the average thresholded TDC over P−1: the fraction of a
	// fully connected network the application exercises.
	FCNUtil float64
}

// Summarize computes the Table 3 row for a profile, restricted to entries
// passing the region filter (use ipm.SteadyState to reproduce the paper's
// exclusion of initialization). A malformed profile — non-positive rank
// count or out-of-range peers — yields an error rather than a panic so
// service callers can reject it.
func Summarize(p *ipm.Profile, filter ipm.RegionFilter, cutoff int) (Summary, error) {
	if cutoff <= 0 {
		cutoff = topology.DefaultCutoff
	}
	s := Summary{App: p.App, Procs: p.Procs, Cutoff: cutoff}

	counts := p.CallCounts(filter)
	var total, coll int64
	for call, n := range counts {
		total += n
		if call.IsCollective() {
			coll += n
		}
	}
	if total > 0 {
		s.CollCallPct = 100 * float64(coll) / float64(total)
		s.PTPCallPct = 100 - s.CollCallPct
	}
	s.MedianPTPBuf = Median(p.PTPSizes(filter))
	s.MedianCollBuf = Median(p.CollectiveSizes(filter))

	g, err := topology.FromProfile(p, filter)
	if err != nil {
		return Summary{}, err
	}
	at := g.Stats(cutoff)
	s.TDCMax, s.TDCAvg = at.Max, at.Avg
	at0 := g.Stats(0)
	s.MaxTDC0, s.AvgTDC0 = at0.Max, at0.Avg
	s.FCNUtil = g.FCNUtilization(cutoff)
	return s, nil
}

// Case is a §2.5 hypothesis class.
type Case string

// The four classes of the paper's hypothesis.
const (
	CaseI   Case = "i"   // isotropic, bounded TDC: fits a fixed mesh/torus
	CaseII  Case = "ii"  // anisotropic, bounded TDC: needs an adaptive interconnect
	CaseIII Case = "iii" // bounded average, unbounded max: needs HFAST's flexible pooling
	CaseIV  Case = "iv"  // TDC ≈ P: needs an FCN's full bisection
)

// Classify's thresholds, read off the paper's §2.5 cases.
const (
	// fullFraction is the avg-TDC/(P−1) fraction at or above which a
	// code needs full bisection (case iv).
	fullFraction = 0.6
	// maxOverAvg is the max/avg TDC ratio above which a bounded-average
	// code is case iii rather than i or ii.
	maxOverAvg = 1.6
)

// Classify assigns a profile's communication graph, thresholded at the
// 2 KB default cutoff, to one of the paper's four hypothesis classes.
// meshEmbeds reports whether the thresholded graph embeds isomorphically
// into a mesh or torus; nil means "unknown", which classifies bounded
// isotropic codes as case ii conservatively.
func Classify(g *topology.Graph, meshEmbeds func(*topology.Graph) bool) Case {
	st := g.Stats(topology.DefaultCutoff)
	st0 := g.Stats(0)
	p := float64(g.P)
	if st.Avg >= fullFraction*(p-1) {
		return CaseIV
	}
	// Case iii captures both signatures the paper describes: a maximum
	// degree far above a bounded average (GTC, PMEMD), and a raw degree
	// near P whose bandwidth-relevant part is far smaller (SuperLU).
	if st.Avg > 0 && float64(st.Max) > maxOverAvg*st.Avg {
		return CaseIII
	}
	if float64(st0.Max) >= 0.8*(p-1) && st.Avg < 0.25*(p-1) {
		return CaseIII
	}
	// Bounded and uniform: mesh-embeddable patterns are case i, the rest
	// case ii.
	if meshEmbeds != nil && meshEmbeds(g.Subgraph(topology.DefaultCutoff)) {
		return CaseI
	}
	return CaseII
}
