// Package topology derives communication-topology metrics from profiled
// point-to-point traffic: the communication graph behind the paper's
// per-application heatmaps, and the topological degree of communication
// (TDC) — the number of distinct partners per rank — including the
// bandwidth-delay thresholding sweep of the "Concurrency with Cutoff"
// figures.
//
// The paper's central measurement is that these graphs are sparse: TDC
// stays bounded as P grows for every code but the case-iv outliers. The
// graph is therefore stored as a per-rank compressed adjacency (sorted
// partner slices carrying per-edge volume, message count, and largest
// message) rather than dense P×P matrices, so building and sweeping a
// P=4096 graph costs O(E) memory instead of O(P²). Builds, degree scans
// and sweeps are single passes over the ranks: linear in E, they cost
// nothing next to the profile run that produced the traffic.
package topology

import (
	"fmt"
	"sort"

	"github.com/hfast-sim/hfast/internal/ipm"
)

// DefaultCutoff is the paper's 2 KB bandwidth-delay-product threshold:
// messages below it are latency-bound and do not benefit from a dedicated
// circuit.
const DefaultCutoff = 2048

// Edge is one adjacency entry of a rank: the accumulated traffic between
// the rank and a single partner. Links are bidirectional (as the paper
// assumes), so the same totals appear on both endpoints' lists.
type Edge struct {
	// To is the partner rank.
	To int
	// Vol is the total bytes exchanged between the two ranks.
	Vol int64
	// Msgs is the number of messages exchanged.
	Msgs int64
	// MaxMsg is the largest single message exchanged.
	MaxMsg int
}

// Graph is the undirected communication graph of an application run,
// stored as per-rank compressed sparse adjacency. Each rank's partner
// slice is kept sorted by partner id at all times, so Partners and the
// cutoff sweeps never re-sort.
type Graph struct {
	// P is the number of ranks.
	P int
	// adj[i] lists rank i's partners in increasing id order.
	adj [][]Edge
}

// NewGraph allocates an empty graph over p ranks, rejecting non-positive
// sizes (a malformed profile must surface as an error, not a panic, so
// the hfastd service can 400 it).
func NewGraph(p int) (*Graph, error) {
	if p <= 0 {
		return nil, fmt.Errorf("topology: graph size must be positive, got %d", p)
	}
	return &Graph{P: p, adj: make([][]Edge, p)}, nil
}

// MustGraph is NewGraph for statically-known sizes (tests, generators);
// it panics on invalid input instead of returning an error.
func MustGraph(p int) *Graph {
	g, err := NewGraph(p)
	if err != nil {
		panic(err)
	}
	return g
}

// AddTraffic records traffic from src to dst (and symmetrically),
// rejecting out-of-range ranks. Self-traffic is ignored: it does not use
// the interconnect.
func (g *Graph) AddTraffic(src, dst int, msgs, bytes int64, maxMsg int) error {
	if src < 0 || src >= g.P || dst < 0 || dst >= g.P {
		return fmt.Errorf("topology: pair (%d,%d) out of range [0,%d)", src, dst, g.P)
	}
	if src == dst {
		return nil
	}
	g.addHalf(src, dst, msgs, bytes, maxMsg)
	g.addHalf(dst, src, msgs, bytes, maxMsg)
	return nil
}

// addHalf merges traffic into i's adjacency slice, keeping it sorted.
func (g *Graph) addHalf(i, j int, msgs, bytes int64, maxMsg int) {
	es := g.adj[i]
	k := sort.Search(len(es), func(x int) bool { return es[x].To >= j })
	if k < len(es) && es[k].To == j {
		es[k].Vol += bytes
		es[k].Msgs += msgs
		if maxMsg > es[k].MaxMsg {
			es[k].MaxMsg = maxMsg
		}
		return
	}
	es = append(es, Edge{})
	copy(es[k+1:], es[k:])
	es[k] = Edge{To: j, Vol: bytes, Msgs: msgs, MaxMsg: maxMsg}
	g.adj[i] = es
}

// Add folds src's traffic into g and returns g. Edges that carry no
// messages are dropped, so a union never stores a pair nobody used. src
// must span no more ranks than g.
func (g *Graph) Add(src *Graph) *Graph {
	src.ForEachEdge(func(i, j int, e Edge) {
		if e.Msgs > 0 {
			g.addHalf(i, j, e.Msgs, e.Vol, e.MaxMsg)
			g.addHalf(j, i, e.Msgs, e.Vol, e.MaxMsg)
		}
	})
	return g
}

// Clone returns a deep copy of g, less its zero-message edges. The copy's
// edges are one block cut into per-rank slices of exactly their length,
// so the first partner a rank gains moves that rank's slice out of the
// block instead of growing into its neighbour's.
func (g *Graph) Clone() *Graph {
	c := &Graph{P: g.P, adj: make([][]Edge, g.P)}
	block := make([]Edge, 0, 2*g.EdgeCount()) // each edge is stored at both ends
	for i, es := range g.adj {
		from := len(block)
		for _, e := range es {
			if e.Msgs > 0 {
				block = append(block, e)
			}
		}
		if to := len(block); to > from {
			c.adj[i] = block[from:to:to]
		}
	}
	return c
}

// find returns rank i's edge toward j, nil when absent or out of range.
func (g *Graph) find(i, j int) *Edge {
	if i < 0 || i >= g.P {
		return nil
	}
	es := g.adj[i]
	k := sort.Search(len(es), func(x int) bool { return es[x].To >= j })
	if k < len(es) && es[k].To == j {
		return &es[k]
	}
	return nil
}

// Vol returns the total bytes exchanged between i and j (0 when the pair
// never communicated).
func (g *Graph) Vol(i, j int) int64 {
	if e := g.find(i, j); e != nil {
		return e.Vol
	}
	return 0
}

// Msgs returns the number of messages exchanged between i and j.
func (g *Graph) Msgs(i, j int) int64 {
	if e := g.find(i, j); e != nil {
		return e.Msgs
	}
	return 0
}

// MaxMsg returns the largest single message exchanged between i and j.
func (g *Graph) MaxMsg(i, j int) int {
	if e := g.find(i, j); e != nil {
		return e.MaxMsg
	}
	return 0
}

// Connected reports whether i and j exchanged at least one message whose
// largest size meets the cutoff — the edge predicate every thresholded
// metric uses.
func (g *Graph) Connected(i, j, cutoff int) bool {
	e := g.find(i, j)
	return e != nil && e.Msgs > 0 && e.MaxMsg >= cutoff
}

// Adj returns rank i's adjacency slice, sorted by partner id. The slice
// is shared with the graph: callers must not mutate it.
func (g *Graph) Adj(i int) []Edge {
	if i < 0 || i >= g.P {
		return nil
	}
	return g.adj[i]
}

// ForEachEdge calls fn once per stored undirected edge (i < j), in
// increasing (i, j) order. Every recorded pair is visited regardless of
// message count or cutoff; callers filter on the Edge fields.
func (g *Graph) ForEachEdge(fn func(i, j int, e Edge)) {
	for i, es := range g.adj {
		for _, e := range es {
			if e.To > i {
				fn(i, e.To, e)
			}
		}
	}
}

// FromPairs builds a graph over p ranks from accumulated pair traffic,
// validating every pair before committing. The merge is commutative, so
// the result is identical to an AddTraffic loop.
func FromPairs(p int, pairs []ipm.PairTraffic) (*Graph, error) {
	g, err := NewGraph(p)
	if err != nil {
		return nil, err
	}
	for _, pt := range pairs {
		if pt.Src < 0 || pt.Src >= p || pt.Dst < 0 || pt.Dst >= p {
			return nil, fmt.Errorf("topology: pair (%d,%d) out of range [0,%d)", pt.Src, pt.Dst, p)
		}
	}
	// Bucket pair indices per endpoint rank, then build each rank's sorted
	// slice independently.
	counts := make([]int, p)
	for _, pt := range pairs {
		if pt.Src != pt.Dst {
			counts[pt.Src]++
			counts[pt.Dst]++
		}
	}
	buckets := make([][]int32, p)
	for i, c := range counts {
		if c > 0 {
			buckets[i] = make([]int32, 0, c)
		}
	}
	for pi, pt := range pairs {
		if pt.Src != pt.Dst {
			buckets[pt.Src] = append(buckets[pt.Src], int32(pi))
			buckets[pt.Dst] = append(buckets[pt.Dst], int32(pi))
		}
	}
	for r := 0; r < p; r++ {
		if len(buckets[r]) == 0 {
			continue
		}
		es := make([]Edge, 0, len(buckets[r]))
		for _, pi := range buckets[r] {
			pt := pairs[pi]
			other := pt.Dst
			if other == r {
				other = pt.Src
			}
			es = append(es, Edge{To: other, Vol: pt.Bytes, Msgs: pt.Msgs, MaxMsg: pt.MaxMsg})
		}
		sort.Slice(es, func(a, b int) bool { return es[a].To < es[b].To })
		// Merge duplicate partners in place (a pair can appear in both
		// directions in the profile).
		out := es[:1]
		for _, e := range es[1:] {
			last := &out[len(out)-1]
			if e.To == last.To {
				last.Vol += e.Vol
				last.Msgs += e.Msgs
				if e.MaxMsg > last.MaxMsg {
					last.MaxMsg = e.MaxMsg
				}
				continue
			}
			out = append(out, e)
		}
		g.adj[r] = out
	}
	return g, nil
}

// FromProfile builds the graph from a profile's point-to-point traffic,
// honoring the region filter (nil means all regions). A profile with a
// non-positive rank count or out-of-range peers yields an error.
func FromProfile(p *ipm.Profile, filter ipm.RegionFilter) (*Graph, error) {
	g, err := FromPairs(p.Procs, p.Pairs(filter))
	if err != nil {
		return nil, fmt.Errorf("topology: profile %q: %w", p.App, err)
	}
	return g, nil
}

// Partners returns the sorted partner list of a rank, counting partners
// whose largest exchanged message is at least cutoff bytes. cutoff 0
// returns every partner; an out-of-range rank returns nil. The adjacency
// is kept sorted on build, so no per-call sort happens.
func (g *Graph) Partners(rank, cutoff int) []int {
	if rank < 0 || rank >= g.P {
		return nil
	}
	var out []int
	for _, e := range g.adj[rank] {
		if e.Msgs > 0 && e.MaxMsg >= cutoff {
			out = append(out, e.To)
		}
	}
	return out
}

// degreeOf counts rank i's partners at the cutoff.
func (g *Graph) degreeOf(i, cutoff int) int {
	d := 0
	for _, e := range g.adj[i] {
		if e.Msgs > 0 && e.MaxMsg >= cutoff {
			d++
		}
	}
	return d
}

// Degrees returns the TDC of every rank at the given cutoff.
func (g *Graph) Degrees(cutoff int) []int {
	deg := make([]int, g.P)
	for i := range deg {
		deg[i] = g.degreeOf(i, cutoff)
	}
	return deg
}

// TDCStats summarizes the degree distribution at one cutoff.
type TDCStats struct {
	// Cutoff is the message-size threshold applied.
	Cutoff int
	// Max, Min are the extreme degrees.
	Max, Min int
	// Avg is the mean degree.
	Avg float64
	// Median is the median degree.
	Median float64
}

// statsFromDegrees aggregates a degree list into TDCStats.
func statsFromDegrees(cutoff int, deg []int) TDCStats {
	st := TDCStats{Cutoff: cutoff, Min: deg[0], Max: deg[0]}
	sum := 0
	for _, d := range deg {
		sum += d
		if d > st.Max {
			st.Max = d
		}
		if d < st.Min {
			st.Min = d
		}
	}
	st.Avg = float64(sum) / float64(len(deg))
	sorted := append([]int(nil), deg...)
	sort.Ints(sorted)
	n := len(sorted)
	if n%2 == 1 {
		st.Median = float64(sorted[n/2])
	} else {
		st.Median = float64(sorted[n/2-1]+sorted[n/2]) / 2
	}
	return st
}

// Stats computes degree statistics at the given cutoff.
func (g *Graph) Stats(cutoff int) TDCStats {
	return statsFromDegrees(cutoff, g.Degrees(cutoff))
}

// PaperCutoffs is the x-axis of the paper's concurrency-with-cutoff
// figures: 0 then powers of two from 128 bytes to 1 MB.
func PaperCutoffs() []int {
	out := []int{0}
	for c := 128; c <= 1<<20; c <<= 1 {
		out = append(out, c)
	}
	return out
}

// Sweep computes degree statistics across a cutoff series (PaperCutoffs
// if cutoffs is nil). Rather than rescanning the adjacency once per
// cutoff, each rank's qualifying message sizes are sorted descending once
// and every cutoff's degree read off by binary search. The output is
// identical to calling Stats per cutoff.
func (g *Graph) Sweep(cutoffs []int) []TDCStats {
	if cutoffs == nil {
		cutoffs = PaperCutoffs()
	}
	deg := make([][]int, len(cutoffs))
	for c := range deg {
		deg[c] = make([]int, g.P)
	}
	var sizes []int
	for i := 0; i < g.P; i++ {
		sizes = sizes[:0]
		for _, e := range g.adj[i] {
			if e.Msgs > 0 {
				sizes = append(sizes, e.MaxMsg)
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
		for c, cut := range cutoffs {
			deg[c][i] = sort.Search(len(sizes), func(x int) bool { return sizes[x] < cut })
		}
	}
	out := make([]TDCStats, len(cutoffs))
	for c, cut := range cutoffs {
		out[c] = statsFromDegrees(cut, deg[c])
	}
	return out
}

// FCNUtilization is the fraction of a fully-connected network's links the
// application exercises: average TDC at the cutoff divided by P−1.
func (g *Graph) FCNUtilization(cutoff int) float64 {
	if g.P == 1 {
		return 0
	}
	return g.Stats(cutoff).Avg / float64(g.P-1)
}

// Edges lists the undirected edges (i<j) whose largest message meets the
// cutoff, sorted by (i, j).
func (g *Graph) Edges(cutoff int) [][2]int {
	var out [][2]int
	g.ForEachEdge(func(i, j int, e Edge) {
		if e.Msgs > 0 && e.MaxMsg >= cutoff {
			out = append(out, [2]int{i, j})
		}
	})
	return out
}

// EdgeCount returns the number of stored undirected edges — the E in the
// graph's O(E) footprint.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, es := range g.adj {
		n += len(es)
	}
	return n / 2
}

// Subgraph returns the graph induced by keeping only edges meeting the
// cutoff. Volumes and counts are preserved for the surviving edges.
func (g *Graph) Subgraph(cutoff int) *Graph {
	s := MustGraph(g.P)
	g.ForEachEdge(func(i, j int, e Edge) {
		if e.Msgs > 0 && e.MaxMsg >= cutoff {
			s.addHalf(i, j, e.Msgs, e.Vol, e.MaxMsg)
			s.addHalf(j, i, e.Msgs, e.Vol, e.MaxMsg)
		}
	})
	return s
}

// TotalBytes returns the total traffic over all pairs (each undirected
// pair counted once).
func (g *Graph) TotalBytes() int64 {
	var sum int64
	g.ForEachEdge(func(_, _ int, e Edge) { sum += e.Vol })
	return sum
}
