package meshtorus

import (
	"fmt"

	"github.com/hfast-sim/hfast/internal/topology"
)

// Placement maps application ranks to mesh nodes (a permutation). The
// paper notes that on fixed-topology and ICN interconnects "job placement
// also plays a role in finding an optimal graph embedding" — this file
// provides the optimizer a mesh-based system would need, which HFAST
// renders unnecessary (the fabric adapts instead of the job).
type Placement []int

// IdentityPlacement puts rank i on node i.
func IdentityPlacement(n int) Placement {
	p := make(Placement, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// valid reports whether the placement is a permutation of [0,n).
func (p Placement) valid(n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// PlacementCost is the total communication-weighted hop count of the
// thresholded application edges under a placement: Σ volume×distance.
func (m Mesh) PlacementCost(g *topology.Graph, pl Placement, cutoff int) (int64, error) {
	if g.P != m.Size() {
		return 0, fmt.Errorf("meshtorus: graph %d vs mesh %d", g.P, m.Size())
	}
	if !pl.valid(g.P) {
		return 0, fmt.Errorf("meshtorus: placement is not a permutation of %d nodes", g.P)
	}
	var cost int64
	for _, e := range g.Edges(cutoff) {
		d := m.Distance(pl[e[0]], pl[e[1]])
		cost += g.Vol(e[0], e[1]) * int64(d)
	}
	return cost, nil
}

// OptimizePlacement runs deterministic simulated annealing over rank-swap
// moves to reduce PlacementCost, starting from identity. It returns the
// best placement found with its before/after costs. iters in the low
// tens of thousands suffices for the sizes this repository simulates.
func OptimizePlacement(g *topology.Graph, m Mesh, cutoff, iters int, seed uint64) (Placement, int64, int64, error) {
	pl := IdentityPlacement(g.P)
	before, err := m.PlacementCost(g, pl, cutoff)
	if err != nil {
		return nil, 0, 0, err
	}
	if g.P < 2 || iters <= 0 {
		return pl, before, before, nil
	}
	// Per-rank adjacency with volumes for O(deg) delta evaluation.
	type edge struct {
		to  int
		vol int64
	}
	adj := make([][]edge, g.P)
	for _, e := range g.Edges(cutoff) {
		adj[e[0]] = append(adj[e[0]], edge{to: e[1], vol: g.Vol(e[0], e[1])})
		adj[e[1]] = append(adj[e[1]], edge{to: e[0], vol: g.Vol(e[0], e[1])})
	}
	rankCost := func(r int, pl Placement) int64 {
		var c int64
		for _, e := range adj[r] {
			c += e.vol * int64(m.Distance(pl[r], pl[e.to]))
		}
		return c
	}
	state := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	cur := before
	best := append(Placement(nil), pl...)
	bestCost := cur
	// Geometric cooling: accept uphill moves early, greedy at the end.
	temp := float64(before)/float64(g.P) + 1
	cool := 0.9995
	for it := 0; it < iters; it++ {
		a := int(next()) % g.P
		b := int(next()) % g.P
		if a == b {
			continue
		}
		delta := -(rankCost(a, pl) + rankCost(b, pl))
		pl[a], pl[b] = pl[b], pl[a]
		delta += rankCost(a, pl) + rankCost(b, pl)
		accept := delta <= 0
		if !accept && temp > 0 {
			// Deterministic Metropolis: accept with probability
			// exp(-delta/temp), evaluated against a hashed uniform.
			u := float64(next()%1_000_000) / 1_000_000
			accept = u < metropolisProb(float64(delta), temp)
		}
		if accept {
			cur += delta
			if cur < bestCost {
				bestCost = cur
				copy(best, pl)
			}
		} else {
			pl[a], pl[b] = pl[b], pl[a] // revert
		}
		temp *= cool
	}
	return best, before, bestCost, nil
}

// metropolisProb is exp(-d/t) without importing math for one call site...
// precision does not matter for annealing acceptance, so a clamped
// rational approximation suffices.
func metropolisProb(d, t float64) float64 {
	x := d / t
	if x > 20 {
		return 0
	}
	// exp(-x) ≈ 1/(1+x+x²/2+x³/6) for x ≥ 0: monotone and within a few
	// percent over the useful range.
	return 1 / (1 + x + x*x/2 + x*x*x/6)
}

// EmbedPlaced evaluates an embedding under an explicit placement.
func EmbedPlaced(g *topology.Graph, m Mesh, pl Placement, cutoff int) (Embedding, error) {
	if g.P != m.Size() {
		return Embedding{}, fmt.Errorf("meshtorus: graph has %d ranks but mesh has %d nodes", g.P, m.Size())
	}
	if !pl.valid(g.P) {
		return Embedding{}, fmt.Errorf("meshtorus: placement is not a permutation of %d nodes", g.P)
	}
	emb := Embedding{Isomorphic: true}
	linkLoad := map[[2]int]int64{}
	var dilSum int
	var nodes []int
	for _, e := range g.Edges(cutoff) {
		emb.Edges++
		// The dimension-ordered route is a shortest path, so its hop count
		// is the dilation.
		nodes = m.AppendDOR(nodes[:0], pl[e[0]], pl[e[1]])
		d := len(nodes) - 1
		if d > emb.MaxDilation {
			emb.MaxDilation = d
		}
		dilSum += d
		if d > 1 {
			emb.Isomorphic = false
		}
		vol := g.Vol(e[0], e[1])
		for k := 1; k < len(nodes); k++ {
			linkLoad[[2]int{min(nodes[k-1], nodes[k]), max(nodes[k-1], nodes[k])}] += vol
		}
	}
	if emb.Edges > 0 {
		emb.AvgDilation = float64(dilSum) / float64(emb.Edges)
	}
	var loadSum int64
	for _, l := range linkLoad {
		if l > emb.MaxCongestion {
			emb.MaxCongestion = l
		}
		loadSum += l
	}
	if len(linkLoad) > 0 {
		emb.AvgCongestion = float64(loadSum) / float64(len(linkLoad))
	}
	return emb, nil
}
