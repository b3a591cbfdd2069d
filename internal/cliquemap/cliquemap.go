// Package cliquemap implements the switch-block sharing optimization the
// paper leaves as future work (§5.3/§6): mapping tightly interconnected
// cliques of nodes onto shared switch blocks so intra-clique traffic is
// switched inside one block, consuming one port per member instead of one
// port per edge endpoint. The optimal clique cover is NP-complete (Kou,
// Stockmeyer & Wong, reference [12]); this package provides the greedy
// polynomial heuristic and measures how many ports it saves over the
// linear-time per-node assignment.
package cliquemap

import (
	"slices"
	"sort"

	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/topology"
)

// Clique is one shared switch block hosting a set of mutually
// communicating nodes.
type Clique struct {
	// Members are the node ids sharing the block (each uses one uplink
	// port).
	Members []int
	// ExternalPorts is the number of block ports serving edges that leave
	// the clique.
	ExternalPorts int
}

// Mapping is a clique-based fabric provisioning.
type Mapping struct {
	// P is the node count, BlockSize the ports per block, Cutoff the
	// threshold used.
	P         int
	BlockSize int
	Cutoff    int
	// Cliques lists the shared blocks (singletons allowed).
	Cliques []Clique
	// CliqueOf[node] is the node's clique index.
	CliqueOf []int
	// ExtraBlocks is the count of additional fan-out blocks needed where a
	// clique's external edges exceed its shared block's free ports.
	ExtraBlocks int
}

// TotalBlocks is the number of active switch blocks consumed.
func (m *Mapping) TotalBlocks() int { return len(m.Cliques) + m.ExtraBlocks }

// Greedy builds a clique mapping: it seeds cliques from the heaviest
// remaining edge and grows them while every candidate is adjacent (at the
// cutoff) to all current members and the block still has an uplink port
// for it; external edges that overflow a block's free ports are counted
// as chained extra blocks. Block size 0 selects hfast.DefaultBlockSize.
func Greedy(g *topology.Graph, cutoff, blockSize int) (*Mapping, error) {
	blockSize, err := hfast.BlockSize(blockSize)
	if err != nil {
		return nil, err
	}
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	m := &Mapping{P: g.P, BlockSize: blockSize, Cutoff: cutoff, CliqueOf: make([]int, g.P)}
	for i := range m.CliqueOf {
		m.CliqueOf[i] = -1
	}

	edges := g.Edges(cutoff)
	sort.Slice(edges, func(a, b int) bool {
		va := g.Vol(edges[a][0], edges[a][1])
		vb := g.Vol(edges[b][0], edges[b][1])
		if va != vb {
			return va > vb
		}
		return edges[a][0] < edges[b][0] // deterministic tie-break
	})

	adjacent := func(a, b int) bool {
		return g.Connected(a, b, cutoff)
	}
	degree := func(n int) int { return len(g.Partners(n, cutoff)) }

	tryGrow := func(members []int) []int {
		// Candidates adjacent to every member, densest first.
		var cands []int
		for v := 0; v < g.P; v++ {
			if m.CliqueOf[v] != -1 || slices.Contains(members, v) {
				continue
			}
			ok := true
			for _, u := range members {
				if !adjacent(u, v) {
					ok = false
					break
				}
			}
			if ok {
				cands = append(cands, v)
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			da, db := degree(cands[a]), degree(cands[b])
			if da != db {
				return da > db
			}
			return cands[a] < cands[b]
		})
		for _, v := range cands {
			if len(members) >= blockSize {
				break
			}
			// Re-verify adjacency to all (members grew since cands
			// were computed).
			ok := true
			for _, u := range members {
				if !adjacent(u, v) {
					ok = false
					break
				}
			}
			if ok {
				members = append(members, v)
			}
		}
		return members
	}

	for _, e := range edges {
		if m.CliqueOf[e[0]] != -1 || m.CliqueOf[e[1]] != -1 {
			continue
		}
		members := tryGrow([]int{e[0], e[1]})
		idx := len(m.Cliques)
		for _, v := range members {
			m.CliqueOf[v] = idx
		}
		sort.Ints(members)
		m.Cliques = append(m.Cliques, Clique{Members: members})
	}
	// Leftover nodes become singleton blocks.
	for v := 0; v < g.P; v++ {
		if m.CliqueOf[v] == -1 {
			idx := len(m.Cliques)
			m.CliqueOf[v] = idx
			m.Cliques = append(m.Cliques, Clique{Members: []int{v}})
		}
	}
	// External port accounting and fan-out expansion.
	for ci := range m.Cliques {
		cl := &m.Cliques[ci]
		ext := 0
		for _, u := range cl.Members {
			for _, v := range g.Partners(u, cutoff) {
				if m.CliqueOf[v] != ci {
					ext++
				}
			}
		}
		cl.ExternalPorts = ext
		free := blockSize - len(cl.Members)
		if ext > free {
			// Chain extra blocks exactly like the linear-time rule: each
			// nets blockSize−2 additional external ports.
			need := ext - free
			per := blockSize - 2
			m.ExtraBlocks += (need + per - 1) / per
		}
	}
	return m, nil
}

// Savings compares the clique mapping against the paper's linear-time
// assignment for the same graph.
type Savings struct {
	NaiveBlocks  int
	CliqueBlocks int
	// PortsSavedPct is the relative reduction in active switch blocks.
	PortsSavedPct float64
	// IntraCliqueEdges is how many application edges became block-internal
	// (no circuit-switch ports at all).
	IntraCliqueEdges int
}

// CompareNaive computes the savings of a clique mapping over hfast.Assign.
func CompareNaive(g *topology.Graph, cutoff, blockSize int) (Savings, *Mapping, error) {
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	naive, err := hfast.Assign(g, cutoff, blockSize)
	if err != nil {
		return Savings{}, nil, err
	}
	m, err := Greedy(g, cutoff, blockSize)
	if err != nil {
		return Savings{}, nil, err
	}
	s := Savings{NaiveBlocks: naive.TotalBlocks, CliqueBlocks: m.TotalBlocks()}
	if s.NaiveBlocks > 0 {
		s.PortsSavedPct = 100 * (1 - float64(s.CliqueBlocks)/float64(s.NaiveBlocks))
	}
	for _, e := range g.Edges(cutoff) {
		if m.CliqueOf[e[0]] == m.CliqueOf[e[1]] {
			s.IntraCliqueEdges++
		}
	}
	return s, m, nil
}
