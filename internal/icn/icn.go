// Package icn models the Interconnection Cached Network baseline (Gupta &
// Schenfeld, the paper's reference [10]): processing elements grouped into
// blocks of size k around small crossbars, with the blocks joined by a
// circuit switch. An application embeds cleanly only when its communication
// topology has bounded contraction ≤ k — an NP-complete property in
// general (k > 2), which is exactly the restriction HFAST removes by
// putting the circuit switch between the nodes and the packet switches.
package icn

import (
	"fmt"
	"sort"

	"github.com/hfast-sim/hfast/internal/topology"
)

// Network is an ICN configuration.
type Network struct {
	// K is the block size (processors per crossbar).
	K int
	// Blocks[b] lists the node ids assigned to block b.
	Blocks [][]int
	// BlockOf[node] is the node's block index.
	BlockOf []int
}

// Partition groups nodes into blocks of size k using a greedy affinity
// heuristic: repeatedly seed a block with the unassigned node of highest
// remaining degree, then add the k−1 unassigned nodes with the most
// traffic toward the block. (The optimal bounded-contraction partition is
// NP-complete; this is the polynomial stand-in.)
func Partition(g *topology.Graph, cutoff, k int) (*Network, error) {
	if k < 2 {
		return nil, fmt.Errorf("icn: block size must be ≥ 2, got %d", k)
	}
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	n := &Network{K: k, BlockOf: make([]int, g.P)}
	for i := range n.BlockOf {
		n.BlockOf[i] = -1
	}
	deg := g.Degrees(cutoff)
	for assigned := 0; assigned < g.P; {
		// Seed: highest-degree unassigned node.
		seed := -1
		for i := 0; i < g.P; i++ {
			if n.BlockOf[i] == -1 && (seed == -1 || deg[i] > deg[seed]) {
				seed = i
			}
		}
		block := []int{seed}
		n.BlockOf[seed] = len(n.Blocks)
		assigned++
		for len(block) < k && assigned < g.P {
			// Most-affine unassigned node to the block.
			best, bestVol := -1, int64(-1)
			for i := 0; i < g.P; i++ {
				if n.BlockOf[i] != -1 {
					continue
				}
				var vol int64
				for _, m := range block {
					if g.MaxMsg(i, m) >= cutoff {
						vol += g.Vol(i, m)
					}
				}
				if vol > bestVol {
					best, bestVol = i, vol
				}
			}
			block = append(block, best)
			n.BlockOf[best] = len(n.Blocks)
			assigned++
		}
		sort.Ints(block)
		n.Blocks = append(n.Blocks, block)
	}
	return n, nil
}

// Contraction evaluates the partition against an application graph at the
// cutoff: for each block, the number of distinct external partner *blocks*
// its nodes need. This is the topological degree of the contracted graph;
// the embedding is valid only when every block's contraction fits the
// block's circuit-switch ports (≤ k, one external circuit per PE).
type Contraction struct {
	// PerBlock[b] is block b's external partner-block count.
	PerBlock []int
	// Max and Avg summarize PerBlock.
	Max int
	Avg float64
	// Fits reports Max ≤ K: every partner block can be reached over at
	// least one dedicated circuit.
	Fits bool
	// OversubscribedEdges counts external application edges beyond the
	// pooled circuit budget (k ports per block): each such edge must
	// share a circuit with other traffic (bandwidth loss, §2.2).
	OversubscribedEdges int
	// WorstShare is the most contended block's bandwidth fraction per
	// external edge: k ports / external edges (1.0 = a dedicated circuit
	// each; 0 external edges reports 1.0).
	WorstShare float64
}

// Contract computes the contraction of g over the partition.
func (n *Network) Contract(g *topology.Graph, cutoff int) Contraction {
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	nb := len(n.Blocks)
	ext := make([]map[int]int, nb) // block → partner block → edge count
	for b := range ext {
		ext[b] = make(map[int]int)
	}
	for _, e := range g.Edges(cutoff) {
		b0, b1 := n.BlockOf[e[0]], n.BlockOf[e[1]]
		if b0 == b1 {
			continue // handled inside the block crossbar
		}
		ext[b0][b1]++
		ext[b1][b0]++
	}
	c := Contraction{PerBlock: make([]int, nb), WorstShare: 1}
	sum := 0
	for b := range ext {
		c.PerBlock[b] = len(ext[b])
		sum += len(ext[b])
		if len(ext[b]) > c.Max {
			c.Max = len(ext[b])
		}
		// Each block has K circuit ports pooled across its external
		// edges; edges beyond the pool share circuits at reduced
		// bandwidth.
		edges := 0
		for _, e := range ext[b] {
			edges += e
		}
		if edges > n.K {
			c.OversubscribedEdges += edges - n.K
			if share := float64(n.K) / float64(edges); share < c.WorstShare {
				c.WorstShare = share
			}
		}
	}
	if nb > 0 {
		c.Avg = float64(sum) / float64(nb)
	}
	c.Fits = c.Max <= n.K
	return c
}
