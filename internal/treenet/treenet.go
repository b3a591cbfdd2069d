// Package treenet models the dedicated low-bandwidth tree network the
// paper pairs with HFAST (§2.4): a BlueGene/L-style k-ary tree built from
// inexpensive components that carries collective operations and small
// point-to-point messages — the traffic below the bandwidth-delay product
// that would waste a dedicated circuit.
//
// The model captures what the paper's argument needs: per-level latency, a
// shared per-link bandwidth far below the data fabric's, cost that scales
// linearly with node count, and latency formulas for the tree-friendly
// collectives (broadcast, reduction). Point-to-point routes through a
// common ancestor are netsim.TreeNet's.
package treenet

import (
	"fmt"
)

// Params configures the tree.
type Params struct {
	// Fanout is the tree arity (BG/L used 3... a small constant).
	Fanout int
	// LinkBandwidth is bytes/second per tree link (low by design).
	LinkBandwidth float64
	// HopLatency is per-level store-and-forward latency in seconds.
	HopLatency float64
	// PortCost prices one tree port; the network needs about
	// Fanout/(Fanout−1) ports per node, so cost stays linear in P.
	PortCost float64
}

// DefaultParams models a BG/L-like tree: fanout 3, 350 MB/s links, 100 ns
// per hop, ports an order of magnitude cheaper than data-fabric ports.
func DefaultParams() Params {
	return Params{Fanout: 3, LinkBandwidth: 350e6, HopLatency: 100e-9, PortCost: 10}
}

// Tree is a k-ary collective tree over P nodes.
type Tree struct {
	P      int
	Params Params
}

// New builds the tree model.
func New(p int, params Params) (*Tree, error) {
	if p <= 0 {
		return nil, fmt.Errorf("treenet: node count must be positive, got %d", p)
	}
	if params.Fanout < 2 {
		return nil, fmt.Errorf("treenet: fanout must be ≥ 2, got %d", params.Fanout)
	}
	if params.LinkBandwidth <= 0 {
		return nil, fmt.Errorf("treenet: bandwidth must be positive")
	}
	return &Tree{P: p, Params: params}, nil
}

// Depth is the number of tree levels above the leaves: the smallest d
// with fanout^d ≥ P.
func (t *Tree) Depth() int {
	d, reach := 0, 1
	for reach < t.P {
		reach *= t.Params.Fanout
		d++
	}
	return d
}

// BroadcastLatency is the time for a root broadcast of n bytes to reach
// every leaf: depth hops of pipelined store-and-forward.
func (t *Tree) BroadcastLatency(n int) float64 {
	return float64(t.Depth())*t.Params.HopLatency + float64(n)/t.Params.LinkBandwidth
}

// ReduceLatency is the time for an n-byte combining reduction up the
// tree; the tree's ALUs combine at line rate (the BG/L design point), so
// it matches the broadcast cost.
func (t *Tree) ReduceLatency(n int) float64 {
	return t.BroadcastLatency(n)
}

// AllreduceLatency is a reduction followed by a broadcast.
func (t *Tree) AllreduceLatency(n int) float64 {
	return t.ReduceLatency(n) + t.BroadcastLatency(n)
}

// Links is the number of tree links (one per non-root node).
func (t *Tree) Links() int { return t.P - 1 }

// Cost prices the tree: two ports per link.
func (t *Tree) Cost() float64 {
	return float64(2*t.Links()) * t.Params.PortCost
}

// CostPerNode shows the linear scaling the paper relies on.
func (t *Tree) CostPerNode() float64 {
	return t.Cost() / float64(t.P)
}
