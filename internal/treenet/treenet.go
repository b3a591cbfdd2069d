// Package treenet models the dedicated low-bandwidth tree network the
// paper pairs with HFAST (§2.4): a BlueGene/L-style k-ary tree built from
// inexpensive components that carries collective operations and small
// point-to-point messages — the traffic below the bandwidth-delay product
// that would waste a dedicated circuit.
//
// The model captures what the paper's argument needs: per-level latency
// and a shared per-link bandwidth far below the data fabric's. Its price
// is hfast.Params.CollectiveNodeCost per node. Routes through a common
// ancestor, and so every latency the tree charges, are netsim.TreeNet's.
package treenet

import (
	"fmt"
)

// The tree is BG/L-like: fanout 3, 350 MB/s links, 100 ns per hop.
const (
	// Fanout is the tree arity.
	Fanout = 3
	// LinkBandwidth is bytes/second per tree link (low by design).
	LinkBandwidth = 350e6
	// HopLatency is per-level store-and-forward latency in seconds.
	HopLatency = 100e-9
)

// Tree is a k-ary collective tree over P nodes.
type Tree struct {
	P int
}

// New builds the tree model.
func New(p int) (*Tree, error) {
	if p <= 0 {
		return nil, fmt.Errorf("treenet: node count must be positive, got %d", p)
	}
	return &Tree{P: p}, nil
}

// Depth is the number of tree levels above the leaves: the smallest d
// with Fanout^d ≥ P.
func (t *Tree) Depth() int {
	d, reach := 0, 1
	for reach < t.P {
		reach *= Fanout
		d++
	}
	return d
}
