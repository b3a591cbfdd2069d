// Package hfast implements the paper's primary contribution: the Hybrid
// Flexibly Assignable Switch Topology. A fully connected passive circuit
// switch (MEMS-style, milliseconds to reconfigure, near-zero forwarding
// latency) sits between the processing nodes and a pool of small active
// packet-switch blocks. Provisioning the circuit switch wires each node to
// enough packet-switch capacity to reach its communication partners, so
// the expensive component — packet-switch ports — scales linearly with the
// system while the topology remains freely reassignable at runtime.
//
// The package provides the paper's linear-time switch-block assignment
// (§5.3: one block per node when the thresholded TDC fits, a fan-in/out
// tree of blocks otherwise), message routing over the provisioned fabric
// (counting circuit-switch crossings and switch-block hops as in Figure
// 1), the cost model comparing HFAST against fat-trees, and the
// incremental runtime reconfiguration described in §2.3.
package hfast

import "fmt"

// DefaultBlockSize is the paper's homogeneous active switch block size:
// 16 ports, of which one uplinks to the node, leaving 15 for partners.
const DefaultBlockSize = 16

// BlockSize resolves a requested switch-block size: zero selects
// DefaultBlockSize, and any other size below 4 is refused. It is the one
// block-size rule of the planners, Validate and the stream endpoint.
func BlockSize(requested int) (int, error) {
	switch {
	case requested == 0:
		return DefaultBlockSize, nil
	case requested < 4:
		return 0, fmt.Errorf("hfast: block size must be ≥ 4, got %d", requested)
	}
	return requested, nil
}

// Params sets the component prices and block geometry of a fabric.
// Prices are arbitrary units; only ratios matter and the defaults follow
// the paper's premise that a passive (circuit) port costs far less than
// an active (packet) port.
type Params struct {
	// BlockSize is the port count of one active switch block.
	BlockSize int
	// ActivePortCost is the price of one packet-switch port (the dominant
	// term).
	ActivePortCost float64
	// PassivePortCost is the price of one circuit-switch port.
	PassivePortCost float64
	// NICCost is the price of one host adapter (present in every design,
	// included for completeness).
	NICCost float64
	// CollectiveNodeCost is the per-node price of the dedicated
	// low-bandwidth tree network that carries collectives and small
	// messages (§2.4).
	CollectiveNodeCost float64
}

// DefaultParams returns the parameter set used throughout the repository:
// a 16-port block and a 10:1 active:passive port cost ratio.
func DefaultParams() Params {
	return Params{
		BlockSize:          DefaultBlockSize,
		ActivePortCost:     100,
		PassivePortCost:    10,
		NICCost:            50,
		CollectiveNodeCost: 20,
	}
}

// BlocksForDegree is the paper's linear-time sizing rule: a node whose
// thresholded TDC fits the block's non-uplink ports gets one block;
// otherwise enough blocks are chained into a tree to expose deg partner
// ports. Each extra block spends one port linking to the tree and one at
// its parent, so it nets blockSize−2 new leaf ports.
func BlocksForDegree(deg, blockSize int) int {
	if deg < 0 {
		// Programmer-error assertion: callers pass a list length or an
		// analytic degree model's output, never a decoded number.
		panic(fmt.Sprintf("hfast: negative degree %d", deg))
	}
	if deg == 0 {
		// An idle node still gets its block so topology can be
		// re-provisioned without re-cabling.
		return 1
	}
	if deg <= blockSize-1 {
		return 1
	}
	// Port accounting for any n-block tree: n·blockSize ports serve one
	// node uplink, 2(n−1) internal link endpoints, and deg partner ports,
	// so n = ceil((deg−1)/(blockSize−2)) blocks suffice (deepening the
	// tree as needed to respect per-block fan-out).
	per := blockSize - 2
	return (deg - 1 + per - 1) / per
}

// maxTreeLevels bounds the depth of any block tree: every level holds at
// least twice the slots of the one above it (blockSize ≥ 3), so no degree
// an int can express needs more.
const maxTreeLevels = 64

// partnerSlots is the one derivation of a node's tree shape, the way Wire
// lays it out: blocks attach to the earliest free slot, so the tree fills
// level by level, and partners take the slots left over in depth order.
// It writes into cum the number of partner slots at block depth ≤ d+1 for
// every depth the tree of a deg-partner node has, and returns how many
// depths that is; cum needs room for them (maxTreeLevels always is).
func partnerSlots(cum []int, deg, blockSize int) int {
	children := BlocksForDegree(deg, blockSize) - 1 // blocks still to hang below this depth
	free := blockSize - 1                           // slots the blocks of this depth expose
	slots, levels := 0, 0
	for {
		c := min(children, free)
		children -= c
		slots += free - c
		cum[levels] = slots
		levels++
		if c == 0 {
			return levels
		}
		free = c * (blockSize - 1)
	}
}

// slotDepth reads a shape partnerSlots wrote: the block depth of the
// node's k-th partner connection.
func slotDepth(cum []int, k int) int {
	for d, c := range cum {
		if k < c {
			return d + 1
		}
	}
	// Programmer-error assertion: BlocksForDegree sizes every tree to hold
	// its node's partners (TestBlocksForDegreePortAccounting).
	panic(fmt.Sprintf("hfast: partner %d does not fit its node's block tree", k))
}

// checkPartnerIndex is PartnerDepth's documented panic, shared with
// MaxRoute, which meets it on an edge only one endpoint lists.
func checkPartnerIndex(k, deg int) {
	if k < 0 || k >= deg {
		// Programmer-error assertion: decoded assignments pass Validate
		// (symmetric lists) before anything looks a partner up.
		panic(fmt.Sprintf("hfast: partner index %d out of range [0,%d)", k, deg))
	}
}

// PartnerDepth is the number of switch blocks a connection to the k-th of
// a node's deg partners traverses inside the node's own tree (1 when it
// lands on the root block, 2 on a child block, ...). It panics when k is
// outside [0,deg).
func PartnerDepth(k, deg, blockSize int) int {
	checkPartnerIndex(k, deg)
	var cum [maxTreeLevels]int
	return slotDepth(cum[:partnerSlots(cum[:], deg, blockSize)], k)
}
