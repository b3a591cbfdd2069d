package hfast

import (
	"errors"
	"fmt"
	"sort"

	"github.com/hfast-sim/hfast/internal/topology"
)

// Route describes the path of a message over a provisioned HFAST fabric,
// in the units of the paper's Figure 1 discussion.
type Route struct {
	// SBHops is the number of active switch blocks traversed.
	SBHops int
	// Crossings is the number of circuit-switch crossbar traversals
	// (always SBHops+1: once from the source node into the first block,
	// once between consecutive blocks, once down to the destination).
	Crossings int
}

// PortUsage accounts for fabric ports.
type PortUsage struct {
	// ActivePorts is the total packet-switch ports provisioned
	// (blocks × block size).
	ActivePorts int
	// UsedActivePorts is how many of them carry a node uplink, an
	// internal tree link, or a partner connection.
	UsedActivePorts int
	// PassivePorts is the circuit-switch port count: every node link and
	// every active port terminates on the crossbar.
	PassivePorts int
}

// Utilization is the used fraction of provisioned active ports.
func (u PortUsage) Utilization() float64 {
	if u.ActivePorts == 0 {
		return 0
	}
	return float64(u.UsedActivePorts) / float64(u.ActivePorts)
}

// Assignment is the result of the paper's linear-time provisioning: each
// node owns a private tree of active switch blocks sized to its
// thresholded degree, and the circuit switch wires partner ports of the
// two endpoint trees together.
type Assignment struct {
	// P is the node count and BlockSize the ports per block.
	P         int
	BlockSize int
	// Cutoff is the message-size threshold the provisioning used.
	Cutoff int
	// Partners[i] lists node i's thresholded partners in sorted order;
	// the index of a partner within the list determines its depth in the
	// tree (PartnerDepth).
	Partners [][]int
	// Blocks[i] is the number of active switch blocks assigned to node i.
	Blocks []int
	// TotalBlocks is the pool size consumed.
	TotalBlocks int
}

// Assign provisions a fabric for the communication graph with the paper's
// linear-time rule at the given cutoff (DefaultCutoff when zero).
func Assign(g *topology.Graph, cutoff, blockSize int) (*Assignment, error) {
	blockSize, err := BlockSize(blockSize)
	if err != nil {
		return nil, err
	}
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	partners := make([][]int, g.P)
	for i := range partners {
		partners[i] = g.Partners(i, cutoff)
	}
	return newAssignment(partners, cutoff, blockSize), nil
}

// newAssignment builds the assignment of sorted partner lists, each node
// given the blocks its degree needs: the one constructor of Assign,
// AssignFromHints and AssignWithBudget.
func newAssignment(partners [][]int, cutoff, blockSize int) *Assignment {
	a := &Assignment{
		P:         len(partners),
		BlockSize: blockSize,
		Cutoff:    cutoff,
		Partners:  partners,
		Blocks:    make([]int, len(partners)),
	}
	for i, ps := range partners {
		a.Blocks[i] = BlocksForDegree(len(ps), blockSize)
		a.TotalBlocks += a.Blocks[i]
	}
	return a
}

// AssignDegrees provisions directly from a degree list (used by the cost
// sweeps, which scale analytic degree models past the sizes we simulate).
func AssignDegrees(degrees []int, blockSize int) (*Assignment, error) {
	blockSize, err := BlockSize(blockSize)
	if err != nil {
		return nil, err
	}
	a := &Assignment{
		P:         len(degrees),
		BlockSize: blockSize,
		Partners:  make([][]int, len(degrees)),
		Blocks:    make([]int, len(degrees)),
	}
	for i, d := range degrees {
		a.Blocks[i] = BlocksForDegree(d, blockSize)
		a.TotalBlocks += a.Blocks[i]
	}
	return a, nil
}

// partnerIndex locates dst in node src's partner list, -1 if absent.
// Partner lists are sorted (Graph.Partners and AssignFromHints both emit
// sorted slices), so this is a binary search.
func (a *Assignment) partnerIndex(src, dst int) int {
	ps := a.Partners[src]
	k := sort.SearchInts(ps, dst)
	if k < len(ps) && ps[k] == dst {
		return k
	}
	return -1
}

// Route returns the fabric route between two nodes. Messages between
// provisioned partners descend the source node's tree and ascend the
// destination's; non-partners (sub-threshold traffic) are carried by the
// collective network and get no Route here.
func (a *Assignment) Route(src, dst int) (Route, bool) {
	if src < 0 || src >= a.P || dst < 0 || dst >= a.P {
		// Programmer-error assertion: callers route between ranks of the
		// graph the assignment was provisioned from.
		panic(fmt.Sprintf("hfast: route (%d,%d) out of range [0,%d)", src, dst, a.P))
	}
	if src == dst {
		return Route{}, false
	}
	si := a.partnerIndex(src, dst)
	di := a.partnerIndex(dst, src)
	if si < 0 || di < 0 {
		return Route{}, false
	}
	hops := PartnerDepth(si, len(a.Partners[src]), a.BlockSize) + PartnerDepth(di, len(a.Partners[dst]), a.BlockSize)
	return Route{SBHops: hops, Crossings: hops + 1}, true
}

// Ports returns the fabric's port accounting.
func (a *Assignment) Ports() PortUsage {
	u := PortUsage{ActivePorts: a.TotalBlocks * a.BlockSize}
	for i := 0; i < a.P; i++ {
		// Node uplink + internal tree links (2 ports each) + one port per
		// partner connection.
		u.UsedActivePorts += 1 + 2*(a.Blocks[i]-1) + len(a.Partners[i])
	}
	u.PassivePorts = a.P + u.ActivePorts
	return u
}

// MaxRoute returns the worst-case route among all provisioned pairs
// (zero value when nothing is provisioned). Each node's tree shape is
// derived once, then every edge is walked once from its lower endpoint.
func (a *Assignment) MaxRoute() Route {
	maxDeg := 0
	for _, ps := range a.Partners {
		maxDeg = max(maxDeg, len(ps))
	}
	if maxDeg == 0 {
		return Route{}
	}
	// A tree never gets shallower as its node's degree grows, so the
	// highest degree's level count is a row length that fits every node;
	// shorter shapes leave their tail zero, which no index is below.
	var deepest [maxTreeLevels]int
	levels := partnerSlots(deepest[:], maxDeg, a.BlockSize)
	cum := make([]int, a.P*levels)
	shape := func(i int) []int { return cum[i*levels : (i+1)*levels] }
	for i := 0; i < a.P; i++ {
		partnerSlots(shape(i), len(a.Partners[i]), a.BlockSize)
	}
	var worst Route
	for i := 0; i < a.P; i++ {
		mine, depth := shape(i), 1
		for idx, j := range a.Partners[i] {
			for idx >= mine[depth-1] {
				depth++
			}
			if j < i {
				continue
			}
			di := a.partnerIndex(j, i)
			checkPartnerIndex(di, len(a.Partners[j]))
			if m := depth + slotDepth(shape(j), di); m > worst.SBHops {
				worst = Route{SBHops: m, Crossings: m + 1}
			}
		}
	}
	return worst
}

// ErrInvalidAssignment is wrapped by every Validate failure.
var ErrInvalidAssignment = errors.New("hfast: invalid assignment")

// Validate checks that a is something Assign could have produced — the
// form every encoded assignment has — so that bytes from another process
// are refused with an error before Wire, Route or MaxRoute index into
// them: P nodes with a partner list and a block count each, a usable
// block size, partner lists that are in range, strictly ascending, free
// of self edges and symmetric, and block counts that follow from the
// degrees and add up to TotalBlocks.
func (a *Assignment) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidAssignment, fmt.Sprintf(format, args...))
	}
	if a.P <= 0 || len(a.Partners) != a.P || len(a.Blocks) != a.P {
		return bad("P=%d with %d partner lists and %d block counts", a.P, len(a.Partners), len(a.Blocks))
	}
	// A built assignment holds a resolved size, never the zero request.
	if size, err := BlockSize(a.BlockSize); err != nil || size != a.BlockSize {
		return bad("block size %d, want ≥ 4", a.BlockSize)
	}
	total := 0
	for i, ps := range a.Partners {
		for k, j := range ps {
			switch {
			case j < 0 || j >= a.P:
				return bad("partner %d of node %d out of range [0,%d)", j, i, a.P)
			case j == i:
				return bad("node %d lists itself as a partner", i)
			case k > 0 && ps[k-1] >= j:
				return bad("partners of node %d are not strictly ascending at index %d", i, k)
			case a.partnerIndex(j, i) < 0:
				return bad("edge (%d,%d) is not listed by node %d", i, j, j)
			}
		}
		if want := BlocksForDegree(len(ps), a.BlockSize); a.Blocks[i] != want {
			return bad("node %d has %d blocks, its %d partners need %d", i, a.Blocks[i], len(ps), want)
		}
		total += a.Blocks[i]
	}
	if a.TotalBlocks != total {
		return bad("TotalBlocks %d, per-node counts sum to %d", a.TotalBlocks, total)
	}
	return nil
}

// AssignFromHints provisions a fabric directly from declared partner
// lists — e.g. a declared grid's meshtorus.Mesh.Neighbors — instead of
// measured traffic. This is the §2.3 fast path: "MPI topology directives
// can be used to speed the runtime topology optimization process", since
// the circuit switch can be configured before the first message. The
// lists are symmetrized and deduplicated.
func AssignFromHints(partners [][]int, blockSize int) (*Assignment, error) {
	blockSize, err := BlockSize(blockSize)
	if err != nil {
		return nil, err
	}
	p := len(partners)
	if p == 0 {
		return nil, fmt.Errorf("hfast: no nodes in hint set")
	}
	sets := make([]map[int]bool, p)
	for i := range sets {
		sets[i] = make(map[int]bool)
	}
	for i, list := range partners {
		for _, j := range list {
			if j < 0 || j >= p {
				return nil, fmt.Errorf("hfast: hint partner %d of node %d out of range [0,%d)", j, i, p)
			}
			if j == i {
				continue
			}
			sets[i][j] = true
			sets[j][i] = true
		}
	}
	lists := make([][]int, p)
	for i, set := range sets {
		list := make([]int, 0, len(set))
		for j := range set {
			list = append(list, j)
		}
		sort.Ints(list)
		lists[i] = list
	}
	return newAssignment(lists, 0, blockSize), nil // hints carry no sizes, so no cutoff
}
