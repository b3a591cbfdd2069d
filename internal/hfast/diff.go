package hfast

import (
	"fmt"
	"sort"
	"time"

	"github.com/hfast-sim/hfast/internal/topology"
)

// SettleTime is the circuit-switch reconfiguration latency the paper
// quotes for MEMS optical switches: on the order of milliseconds per
// batch, during which no traffic may cross the moving light paths.
const SettleTime = 5 * time.Millisecond

// CircuitDiff is the minimal reconfiguration taking a fabric from one
// provisioned assignment to another: which partner circuits to tear
// down, which to set up, and what the move costs compared to wiring the
// next assignment from scratch. Setup and Teardown are sorted (i < j
// within an edge, edges in increasing (i, j) order) and built without
// map iteration, so diffs are bitwise reproducible across worker counts.
type CircuitDiff struct {
	// P is the node count both assignments span.
	P int
	// Setup are provisioned partner edges present only in the next
	// assignment; Teardown only in the previous one.
	Setup, Teardown [][2]int
	// Kept counts edges surviving unchanged — circuits the fabric does
	// not touch while the application keeps running on them.
	Kept int
	// BlocksDelta is the change in consumed switch blocks (next − prev).
	BlocksDelta int
	// PortMoves is the number of circuit connections re-pointed: two
	// endpoints per changed edge plus one uplink rewire per block pool
	// change.
	PortMoves int
	// FullMoves is what wiring the next assignment from a dark fabric
	// would cost in the same units — the baseline the diff is saving
	// against.
	FullMoves int
	// Settle is the modeled reconfiguration stall: one settling batch
	// when anything moves, zero for a no-op diff.
	Settle time.Duration
}

// Saved is the fraction of from-scratch port moves the diff avoids
// (0 when even the full wiring is free).
func (d *CircuitDiff) Saved() float64 {
	if d.FullMoves == 0 {
		return 0
	}
	return 1 - float64(d.PortMoves)/float64(d.FullMoves)
}

// DiffAssignments computes the circuit diff between two assignments over
// the same node count. prev == nil means a dark fabric: every edge of
// next is a setup and the full block pool is new.
func DiffAssignments(prev, next *Assignment) (*CircuitDiff, error) {
	if next == nil {
		return nil, fmt.Errorf("hfast: diff needs a next assignment")
	}
	if prev != nil && prev.P != next.P {
		return nil, fmt.Errorf("hfast: diffing assignments over %d vs %d nodes", prev.P, next.P)
	}
	d := &CircuitDiff{P: next.P}
	prevBlocks := 0
	for i := 0; i < next.P; i++ {
		var pp []int
		if prev != nil {
			pp = prev.Partners[i]
		}
		np := next.Partners[i]
		// Merge the two sorted partner lists, classifying each j > i edge.
		a, b := 0, 0
		for a < len(pp) || b < len(np) {
			switch {
			case b == len(np) || (a < len(pp) && pp[a] < np[b]):
				if pp[a] > i {
					d.Teardown = append(d.Teardown, [2]int{i, pp[a]})
				}
				a++
			case a == len(pp) || np[b] < pp[a]:
				if np[b] > i {
					d.Setup = append(d.Setup, [2]int{i, np[b]})
				}
				b++
			default: // equal
				if np[b] > i {
					d.Kept++
				}
				a, b = a+1, b+1
			}
		}
	}
	if prev != nil {
		prevBlocks = prev.TotalBlocks
	}
	d.BlocksDelta = next.TotalBlocks - prevBlocks
	delta := d.BlocksDelta
	if delta < 0 {
		delta = -delta
	}
	d.PortMoves = 2*(len(d.Setup)+len(d.Teardown)) + delta
	d.FullMoves = 2*(len(d.Setup)+d.Kept) + next.TotalBlocks
	if d.PortMoves > 0 {
		d.Settle = SettleTime
	}
	return d, nil
}

// PlanDiff is the incremental planner: provision the new phase's graph
// and return both the assignment and the minimal circuit diff from the
// previous phase's assignment (nil = dark fabric), instead of treating
// every phase as a from-scratch plan.
func PlanDiff(prev *Assignment, g *topology.Graph, cutoff, blockSize int) (*Assignment, *CircuitDiff, error) {
	if prev != nil {
		if blockSize == 0 {
			blockSize = prev.BlockSize
		}
		if blockSize != prev.BlockSize {
			return nil, nil, fmt.Errorf("hfast: diff planning across block sizes %d vs %d", prev.BlockSize, blockSize)
		}
	}
	next, err := Assign(g, cutoff, blockSize)
	if err != nil {
		return nil, nil, err
	}
	d, err := DiffAssignments(prev, next)
	if err != nil {
		return nil, nil, err
	}
	return next, d, nil
}

// CapacityForBlocks inverts BlocksForDegree: the largest partner count a
// node's tree of b blocks can expose.
func CapacityForBlocks(b, blockSize int) int {
	if b <= 0 {
		return 0
	}
	if b == 1 {
		return blockSize - 1
	}
	return b*(blockSize-2) + 1
}

// AssignWithBudget provisions under a per-node block budget: edges are
// admitted highest-volume first (ties broken by (i, j)) while both
// endpoints have free partner ports, and everything else is left to the
// collective network. This models a static plan forced onto the same
// hardware a reconfigurable schedule uses — the pool sized for the
// busiest phase — so static-vs-replanned comparisons hold hardware
// constant. budget[i] <= 0 grants node i one block (the idle minimum).
func AssignWithBudget(g *topology.Graph, cutoff, blockSize int, budget []int) (*Assignment, error) {
	blockSize, err := BlockSize(blockSize)
	if err != nil {
		return nil, err
	}
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	if len(budget) != g.P {
		return nil, fmt.Errorf("hfast: budget spans %d nodes but graph has %d", len(budget), g.P)
	}
	type edge struct {
		i, j int
		vol  int64
	}
	var edges []edge
	g.ForEachEdge(func(i, j int, e topology.Edge) {
		if e.Msgs > 0 && e.MaxMsg >= cutoff {
			edges = append(edges, edge{i, j, e.Vol})
		}
	})
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].vol != edges[b].vol {
			return edges[a].vol > edges[b].vol
		}
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})
	capacity := make([]int, g.P)
	for i, b := range budget {
		if b < 1 {
			b = 1
		}
		capacity[i] = CapacityForBlocks(b, blockSize)
	}
	partners := make([][]int, g.P)
	for _, e := range edges {
		if len(partners[e.i]) < capacity[e.i] && len(partners[e.j]) < capacity[e.j] {
			partners[e.i] = append(partners[e.i], e.j)
			partners[e.j] = append(partners[e.j], e.i)
		}
	}
	for _, ps := range partners {
		sort.Ints(ps)
	}
	return newAssignment(partners, cutoff, blockSize), nil
}
