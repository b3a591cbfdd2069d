package hfast

import (
	"fmt"
	"sort"
)

// CircuitSwitch models the passive crossbar: a set of ports, each wired to
// at most one other port by the external control plane. Reconfigurations
// are counted (and, in the paper's MEMS hardware, cost milliseconds), but
// a configured circuit adds essentially no forwarding latency.
type CircuitSwitch struct {
	ports   int
	peer    []int // peer[p] = q when p↔q, -1 when dark
	moves   int   // total port (dis)connections performed
	batches int   // reconfiguration events
}

// NewCircuitSwitch creates a crossbar with the given port count, all dark.
func NewCircuitSwitch(ports int) *CircuitSwitch {
	if ports <= 0 {
		// Programmer-error assertion: Wire, the one caller fed from outside
		// the process, sizes the crossbar with crossbarPorts first.
		panic(fmt.Sprintf("hfast: circuit switch needs positive ports, got %d", ports))
	}
	cs := &CircuitSwitch{ports: ports, peer: make([]int, ports)}
	for i := range cs.peer {
		cs.peer[i] = -1
	}
	return cs
}

// Ports returns the crossbar size.
func (cs *CircuitSwitch) Ports() int { return cs.ports }

// Peer returns the port wired to p, or -1.
func (cs *CircuitSwitch) Peer(p int) int {
	cs.check(p)
	return cs.peer[p]
}

func (cs *CircuitSwitch) check(p int) {
	if p < 0 || p >= cs.ports {
		// Programmer-error assertion: ports are numbered by the Wiring that
		// owns the switch, from an assignment Assign built or Validate took.
		panic(fmt.Sprintf("hfast: port %d out of range [0,%d)", p, cs.ports))
	}
}

// Connect wires a↔b, failing if either port is lit.
func (cs *CircuitSwitch) Connect(a, b int) error {
	cs.check(a)
	cs.check(b)
	if a == b {
		return fmt.Errorf("hfast: cannot loop port %d to itself", a)
	}
	if cs.peer[a] != -1 || cs.peer[b] != -1 {
		return fmt.Errorf("hfast: port already lit (a=%d→%d, b=%d→%d)", a, cs.peer[a], b, cs.peer[b])
	}
	cs.peer[a], cs.peer[b] = b, a
	cs.moves++
	return nil
}

// Disconnect darkens the circuit at port p (no-op when already dark).
func (cs *CircuitSwitch) Disconnect(p int) {
	cs.check(p)
	q := cs.peer[p]
	if q == -1 {
		return
	}
	cs.peer[p], cs.peer[q] = -1, -1
	cs.moves++
}

// BeginBatch marks one reconfiguration event: in hardware, all moves until
// the next batch settle within a single switch settling time.
func (cs *CircuitSwitch) BeginBatch() { cs.batches++ }

// Moves and Batches report reconfiguration effort.
func (cs *CircuitSwitch) Moves() int   { return cs.moves }
func (cs *CircuitSwitch) Batches() int { return cs.batches }

// LitPorts returns the number of connected ports.
func (cs *CircuitSwitch) LitPorts() int {
	n := 0
	for _, q := range cs.peer {
		if q != -1 {
			n++
		}
	}
	return n
}

// Wiring is a physical realization of an Assignment on a circuit switch.
// Port numbering: node i owns port i; block b (global index) owns ports
// base+b·BlockSize .. base+(b+1)·BlockSize−1 with base = P.
type Wiring struct {
	Assignment *Assignment
	Switch     *CircuitSwitch
	// BlockBase[i] is the global index of node i's first block.
	BlockBase []int
	// PartnerPort[i][k] is the crossbar port of node i's k-th partner
	// connection (on i's own tree).
	PartnerPort [][]int
	// PartnerDepthOf[i][k] is that port's block depth within the tree.
	PartnerDepthOf [][]int
}

// NodePort returns the crossbar port of node i.
func (w *Wiring) NodePort(i int) int { return i }

// blockPort returns the crossbar port k of global block b.
func (w *Wiring) blockPort(b, k int) int {
	return w.Assignment.P + b*w.Assignment.BlockSize + k
}

// maxCrossbarPorts is the largest circuit switch Wire lays out: eight
// times what the largest plan a default hfastd accepts needs (1024 nodes,
// all-to-all, 4-port blocks). The block size is a request parameter and
// every block is racked whole, so without a bound one number in a request
// or in a peer's artifact sizes the port table.
const maxCrossbarPorts = 1 << 24

// crossbarPorts is the port count of a's circuit switch: one port per node
// and one per active port.
func crossbarPorts(a *Assignment) (int, error) {
	if a.P <= 0 || a.TotalBlocks < 0 || a.BlockSize <= 0 ||
		a.P > maxCrossbarPorts || a.TotalBlocks > (maxCrossbarPorts-a.P)/a.BlockSize {
		return 0, fmt.Errorf("hfast: %d nodes and %d blocks of %d ports need a crossbar outside (0,%d] ports",
			a.P, a.TotalBlocks, a.BlockSize, maxCrossbarPorts)
	}
	return a.P + a.TotalBlocks*a.BlockSize, nil
}

// Wire lays out an assignment on a fresh crossbar: node uplinks, the
// internal links of each node's block tree, and one circuit per
// provisioned partner edge between the two endpoint trees.
func Wire(a *Assignment) (*Wiring, error) {
	ports, err := crossbarPorts(a)
	if err != nil {
		return nil, err
	}
	cs := NewCircuitSwitch(ports)
	w := &Wiring{
		Assignment:     a,
		Switch:         cs,
		BlockBase:      make([]int, a.P),
		PartnerPort:    make([][]int, a.P),
		PartnerDepthOf: make([][]int, a.P),
	}
	cs.BeginBatch()
	next := 0
	for i := 0; i < a.P; i++ {
		w.BlockBase[i] = next
		next += a.Blocks[i]
	}
	// Build each node's tree and collect its free partner slots in
	// depth-first-come order.
	type slot struct {
		port  int
		depth int
	}
	for i := 0; i < a.P; i++ {
		root := w.BlockBase[i]
		if err := cs.Connect(w.NodePort(i), w.blockPort(root, 0)); err != nil {
			return nil, fmt.Errorf("hfast: wiring node %d tree: %w", i, err)
		}
		var free []slot
		for k := 1; k < a.BlockSize; k++ {
			free = append(free, slot{port: w.blockPort(root, k), depth: 1})
		}
		for b := 1; b < a.Blocks[i]; b++ {
			if len(free) == 0 {
				return nil, fmt.Errorf("hfast: node %d ran out of tree slots", i)
			}
			parent := free[0]
			free = free[1:]
			blk := root + b
			if err := cs.Connect(parent.port, w.blockPort(blk, 0)); err != nil {
				return nil, fmt.Errorf("hfast: wiring node %d tree: %w", i, err)
			}
			for k := 1; k < a.BlockSize; k++ {
				free = append(free, slot{port: w.blockPort(blk, k), depth: parent.depth + 1})
			}
		}
		sort.SliceStable(free, func(x, y int) bool { return free[x].depth < free[y].depth })
		if len(free) < len(a.Partners[i]) {
			return nil, fmt.Errorf("hfast: node %d has %d partners but only %d slots",
				i, len(a.Partners[i]), len(free))
		}
		w.PartnerPort[i] = make([]int, len(a.Partners[i]))
		w.PartnerDepthOf[i] = make([]int, len(a.Partners[i]))
		for k := range a.Partners[i] {
			w.PartnerPort[i][k] = free[k].port
			w.PartnerDepthOf[i][k] = free[k].depth
		}
	}
	// Cross-connect each provisioned edge once.
	for i := 0; i < a.P; i++ {
		for k, j := range a.Partners[i] {
			if j < i {
				continue
			}
			ki := a.partnerIndex(j, i)
			if ki < 0 {
				return nil, fmt.Errorf("hfast: asymmetric partner lists for edge (%d,%d)", i, j)
			}
			if err := cs.Connect(w.PartnerPort[i][k], w.PartnerPort[j][ki]); err != nil {
				return nil, fmt.Errorf("hfast: wiring edge (%d,%d): %w", i, j, err)
			}
		}
	}
	return w, nil
}

// Route follows the physical circuits between two nodes, returning the
// exact block path length (it agrees with Assignment.Route).
func (w *Wiring) Route(src, dst int) (Route, bool) {
	a := w.Assignment
	si := a.partnerIndex(src, dst)
	di := a.partnerIndex(dst, src)
	if si < 0 || di < 0 || src == dst {
		return Route{}, false
	}
	hops := w.PartnerDepthOf[src][si] + w.PartnerDepthOf[dst][di]
	return Route{SBHops: hops, Crossings: hops + 1}, true
}
