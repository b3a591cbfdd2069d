// Package fattree models the fully-connected-network baseline of the
// paper's §5.3 cost analysis: a fat-tree built from layers of N-port
// packet switches, where L layers connect P = 2·(N/2)^L processors and the
// switch-port count per processor grows as 1 + 2(L−1).
package fattree

import "fmt"

// Tree describes a fat-tree sized for a processor count.
type Tree struct {
	// Radix is the switch port count N.
	Radix int
	// Layers is the number of switch layers L.
	Layers int
	// Procs is the capacity 2·(N/2)^L, ≥ the requested processor count.
	Procs int
}

// Design returns the smallest fat-tree of the given switch radix that
// connects at least procs processors.
func Design(procs, radix int) (Tree, error) {
	if procs <= 0 {
		return Tree{}, fmt.Errorf("fattree: procs must be positive, got %d", procs)
	}
	if radix < 4 || radix%2 != 0 {
		return Tree{}, fmt.Errorf("fattree: radix must be an even number ≥ 4, got %d", radix)
	}
	half := radix / 2
	capacity := 2 * half // L = 1
	layers := 1
	for capacity < procs {
		capacity *= half
		layers++
		if layers > 64 {
			return Tree{}, fmt.Errorf("fattree: cannot reach %d processors with radix %d", procs, radix)
		}
	}
	return Tree{Radix: radix, Layers: layers, Procs: capacity}, nil
}

// PortsPerProc is the paper's switch-port count per processor:
// 1 + 2(L−1). It grows logarithmically with system size — the superlinear
// total cost that motivates HFAST.
func (t Tree) PortsPerProc() int {
	return 1 + 2*(t.Layers-1)
}

// TotalPorts is the switch-port count of the whole fabric.
func (t Tree) TotalPorts() int {
	return t.Procs * t.PortsPerProc()
}

// Switches is the number of radix-port switches in the fabric.
func (t Tree) Switches() int {
	return (t.TotalPorts() + t.Radix - 1) / t.Radix
}

// MaxSwitchHops is the worst-case number of packet-switch traversals of a
// message: 4L − 3, matching the paper's example of 21 layers of switches
// for a 6-layer fat-tree of 8-port switches (each of the 1+2(L−1) port
// stages is crossed on the way up and down, sharing the root stage).
func (t Tree) MaxSwitchHops() int {
	return 4*t.Layers - 3
}

// Cost is the fabric cost: total ports × cost per packet-switch port.
func (t Tree) Cost(portCost float64) float64 {
	return float64(t.TotalPorts()) * portCost
}

// String summarizes the design.
func (t Tree) String() string {
	return fmt.Sprintf("fat-tree radix=%d layers=%d procs=%d ports/proc=%d switches=%d",
		t.Radix, t.Layers, t.Procs, t.PortsPerProc(), t.Switches())
}
