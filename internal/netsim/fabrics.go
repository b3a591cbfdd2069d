package netsim

import (
	"fmt"
	"sync"

	"github.com/hfast-sim/hfast/internal/fattree"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/meshtorus"
)

// LinkParams sets the physical constants shared by the fabric models, so
// comparisons isolate topology effects.
type LinkParams struct {
	// Bandwidth is the per-link capacity in bytes/second.
	Bandwidth float64
	// SwitchLatency is the per-packet-switch traversal latency in seconds
	// (the paper quotes <50 ns per state-of-the-art switch).
	SwitchLatency float64
	// WireLatency is the per-link propagation delay in seconds; circuit
	// switch crossings contribute only this.
	WireLatency float64
}

// DefaultLinkParams uses 1 GB/s links, 50 ns switches, 20 ns wires.
func DefaultLinkParams() LinkParams {
	return LinkParams{Bandwidth: 1e9, SwitchLatency: 50e-9, WireLatency: 20e-9}
}

// regionMemo keeps the mesh's last LinkRegions answer. The table is a
// pure function of the immutable fabric and the target, and the target
// SimulateInto asks for is itself a function of the link count, so a
// replay loop would otherwise rebuild the same slice — a fresh
// allocation per link plus a walk over the link map — on every call.
// Callers share the memoised slice and must not write it (RegionHinter's
// contract).
type regionMemo struct {
	mu     sync.Mutex
	target int
	ids    []int32
}

func (m *regionMemo) get(target int, compute func(target int) []int32) []int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ids == nil || m.target != target {
		m.ids, m.target = compute(target), target
	}
	return m.ids
}

// endpoints reports whether src → dst is a flow between two distinct
// nodes of a p-node fabric. Every router answers any other pair as
// unroutable, so hostile flow lists never reach a fabric's tables.
func endpoints(src, dst, p int) bool {
	return src != dst && src >= 0 && dst >= 0 && src < p && dst < p
}

// HFASTNet wraps a provisioned assignment as a simulatable fabric: each
// node's uplink and each provisioned partner edge is a dedicated link
// (circuits do not contend); routes pay block-hop switch latency.
type HFASTNet struct {
	net      *Network
	assign   *hfast.Assignment
	p        LinkParams
	up, down []int
	edgeLink map[[2]int]int
}

// NewHFASTNet builds the simulation model of an assignment. Node links
// are full duplex (separate up and down links), as are the FCN and mesh
// models, so fabric comparisons isolate topology rather than NIC duplex
// effects.
func NewHFASTNet(a *hfast.Assignment, p LinkParams) *HFASTNet {
	h := &HFASTNet{
		net:      NewNetwork(),
		assign:   a,
		p:        p,
		up:       make([]int, a.P),
		down:     make([]int, a.P),
		edgeLink: make(map[[2]int]int),
	}
	for i := 0; i < a.P; i++ {
		h.up[i] = h.net.AddLink(p.Bandwidth)
		h.down[i] = h.net.AddLink(p.Bandwidth)
	}
	for i := 0; i < a.P; i++ {
		for _, j := range a.Partners[i] {
			if j > i {
				h.edgeLink[[2]int{i, j}] = h.net.AddLink(p.Bandwidth)
			}
		}
	}
	return h
}

// Network returns the underlying link set.
func (h *HFASTNet) Network() *Network { return h.net }

// RouteAppend implements Router: provisioned pairs traverse src uplink,
// the dedicated partner circuit, and the dst uplink, paying block-hop
// latencies from the assignment; other pairs are unroutable on the
// high-bandwidth fabric (they belong on the collective network).
func (h *HFASTNet) RouteAppend(buf []int, src, dst int) ([]int, float64, bool) {
	if !endpoints(src, dst, h.assign.P) {
		return buf, 0, false
	}
	r, ok := h.assign.Route(src, dst)
	if !ok {
		return buf, 0, false
	}
	key := [2]int{src, dst}
	if dst < src {
		key = [2]int{dst, src}
	}
	el, ok := h.edgeLink[key]
	if !ok {
		return buf, 0, false
	}
	buf = append(buf, h.up[src], el, h.down[dst])
	lat := float64(r.SBHops)*h.p.SwitchLatency + float64(r.Crossings+2)*h.p.WireLatency
	return buf, lat, true
}

// FCNNet models a fully connected network (fat-tree with full bisection):
// contention only at the endpoint up/down links, latency through the tree
// layers.
type FCNNet struct {
	net   *Network
	tree  fattree.Tree
	p     LinkParams
	up    []int
	down  []int
	procs int
}

// NewFCNNet builds the FCN model for procs nodes.
func NewFCNNet(procs int, tree fattree.Tree, p LinkParams) *FCNNet {
	f := &FCNNet{net: NewNetwork(), tree: tree, p: p, procs: procs}
	for i := 0; i < procs; i++ {
		f.up = append(f.up, f.net.AddLink(p.Bandwidth))
		f.down = append(f.down, f.net.AddLink(p.Bandwidth))
	}
	return f
}

// Network returns the underlying link set.
func (f *FCNNet) Network() *Network { return f.net }

// RouteAppend implements Router.
func (f *FCNNet) RouteAppend(buf []int, src, dst int) ([]int, float64, bool) {
	if !endpoints(src, dst, f.procs) {
		return buf, 0, false
	}
	lat := float64(f.tree.MaxSwitchHops())*f.p.SwitchLatency + 2*f.p.WireLatency
	return append(buf, f.up[src], f.down[dst]), lat, true
}

// MeshNet models a fixed mesh/torus with dimension-ordered routing;
// application traffic contends on shared mesh links, and every node pays
// the same full-duplex injection/ejection bandwidth as the other fabric
// models so comparisons isolate topology.
type MeshNet struct {
	net      *Network
	mesh     meshtorus.Mesh
	p        LinkParams
	links    map[[2]int]int
	up, down []int
	regions  regionMemo
}

// NewMeshNet builds the mesh model.
func NewMeshNet(m meshtorus.Mesh, p LinkParams) *MeshNet {
	mn := &MeshNet{net: NewNetwork(), mesh: m, p: p, links: make(map[[2]int]int)}
	for _, e := range m.Edges() {
		mn.links[e] = mn.net.AddLink(p.Bandwidth)
	}
	for i := 0; i < m.Size(); i++ {
		mn.up = append(mn.up, mn.net.AddLink(p.Bandwidth))
		mn.down = append(mn.down, mn.net.AddLink(p.Bandwidth))
	}
	return mn
}

// Network returns the underlying link set.
func (m *MeshNet) Network() *Network { return m.net }

// RouteAppend implements Router with dimension-ordered routing:
// meshtorus.Mesh.AppendDOR appends the visited nodes to buf, and each is
// rewritten in place — the source into its injection link, every later
// node into the mesh link that reaches it — so routing a replay costs no
// allocations beyond the shared arena the paths land in. Mesh paths are
// the longest of any fabric, which made per-call slices the allocation
// outlier of large replays (~6× the other fabrics at P=16384).
func (m *MeshNet) RouteAppend(buf []int, src, dst int) ([]int, float64, bool) {
	if !endpoints(src, dst, len(m.up)) {
		return buf, 0, false
	}
	base := len(buf)
	buf = m.mesh.AppendDOR(buf, src, dst)
	from := src
	buf[base] = m.up[src]
	for k := base + 1; k < len(buf); k++ {
		to := buf[k]
		id, ok := m.links[[2]int{min(from, to), max(from, to)}]
		if !ok {
			return buf[:base], 0, false
		}
		buf[k] = id
		from = to
	}
	hops := len(buf) - base - 1
	buf = append(buf, m.down[dst])
	// Each hop crosses one router.
	lat := float64(hops)*m.p.SwitchLatency + float64(hops+1)*m.p.WireLatency
	return buf, lat, true
}

// LinkRegions implements RegionHinter: mesh regions are torus blocks.
// Each dimension is cut into segments until the block grid reaches the
// target; a mesh link interior to one block takes its region, links
// crossing a block face are boundary, and injection/ejection links
// follow their node's block.
func (m *MeshNet) LinkRegions(target int) []int32 {
	return m.regions.get(target, m.linkRegions)
}

func (m *MeshNet) linkRegions(target int) []int32 {
	dims := m.mesh.Dims
	cuts := make([]int, len(dims))
	for i := range cuts {
		cuts[i] = 1
	}
	grid := 1
	for grid < target {
		// Cut the dimension with the longest remaining segment; stop
		// when every segment is down to a couple of nodes.
		best := -1
		for i, d := range dims {
			if d/cuts[i] < 2 {
				continue
			}
			if best < 0 || d/cuts[i] > dims[best]/cuts[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		cuts[best]++
		grid = 1
		for _, c := range cuts {
			grid *= c
		}
	}
	block := func(node int) int32 {
		r, stride := 0, 1
		for i, d := range dims {
			ci := node % d
			node /= d
			r += ci * cuts[i] / d * stride
			stride *= cuts[i]
		}
		return int32(r)
	}
	regions := make([]int32, m.net.Links())
	for l := range regions {
		regions[l] = -1 // boundary until a block claims it
	}
	for e, l := range m.links {
		if ba, bb := block(e[0]), block(e[1]); ba == bb {
			regions[l] = ba
		}
	}
	for i := range m.up {
		b := block(i)
		regions[m.up[i]] = b
		regions[m.down[i]] = b
	}
	return regions
}

// The collective tree is the dedicated low-bandwidth network the paper
// pairs with HFAST (§2.4): a BlueGene/L-style k-ary tree built from
// inexpensive components that carries collective operations and small
// point-to-point messages — the traffic below the bandwidth-delay product
// that would waste a dedicated circuit. The model captures what the
// paper's argument needs: per-level latency and a shared per-link
// bandwidth far below the data fabric's. Its price is
// hfast.Params.CollectiveNodeCost per node.
const (
	// treeFanout is the tree arity.
	treeFanout = 3
	// treeLinkBandwidth is bytes/second per tree link (low by design).
	treeLinkBandwidth = 350e6
	// treeHopLatency is per-level store-and-forward latency in seconds.
	treeHopLatency = 100e-9
)

// TreeNet models the §2.4 collective tree as a simulatable fabric: node
// c > 0 hangs below (c−1)/treeFanout in the implicit heap layout, one
// shared low-bandwidth link per tree edge, routes through the lowest
// common ancestor.
type TreeNet struct {
	net *Network
	p   int
}

// NewTreeNet builds the tree fabric for p leaves. Links are added in
// child order, so the up-link of child c is link c−1.
func NewTreeNet(p int) (*TreeNet, error) {
	if p <= 0 {
		return nil, fmt.Errorf("netsim: tree node count must be positive, got %d", p)
	}
	tn := &TreeNet{net: NewNetwork(), p: p}
	for child := 1; child < p; child++ {
		tn.net.AddLink(treeLinkBandwidth)
	}
	return tn, nil
}

// Network returns the underlying link set.
func (t *TreeNet) Network() *Network { return t.net }

// RouteAppend implements Router: climb from both endpoints to their
// lowest common ancestor.
func (t *TreeNet) RouteAppend(buf []int, src, dst int) ([]int, float64, bool) {
	if !endpoints(src, dst, t.p) {
		return buf, 0, false
	}
	base := len(buf)
	a, b := src, dst
	for a != b {
		if a > b {
			buf = append(buf, a-1)
			a = (a - 1) / treeFanout
		} else {
			buf = append(buf, b-1)
			b = (b - 1) / treeFanout
		}
	}
	lat := float64(len(buf)-base) * treeHopLatency
	return buf, lat, true
}
