package netsim

import (
	"fmt"
	"sync"

	"github.com/hfast-sim/hfast/internal/fattree"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/treenet"
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

// regionMemo keeps a fabric's last LinkRegions answer. The table is a
// pure function of the immutable fabric and the target, and the target
// SimulateInto asks for is itself a function of the link count, so a
// replay loop would otherwise rebuild the same slice — a fresh
// allocation per link plus, for the map-backed fabrics, a walk over a Go
// map — on every call. Callers share the memoised slice and must not
// write it (RegionHinter's contract).
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

// unregioned is a region table with every link on the boundary (-1).
func unregioned(nLinks int) []int32 {
	regions := make([]int32, nLinks)
	for i := range regions {
		regions[i] = -1
	}
	return regions
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
	regions  regionMemo
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
		h.up[i] = h.net.AddLink(fmt.Sprintf("node%d.up", i), p.Bandwidth)
		h.down[i] = h.net.AddLink(fmt.Sprintf("node%d.down", i), p.Bandwidth)
	}
	for i := 0; i < a.P; i++ {
		for _, j := range a.Partners[i] {
			if j > i {
				h.edgeLink[[2]int{i, j}] = h.net.AddLink(fmt.Sprintf("circuit%d-%d", i, j), p.Bandwidth)
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

// nodeRegion maps node i of p into one of target contiguous rank blocks.
func nodeRegion(i, p, target int) int32 {
	return int32(i * target / p)
}

// LinkRegions implements RegionHinter: HFAST regions are contiguous node
// blocks (aligned with the clique/block structure the assignment
// provisions). A node's up/down links take its block's region; a circuit
// is interior when both endpoints share a block and a boundary link
// otherwise.
func (h *HFASTNet) LinkRegions(target int) []int32 {
	return h.regions.get(target, h.linkRegions)
}

func (h *HFASTNet) linkRegions(target int) []int32 {
	regions := unregioned(h.net.Links())
	p := h.assign.P
	for i := 0; i < p; i++ {
		r := nodeRegion(i, p, target)
		regions[h.up[i]] = r
		regions[h.down[i]] = r
	}
	for e, l := range h.edgeLink {
		ri, rj := nodeRegion(e[0], p, target), nodeRegion(e[1], p, target)
		if ri == rj {
			regions[l] = ri
		}
	}
	return regions
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

	regions regionMemo
}

// NewFCNNet builds the FCN model for procs nodes.
func NewFCNNet(procs int, tree fattree.Tree, p LinkParams) *FCNNet {
	f := &FCNNet{net: NewNetwork(), tree: tree, p: p, procs: procs}
	for i := 0; i < procs; i++ {
		f.up = append(f.up, f.net.AddLink(fmt.Sprintf("node%d.up", i), p.Bandwidth))
		f.down = append(f.down, f.net.AddLink(fmt.Sprintf("node%d.down", i), p.Bandwidth))
	}
	return f
}

// Network returns the underlying link set.
func (f *FCNNet) Network() *Network { return f.net }

// RouteAppend implements Router.
func (f *FCNNet) RouteAppend(buf []int, src, dst int) ([]int, float64, bool) {
	if src < 0 || src >= f.procs || dst < 0 || dst >= f.procs || src == dst {
		return buf, 0, false
	}
	lat := float64(f.tree.MaxSwitchHops())*f.p.SwitchLatency + 2*f.p.WireLatency
	return append(buf, f.up[src], f.down[dst]), lat, true
}

// LinkRegions implements RegionHinter: fat-tree regions are the
// subtrees over contiguous rank blocks, so a node's up/down links take
// its block's region. The FCN model has no shared internal links, which
// makes every intra-block flow interior and leaves only cross-block
// traffic for the boundary pass.
func (f *FCNNet) LinkRegions(target int) []int32 {
	return f.regions.get(target, f.linkRegions)
}

func (f *FCNNet) linkRegions(target int) []int32 {
	regions := unregioned(f.net.Links())
	for i := 0; i < f.procs; i++ {
		r := nodeRegion(i, f.procs, target)
		regions[f.up[i]] = r
		regions[f.down[i]] = r
	}
	return regions
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
		mn.links[e] = mn.net.AddLink(fmt.Sprintf("mesh%d-%d", e[0], e[1]), p.Bandwidth)
	}
	for i := 0; i < m.Size(); i++ {
		mn.up = append(mn.up, mn.net.AddLink(fmt.Sprintf("node%d.up", i), p.Bandwidth))
		mn.down = append(mn.down, mn.net.AddLink(fmt.Sprintf("node%d.down", i), p.Bandwidth))
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
	if src == dst {
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
	regions := unregioned(m.net.Links())
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

// TreeNet models the §2.4 dedicated collective/small-message tree as a
// simulatable fabric: one shared low-bandwidth link per tree edge, routes
// through the lowest common ancestor.
type TreeNet struct {
	net   *Network
	tree  *treenet.Tree
	links map[[2]int]int // (child, parent) → link id

	regions regionMemo
}

// NewTreeNet builds the tree fabric for p leaves.
func NewTreeNet(p int, params treenet.Params) (*TreeNet, error) {
	tr, err := treenet.New(p, params)
	if err != nil {
		return nil, err
	}
	tn := &TreeNet{net: NewNetwork(), tree: tr, links: make(map[[2]int]int)}
	for child := 1; child < p; child++ {
		parent := (child - 1) / params.Fanout
		tn.links[[2]int{child, parent}] = tn.net.AddLink(
			fmt.Sprintf("tree%d-%d", child, parent), params.LinkBandwidth)
	}
	return tn, nil
}

// Network returns the underlying link set.
func (t *TreeNet) Network() *Network { return t.net }

// LinkRegions implements RegionHinter: tree regions are the subtrees
// rooted at the shallowest depth with at least target nodes. Links
// strictly below a depth-d root take that subtree's region; links at or
// above the cut are boundary, so traffic climbing through the upper
// tree reconciles serially while subtree-local traffic shards.
func (t *TreeNet) LinkRegions(target int) []int32 {
	return t.regions.get(target, t.linkRegions)
}

func (t *TreeNet) linkRegions(target int) []int32 {
	fanout := t.tree.Params.Fanout
	// lo is the first node id at the cut depth; the heap layout keeps
	// each depth contiguous, so depth-d roots are [lo, lo+width).
	lo, width := 0, 1
	for width < target && lo+width < t.tree.P {
		lo = lo*fanout + 1
		width *= fanout
	}
	root := func(n int) int {
		for n >= lo+width {
			n = (n - 1) / fanout
		}
		if n < lo {
			return -1
		}
		return n - lo
	}
	regions := unregioned(t.net.Links())
	for e, l := range t.links {
		// e is (child, parent): interior iff the child sits strictly
		// below a cut root, i.e. both endpoints resolve to the same one.
		if rc, rp := root(e[0]), root(e[1]); rc >= 0 && rc == rp {
			regions[l] = int32(rc)
		}
	}
	return regions
}

// RouteAppend implements Router: climb from both endpoints to their
// lowest common ancestor in the implicit heap layout.
func (t *TreeNet) RouteAppend(buf []int, src, dst int) ([]int, float64, bool) {
	if src == dst || src < 0 || dst < 0 || src >= t.tree.P || dst >= t.tree.P {
		return buf, 0, false
	}
	base := len(buf)
	fanout := t.tree.Params.Fanout
	a, b := src, dst
	for a != b {
		if a > b {
			parent := (a - 1) / fanout
			buf = append(buf, t.links[[2]int{a, parent}])
			a = parent
		} else {
			parent := (b - 1) / fanout
			buf = append(buf, t.links[[2]int{b, parent}])
			b = parent
		}
	}
	lat := float64(len(buf)-base) * t.tree.Params.HopLatency
	return buf, lat, true
}
