// Package meshtorus models the fixed low-degree interconnects the paper
// contrasts with HFAST: k-ary n-dimensional meshes and tori (BlueGene/L,
// RedStorm, X1 style). It provides embedding-quality metrics — dilation
// and congestion under dimension-ordered routing — used to decide whether
// an application graph maps isomorphically onto a fixed mesh (hypothesis
// case i) or not (cases ii–iv).
package meshtorus

import (
	"fmt"

	"github.com/hfast-sim/hfast/internal/topology"
)

// Mesh is an n-dimensional grid of nodes, optionally wrapped into a torus.
type Mesh struct {
	// Dims are the per-dimension extents; their product is the node count.
	Dims []int
	// Wrap selects torus (true) or mesh (false) boundaries.
	Wrap bool
}

// New builds a mesh and validates the dimensions.
func New(dims []int, wrap bool) (Mesh, error) {
	if len(dims) == 0 {
		return Mesh{}, fmt.Errorf("meshtorus: no dimensions")
	}
	for _, d := range dims {
		if d <= 0 {
			return Mesh{}, fmt.Errorf("meshtorus: dimension %d not positive", d)
		}
	}
	return Mesh{Dims: append([]int(nil), dims...), Wrap: wrap}, nil
}

// NearCube factorizes p into ndims near-equal extents (largest first),
// the "densely-packed mesh" shape HFAST provisions initially.
func NearCube(p, ndims int) []int {
	if ndims <= 0 || p <= 0 {
		return nil
	}
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	remaining := p
	for i := 0; i < ndims; i++ {
		// Choose the largest factor of remaining that is ≤ the ceiling of
		// remaining^(1/(ndims-i)).
		target := intRoot(remaining, ndims-i)
		best := 1
		for f := 1; f <= remaining; f++ {
			if remaining%f == 0 && f <= target {
				best = f
			}
		}
		dims[i] = best
		remaining /= best
	}
	dims[ndims-1] *= remaining
	// Sort descending for a canonical shape.
	for i := 0; i < len(dims); i++ {
		for j := i + 1; j < len(dims); j++ {
			if dims[j] > dims[i] {
				dims[i], dims[j] = dims[j], dims[i]
			}
		}
	}
	return dims
}

// intRoot returns ceil(p^(1/n)) via integer search.
func intRoot(p, n int) int {
	if n <= 1 {
		return p
	}
	r := 1
	for pow(r+1, n) <= p {
		r++
	}
	if pow(r, n) < p {
		r++
	}
	return r
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		if out > 1<<40/bMax(b, 1) {
			return 1 << 40 // avoid overflow; larger than any node count
		}
		out *= b
	}
	return out
}

func bMax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Size is the node count.
func (m Mesh) Size() int {
	n := 1
	for _, d := range m.Dims {
		n *= d
	}
	return n
}

// Coords returns the position of rank r.
func (m Mesh) Coords(r int) []int {
	c := make([]int, len(m.Dims))
	for i, d := range m.Dims {
		c[i] = r % d
		r /= d
	}
	return c
}

// Rank returns the rank at coordinates c.
func (m Mesh) Rank(c []int) int {
	r := 0
	stride := 1
	for i, d := range m.Dims {
		r += c[i] * stride
		stride *= d
	}
	return r
}

// Neighbors returns the ranks adjacent to r along each dimension.
func (m Mesh) Neighbors(r int) []int {
	c := m.Coords(r)
	var out []int
	for i, d := range m.Dims {
		if d == 1 {
			continue
		}
		for _, dir := range []int{-1, 1} {
			x := c[i] + dir
			if x < 0 || x >= d {
				if !m.Wrap || d <= 2 {
					continue
				}
				x = (x + d) % d
			}
			c2 := append([]int(nil), c...)
			c2[i] = x
			n := m.Rank(c2)
			if n != r {
				out = append(out, n)
			}
		}
	}
	return dedupInts(out)
}

func dedupInts(in []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Edges lists the undirected links of the mesh.
func (m Mesh) Edges() [][2]int {
	var out [][2]int
	n := m.Size()
	for r := 0; r < n; r++ {
		for _, nb := range m.Neighbors(r) {
			if nb > r {
				out = append(out, [2]int{r, nb})
			}
		}
	}
	return out
}

// Distance is the L1 hop distance between ranks (with wrap when a torus).
func (m Mesh) Distance(a, b int) int {
	ca, cb := m.Coords(a), m.Coords(b)
	sum := 0
	for i, d := range m.Dims {
		delta := ca[i] - cb[i]
		if delta < 0 {
			delta = -delta
		}
		if m.Wrap && d-delta < delta {
			delta = d - delta
		}
		sum += delta
	}
	return sum
}

// Degree is the link count of the mesh's best-connected node.
func (m Mesh) Degree() int {
	deg := 0
	for _, d := range m.Dims {
		switch {
		case d == 1:
		case d == 2:
			deg++
		default:
			deg += 2
		}
	}
	return deg
}

// Embedding reports how well an application graph maps onto a mesh under
// a placement.
type Embedding struct {
	// Isomorphic reports whether every application edge is a mesh link
	// (dilation 1) — the paper's criterion for case i.
	Isomorphic bool
	// MaxDilation and AvgDilation are the worst and mean path lengths of
	// application edges on the mesh.
	MaxDilation int
	AvgDilation float64
	// MaxCongestion and AvgCongestion are the worst and mean per-link
	// traffic (bytes) under dimension-ordered routing of all application
	// traffic.
	MaxCongestion int64
	AvgCongestion float64
	// Edges is the number of application edges considered.
	Edges int
}

// Embed evaluates the identity embedding (rank i on node i) of g's
// thresholded edges.
func Embed(g *topology.Graph, m Mesh, cutoff int) (Embedding, error) {
	return EmbedPlaced(g, m, IdentityPlacement(g.P), cutoff)
}

// maxStackDims bounds the dimensionality AppendDOR walks on the stack; the
// paper's fabrics are 2-D/3-D, so 8 is comfortably past anything a caller
// builds. Higher-dimensional meshes spill the coordinate scratch to the
// heap, trading the zero-alloc guarantee, not correctness.
const maxStackDims = 8

// AppendDOR appends the nodes of the dimension-ordered route from a to b
// to buf — a first, b last, Distance(a, b)+1 nodes — and returns the
// extended slice. The route corrects one dimension at a time, taking the
// shorter way around a torus ring. Coordinates live in stack arrays and
// each hop's rank is derived from the last, so a walk into a buffer with
// room allocates nothing.
func (m Mesh) AppendDOR(buf []int, a, b int) []int {
	var curA, tgtA [maxStackDims]int
	cur, tgt := curA[:], tgtA[:]
	if len(m.Dims) > maxStackDims {
		cur, tgt = make([]int, len(m.Dims)), make([]int, len(m.Dims))
	}
	ra, rb := a, b
	for i, d := range m.Dims {
		cur[i], tgt[i] = ra%d, rb%d
		ra, rb = ra/d, rb/d
	}
	buf = append(buf, a)
	node, stride := a, 1
	for dim, d := range m.Dims {
		for cur[dim] != tgt[dim] {
			step := 1
			delta := tgt[dim] - cur[dim]
			if delta < 0 {
				step = -1
			}
			if m.Wrap {
				abs := delta
				if abs < 0 {
					abs = -abs
				}
				if d-abs < abs {
					step = -step // shorter the other way around
				}
			}
			next := (cur[dim] + step + d) % d
			node += (next - cur[dim]) * stride
			cur[dim] = next
			buf = append(buf, node)
		}
		stride *= d
	}
	return buf
}

// Cost is the mesh fabric cost: one router with Degree()+1 ports per node
// (degree links plus the node uplink), priced at the active-port cost.
func (m Mesh) Cost(activePortCost float64) float64 {
	return float64(m.Size()*(m.Degree()+1)) * activePortCost
}
