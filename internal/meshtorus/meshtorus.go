// Package meshtorus models the fixed low-degree interconnects the paper
// contrasts with HFAST: k-ary n-dimensional meshes and tori (BlueGene/L,
// RedStorm, X1 style). It provides embedding-quality metrics — dilation
// and congestion under dimension-ordered routing — used to decide whether
// an application graph maps isomorphically onto a fixed mesh (hypothesis
// case i) or not (cases ii–iv).
package meshtorus

import (
	"fmt"
	"slices"

	"github.com/hfast-sim/hfast/internal/topology"
)

// Mesh is an n-dimensional grid of nodes, each dimension open or wrapped
// into a ring. It is the one Cartesian layout in the code: rank r sits at
// the digits of r in the mixed radix Dims, the first dimension fastest.
// The skeletons lay their ranks out on it, the §2.3 stencil declares its
// grid as one, and the torus baseline is one.
type Mesh struct {
	// Dims are the per-dimension extents; their product is the node count.
	Dims []int
	// Wrap holds one entry per dimension: a ring (true) or an open edge
	// (false).
	Wrap []bool
}

// New builds a mesh whose every dimension wraps, or none does, and
// validates the dimensions.
func New(dims []int, wrap bool) (Mesh, error) {
	if len(dims) == 0 {
		return Mesh{}, fmt.Errorf("meshtorus: no dimensions")
	}
	for _, d := range dims {
		if d <= 0 {
			return Mesh{}, fmt.Errorf("meshtorus: dimension %d not positive", d)
		}
	}
	return Mesh{Dims: append([]int(nil), dims...), Wrap: slices.Repeat([]bool{wrap}, len(dims))}, nil
}

// NearCube factorizes p into the most cubic ndims extents, largest first:
// the smallest spread between the largest and smallest extent, then the
// smallest gaps below the largest (64 → 4×4×4, 108 → 6×6×3, 30 → 5×3×2).
// It is the one process-grid shape in the code: the skeletons lay their
// ranks out on it and Baseline shapes the fixed fabric from it. It
// allocates once, the result's backing array, whose tail holds the
// candidate being built.
func NearCube(p, ndims int) []int {
	if ndims <= 0 || p <= 0 {
		return nil
	}
	buf := make([]int, 2*ndims)
	best, cur := buf[:ndims:ndims], buf[ndims:]
	best[0] = p
	for i := 1; i < ndims; i++ {
		best[i] = 1
	}
	nearCube(p, 1, ndims-1, cur, best)
	return best
}

// nearCube fills cur[i], cur[i-1], ..., cur[0] with every non-decreasing
// run of factors ≥ lo whose product is rem, and keeps the most cubic
// whole candidate in best.
func nearCube(rem, lo, i int, cur, best []int) {
	if i == 0 {
		cur[0] = rem
		if moreCubic(cur, best) {
			copy(best, cur)
		}
		return
	}
	for f := lo; f*f <= rem; f++ {
		if rem%f == 0 {
			cur[i] = f
			nearCube(rem/f, f, i-1, cur, best)
		}
	}
}

// moreCubic reports whether descending extents a are more cubic than b:
// a smaller spread, or the same spread and, at the first extent where
// they differ, a smaller gap below the largest.
func moreCubic(a, b []int) bool {
	last := len(a) - 1
	if sa, sb := a[0]-a[last], b[0]-b[last]; sa != sb {
		return sa < sb
	}
	for i := 1; i < last; i++ {
		if ga, gb := a[0]-a[i], b[0]-b[i]; ga != gb {
			return ga < gb
		}
	}
	return false
}

// Baseline is the fixed fabric HFAST is judged against: the near-cube
// 3-D torus over p nodes, the same grid the skeletons run on.
func Baseline(p int) (Mesh, error) {
	return New(NearCube(p, 3), true)
}

// Size is the node count.
func (m Mesh) Size() int {
	n := 1
	for _, d := range m.Dims {
		n *= d
	}
	return n
}

// Offset returns the rank delta away from r, one entry of delta per
// dimension, or -1 when the walk leaves an open dimension; a wrapped one
// takes it modulo its extent. It reads r's coordinates digit by digit
// and allocates nothing: the skeletons ask for a partner per step.
func (m Mesh) Offset(r int, delta ...int) int {
	out, stride := 0, 1
	for i, d := range m.Dims {
		x := r%d + delta[i]
		r /= d
		if x < 0 || x >= d {
			if !m.Wrap[i] {
				return -1
			}
			x = (x%d + d) % d
		}
		out += x * stride
		stride *= d
	}
	return out
}

// Neighbors returns the distinct ranks one step from r, per dimension
// the lower before the upper. A wrapped dimension of extent 2 gives one
// neighbour and one of extent 1 none, so r is never its own neighbour.
// It walks by stride and allocates only its result.
func (m Mesh) Neighbors(r int) []int {
	out := make([]int, 0, 2*len(m.Dims))
	stride := 1
	for i, d := range m.Dims {
		c, ring := r/stride%d, m.Wrap[i] && d > 2
		switch {
		case c > 0:
			out = append(out, r-stride)
		case ring:
			out = append(out, r+(d-1)*stride)
		}
		switch {
		case c < d-1:
			out = append(out, r+stride)
		case ring:
			out = append(out, r-(d-1)*stride)
		}
		stride *= d
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
// It reads the coordinates off the ranks digit by digit, allocating
// nothing: pmemd calls it once per pair per step.
func (m Mesh) Distance(a, b int) int {
	sum := 0
	for i, d := range m.Dims {
		delta := a%d - b%d
		a, b = a/d, b/d
		if delta < 0 {
			delta = -delta
		}
		if m.Wrap[i] && d-delta < delta {
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
			if m.Wrap[dim] {
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
