package mpi

import "fmt"

// ProcNull is the null process: sends to it vanish and receives from it
// return immediately with an empty status, following MPI_PROC_NULL. It
// lets Cartesian shifts at non-periodic boundaries feed straight into
// Sendrecv without special-casing.
const ProcNull = -3

// Cart is a communicator with Cartesian topology information attached —
// the "MPI topology directives" §2.3 proposes feeding the HFAST runtime
// so the circuit switch can be provisioned from declared structure
// instead of waiting for measurements.
type Cart struct {
	*Comm
	dims    []int
	periods []bool
}

// CartCreate attaches a Cartesian topology to the communicator. The
// product of dims must equal the communicator size. Ranks map to
// coordinates row-minor (first dimension varies fastest), matching the
// internal grid used by the application skeletons. The reorder hint is
// accepted for API fidelity but placement is identity (HFAST makes
// reordering unnecessary — the fabric adapts instead).
func (c *Comm) CartCreate(dims []int, periods []bool, reorder bool) (*Cart, error) {
	if len(dims) == 0 || len(dims) != len(periods) {
		return nil, fmt.Errorf("mpi: CartCreate needs matching dims/periods, got %d/%d", len(dims), len(periods))
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("mpi: CartCreate dimension %d not positive", d)
		}
		n *= d
	}
	if n != c.Size() {
		return nil, fmt.Errorf("mpi: Cartesian grid has %d nodes but communicator has %d", n, c.Size())
	}
	_ = reorder
	return &Cart{
		Comm:    c.Dup(),
		dims:    append([]int(nil), dims...),
		periods: append([]bool(nil), periods...),
	}, nil
}

// Coords returns the Cartesian coordinates of a rank.
func (ct *Cart) Coords(rank int) []int {
	ct.checkRank(rank)
	out := make([]int, len(ct.dims))
	for i, d := range ct.dims {
		out[i] = rank % d
		rank /= d
	}
	return out
}

// CartRank returns the rank at the given coordinates; out-of-range
// coordinates wrap on periodic dimensions and return ProcNull otherwise.
func (ct *Cart) CartRank(coords []int) int {
	if len(coords) != len(ct.dims) {
		// Asserts a programmer error: coordinates of another grid's rank.
		panic(fmt.Sprintf("mpi: CartRank got %d coords for %d dims", len(coords), len(ct.dims)))
	}
	rank := 0
	stride := 1
	for i, d := range ct.dims {
		c := coords[i]
		if c < 0 || c >= d {
			if !ct.periods[i] {
				return ProcNull
			}
			c = ((c % d) + d) % d
		}
		rank += c * stride
		stride *= d
	}
	return rank
}

// Shift returns the (source, dest) ranks for a displacement along one
// dimension, as MPI_Cart_shift does: dest is disp steps up, source is
// disp steps down; either may be ProcNull at a non-periodic edge.
func (ct *Cart) Shift(dim, disp int) (src, dst int) {
	if dim < 0 || dim >= len(ct.dims) {
		// Asserts a programmer error: a dimension the grid does not have.
		panic(fmt.Sprintf("mpi: Shift dimension %d out of range", dim))
	}
	me := ct.Coords(ct.Rank())
	up := append([]int(nil), me...)
	up[dim] += disp
	down := append([]int(nil), me...)
	down[dim] -= disp
	return ct.CartRank(down), ct.CartRank(up)
}

// Neighbors lists the distinct non-null ±1 neighbors over all dimensions,
// the declared topology HFAST can provision from.
func (ct *Cart) Neighbors() []int {
	seen := map[int]bool{}
	var out []int
	for dim := range ct.dims {
		for _, disp := range []int{1, -1} {
			_, dst := ct.Shift(dim, disp)
			if dst != ProcNull && dst != ct.Rank() && !seen[dst] {
				seen[dst] = true
				out = append(out, dst)
			}
		}
	}
	return out
}

// --- ProcNull handling on the point-to-point surface ---

// isNull reports whether a peer designates the null process.
func isNull(peer int) bool { return peer == ProcNull }

// nullStatus is returned by operations on ProcNull.
func nullStatus() Status { return Status{Source: ProcNull, Tag: AnyTag} }
