package experiments

import (
	"fmt"
	"io"
	"slices"

	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/mpi"
	"github.com/hfast-sim/hfast/internal/topology"
)

// The §2.3 topology-directive study runs a Cactus-shaped stencil: a
// near-cube Cartesian grid (4×4×4), periodic in z, exchanging 300 KB
// ghost zones.
var hintsGrid = meshtorus.Mesh{Dims: meshtorus.NearCube(hintsProcs, 3), Wrap: []bool{false, false, true}}

const (
	hintsProcs = 64
	hintsSteps = 4
)

// hintsData provisions the stencil's fabric twice: from the neighbors its
// declared grid gives, before any message, and from the traffic the same
// run then measures (DESIGN.md A8).
func hintsData() (hinted, measured *hfast.Assignment, err error) {
	hints := make([][]int, hintsProcs)
	for r := range hints {
		hints[r] = hintsGrid.Neighbors(r)
	}
	set := ipm.NewCollectorSet(0)
	w := mpi.NewWorld(hintsProcs, mpi.WithTracerFactory(set.Factory))
	err = w.Run(func(c *mpi.Comm) {
		// shift is the rank disp steps along dim, ProcNull off an open edge.
		shift := func(dim, disp int) int {
			var delta [3]int
			delta[dim] = disp
			if r := hintsGrid.Offset(c.Rank(), delta[:]...); r >= 0 {
				return r
			}
			return mpi.ProcNull
		}
		for step := 0; step < hintsSteps; step++ {
			for dim := range hintsGrid.Dims {
				for _, disp := range []int{1, -1} {
					c.Sendrecv(shift(dim, disp), mpi.Tag(dim), mpi.Size(300<<10), shift(dim, -disp), mpi.Tag(dim))
				}
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if hinted, err = hfast.AssignFromHints(hints, hfast.DefaultBlockSize); err != nil {
		return nil, nil, err
	}
	g, err := topology.FromProfile(set.Profile("stencil", hintsProcs, nil), ipm.AllRegions)
	if err != nil {
		return nil, nil, err
	}
	if measured, err = hfast.Assign(g, 0, hfast.DefaultBlockSize); err != nil {
		return nil, nil, err
	}
	return hinted, measured, nil
}

// samePartners reports whether two fabrics provision every node with the
// same partner list.
func samePartners(a, b *hfast.Assignment) bool {
	return slices.EqualFunc(a.Partners, b.Partners, slices.Equal[[]int])
}

// Hints renders the topology-directive study: whether the fabric declared
// before launch is the one the measured traffic asks for.
func Hints(w io.Writer) error {
	hinted, measured, err := hintsData()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Topology directives (§2.3): %v grid, periodic %v, P=%d\n", hintsGrid.Dims, hintsGrid.Wrap, hintsProcs)
	for _, f := range []struct {
		name string
		a    *hfast.Assignment
	}{{"hint-provisioned", hinted}, {"measured", measured}} {
		fmt.Fprintf(w, "%-16s fabric: %d blocks, worst route %d SB hops\n", f.name, f.a.TotalBlocks, f.a.MaxRoute().SBHops)
	}
	if samePartners(hinted, measured) {
		fmt.Fprintln(w, "declared and measured partners are identical: the circuit switch was right before the first message")
	} else {
		fmt.Fprintln(w, "declared and measured partners differ: runtime reconfiguration would adjust the fabric")
	}
	return nil
}
