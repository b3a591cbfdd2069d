package apps

import (
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// lbmhdOffsets are the 12 face-diagonal streaming directions left after
// LBMHD's optimization folds the 27-direction D3Q27 lattice down to 12
// communicating neighbors (the paper's Figure 7 discussion).
var lbmhdOffsets = [12][3]int{
	{1, 1, 0}, {1, -1, 0}, {-1, 1, 0}, {-1, -1, 0},
	{1, 0, 1}, {1, 0, -1}, {-1, 0, 1}, {-1, 0, -1},
	{0, 1, 1}, {0, 1, -1}, {0, -1, 1}, {0, -1, -1},
}

// RunLBMHD reproduces the communication skeleton of LBMHD: a lattice
// Boltzmann magneto-hydrodynamics code.
//
// The interpolation between the diagonal streaming lattice and the
// underlying structured grid makes every rank exchange with 12 partners
// that are *not* its mesh neighbors — the pattern is isotropic but not
// isomorphic to a mesh (hypothesis case ii), producing the scattered
// off-diagonal bands of the paper's Figure 7. The process grid is fully
// periodic, so the TDC is 12 regardless of concurrency, and the ~800 KB
// exchange buffers (Scale²×8 bytes×4 variables) sit far above the 2 KB
// threshold, so thresholding never reduces it.
func RunLBMHD(c *mpi.Comm, cfg Config) {
	cfg = cfg.withDefaults(160)
	g := meshtorus.Mesh{Dims: meshtorus.NearCube(c.Size(), 3), Wrap: []bool{true, true, true}}
	me := c.Rank()

	msgBytes := cfg.Scale * cfg.Scale * 8 * 4

	c.RegionBegin("init")
	pb := mpi.Buf{}
	if me == 0 {
		pb = mpi.Size(32)
	}
	c.Bcast(0, &pb)
	c.Barrier()
	c.RegionEnd()

	const streamTag mpi.Tag = 20
	for s := 0; s < cfg.Steps; s++ {
		c.RegionBegin(stepRegion(s))

		// Stream the distribution functions two directions at a time,
		// retiring each group with one Waitall: 12 Isend + 12 Irecv +
		// 6 Waitall per step, the 40/40/20 call mix of Figure 2.
		for d := 0; d < len(lbmhdOffsets); d += 2 {
			group := make([]*mpi.Request, 0, 4)
			for k := d; k < d+2; k++ {
				o := lbmhdOffsets[k]
				p := g.Offset(me, o[0], o[1], o[2])
				group = append(group, c.Irecv(p, streamTag+mpi.Tag(k)))
			}
			for k := d; k < d+2; k++ {
				o := lbmhdOffsets[k]
				p := g.Offset(me, -o[0], -o[1], -o[2])
				group = append(group, c.Isend(p, streamTag+mpi.Tag(k), mpi.Size(msgBytes)))
			}
			c.Waitall(group)
		}

		// Occasional stability check; LBMHD's collectives are ~0.2% of
		// calls with 8-byte payloads.
		if s%8 == 7 {
			c.Allreduce(mpi.Size(8))
		}
		c.RegionEnd()
	}
}
