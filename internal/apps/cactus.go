package apps

import (
	"slices"

	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// RunCactus reproduces the communication skeleton of Cactus: a 3D
// finite-difference code solving Einstein's equations on a regular grid.
//
// The process grid is non-periodic in x and y and periodic in z (the
// standard Cactus "wormhole" wrapping), so each rank exchanges ghost zones
// with up to 6 face neighbors; boundary ranks have fewer, which is why the
// paper measures an average TDC of ~5 against a maximum of 6, independent
// of both concurrency and message-size thresholding (hypothesis case i).
//
// Ghost faces are Scale×Scale grid points of 8-byte doubles (the default
// Scale of 194 gives the ~300 KB point-to-point buffers of Table 3), and
// the only collective is a tiny convergence-check Allreduce every few
// steps, matching Cactus' >99% point-to-point call mix in Figure 2.
func RunCactus(c *mpi.Comm, cfg Config) {
	cfg = cfg.withDefaults(194)
	g := meshtorus.Mesh{Dims: meshtorus.NearCube(c.Size(), 3), Wrap: []bool{false, false, true}}
	me := c.Rank()

	faceBytes := cfg.Scale * cfg.Scale * 8

	// The distinct face neighbours, in rank order.
	partners := g.Neighbors(me)
	slices.Sort(partners)

	c.RegionBegin("init")
	// Parameter file broadcast and startup synchronization.
	pb := mpi.Buf{}
	if me == 0 {
		pb = mpi.Size(24)
	}
	c.Bcast(0, &pb)
	c.Barrier()
	c.RegionEnd()

	const ghostTag mpi.Tag = 10
	for s := 0; s < cfg.Steps; s++ {
		c.RegionBegin(stepRegion(s))

		recvs := make([]*mpi.Request, 0, len(partners))
		sends := make([]*mpi.Request, 0, len(partners))
		for _, p := range partners {
			recvs = append(recvs, c.Irecv(p, ghostTag))
		}
		for _, p := range partners {
			sends = append(sends, c.Isend(p, ghostTag, mpi.Size(faceBytes)))
		}
		// Cactus waits on each ghost receive as the corresponding face
		// becomes needed by the update loop...
		for _, r := range recvs {
			c.Wait(r)
		}
		// ...then retires sends: the first half individually as buffers are
		// reused, the remainder in one Waitall.
		half := len(sends) / 2
		for _, r := range sends[:half] {
			c.Wait(r)
		}
		if len(sends[half:]) > 0 {
			c.Waitall(sends[half:])
		}

		// Periodic global convergence check (8-byte Allreduce): Cactus'
		// only collective, <1% of calls.
		if s%8 == 7 {
			c.Allreduce(mpi.Size(8))
		}
		c.RegionEnd()
	}
}
