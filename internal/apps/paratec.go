package apps

import "github.com/hfast-sim/hfast/internal/mpi"

// RunPARATEC reproduces the communication skeleton of PARATEC: plane-wave
// density functional theory whose 3D FFTs require two stages of global
// transposes per iteration (the paper's reference [6]).
//
// The first transpose is non-local: every rank exchanges similar-size
// messages with every other rank — the "uniform background of 32 KB
// messages" in Figure 10 — so the TDC equals P−1 and stays there under
// thresholding until the cutoff passes ~32 KB (the background sizes sit
// just below it). The second transpose touches only neighboring ranks,
// adding the heavy diagonal: a few large chunks plus many small packing
// messages whose count is what drags the median point-to-point buffer
// down to tens of bytes despite the megabytes in flight. This is the
// paper's case iv — the one workload that genuinely consumes an FCN's
// full bisection bandwidth, and the acknowledged worst case for HFAST.
func RunPARATEC(c *mpi.Comm, cfg Config) {
	cfg = cfg.withDefaults(32)
	procs := c.Size()
	me := c.Rank()

	c.RegionBegin("init")
	// Pseudopotential and wavefunction setup broadcasts.
	for i := 0; i < 2; i++ {
		pb := mpi.Buf{}
		if me == 0 {
			pb = mpi.Size(4)
		}
		c.Bcast(0, &pb)
	}
	c.Barrier()
	c.RegionEnd()

	const (
		globalTag mpi.Tag = 60
		localTag  mpi.Tag = 61
		packTag   mpi.Tag = 62
	)

	// backgroundBytes is the first-transpose message size for a pair:
	// similar between all pairs, 24–32 KB, deliberately below the 32 KB
	// cutoff where Figure 10 finally shows the TDC dropping.
	backgroundBytes := func(lo, hi int) int {
		return 24576 + hashRange(0, 8064, uint64(lo), uint64(hi), uint64(cfg.Seed))
	}
	diagChunk := cfg.Scale * 16384 // second-transpose columns, well above 32 KB

	// Request lists are refilled every step: Wait leaves the slice its caller's.
	recvs := make([]*mpi.Request, 0, procs-1)
	sends := make([]*mpi.Request, 0, procs-1)
	reqs := make([]*mpi.Request, 0, 2*8*44)

	for s := 0; s < cfg.Steps; s++ {
		c.RegionBegin(stepRegion(s))

		// Stage 1: global transpose. Post all receives, then all sends,
		// then retire every request individually — the Isend/Irecv/Wait
		// thirds of Figure 2.
		recvs, sends, reqs = recvs[:0], sends[:0], reqs[:0]
		for peer := 0; peer < procs; peer++ {
			if peer == me {
				continue
			}
			recvs = append(recvs, c.Irecv(peer, globalTag))
		}
		for peer := 0; peer < procs; peer++ {
			if peer == me {
				continue
			}
			lo, hi := orderPair(me, peer)
			sends = append(sends, c.Isend(peer, globalTag, mpi.Size(backgroundBytes(lo, hi))))
		}
		for _, r := range recvs {
			c.Wait(r)
		}
		for _, r := range sends {
			c.Wait(r)
		}

		// Stage 2: local transpose with neighboring ranks only (±1..±4
		// in the column ordering): a few large column chunks plus many
		// small packing messages per neighbor. Everything is posted
		// nonblocking before any wait, so the ring of neighbor exchanges
		// cannot form a circular wait.
		for _, dn := range []int{1, 2, 3, 4} {
			for _, dir := range []int{+1, -1} {
				peer := (me + dir*dn + procs) % procs
				if peer == me {
					continue
				}
				for chunk := 0; chunk < 4; chunk++ {
					reqs = append(reqs, c.Irecv(peer, localTag+mpi.Tag(8*chunk+4+dir*dn)))
				}
				for pk := 0; pk < 40; pk++ {
					reqs = append(reqs, c.Irecv(peer, packTag))
				}
			}
		}
		for _, dn := range []int{1, 2, 3, 4} {
			for _, dir := range []int{+1, -1} {
				peer := (me + dir*dn + procs) % procs
				if peer == me {
					continue
				}
				for chunk := 0; chunk < 4; chunk++ {
					reqs = append(reqs, c.Isend(peer, localTag+mpi.Tag(8*chunk+4-dir*dn), mpi.Size(diagChunk)))
				}
				for pk := 0; pk < 40; pk++ {
					reqs = append(reqs, c.Isend(peer, packTag, mpi.Size(64)))
				}
			}
		}
		for _, r := range reqs {
			c.Wait(r)
		}

		// Total-energy reduction once per iteration (8-byte payload).
		c.Allreduce(mpi.Size(8))
		c.RegionEnd()
	}
}
