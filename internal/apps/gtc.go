package apps

import "github.com/hfast-sim/hfast/internal/mpi"

// gtcLayout describes GTC's two-level decomposition: a 1D domain
// decomposition into toroidal slices, with an additional particle
// decomposition of m ranks inside each slice.
type gtcLayout struct {
	ntor int // number of toroidal domains
	m    int // particle PEs per domain
	t    int // this rank's toroidal domain
	p    int // this rank's particle PE index
}

// gtcDecompose picks the largest toroidal domain count ≤ limit that
// divides P, matching GTC's production configuration of 64 toroidal
// domains (so P=64 runs one PE per domain, P=256 runs four).
func gtcDecompose(rank, procs, limit int) gtcLayout {
	ntor := 1
	for d := 1; d <= limit && d <= procs; d++ {
		if procs%d == 0 {
			ntor = d
		}
	}
	m := procs / ntor
	return gtcLayout{ntor: ntor, m: m, t: rank / m, p: rank % m}
}

// rank returns the world rank of particle PE p in toroidal domain t.
func (l gtcLayout) rank(t, p int) int {
	t = ((t % l.ntor) + l.ntor) % l.ntor
	return t*l.m + p
}

// RunGTC reproduces the communication skeleton of GTC: a gyrokinetic
// particle-in-cell code with a 1D toroidal domain decomposition plus a
// particle decomposition within each domain.
//
// Each rank exchanges 128 KB particle-shift buffers with its two toroidal
// ring neighbors every step (the dominant traffic), redistributes
// particles among its in-partition peers with load-dependent sizes, and —
// when the particle decomposition is active — the partition masters
// exchange poloidal diagnostics with a handful of non-ring masters at
// mixed sizes. The result is the paper's case-iii signature: a low average
// TDC (~4 at 2 KB for P=256) with a much higher maximum (~17
// unthresholded, ~10 at 2 KB) concentrated on the masters. Collectives
// dominate the call count (MPI_Gather ≈ 47% in Figure 2) because the
// charge deposition gathers onto the partition master every sub-cycle.
func RunGTC(c *mpi.Comm, cfg Config) {
	cfg = cfg.withDefaults(64)
	l := gtcDecompose(c.Rank(), c.Size(), cfg.Scale)
	me := c.Rank()

	// Partition communicator: the m ranks of this toroidal domain.
	part := c.Split(l.t, l.p)

	c.RegionBegin("init")
	pb := mpi.Buf{}
	if me == 0 {
		pb = mpi.Size(64)
	}
	c.Bcast(0, &pb)
	c.Barrier()
	c.RegionEnd()

	const (
		shiftTag mpi.Tag = 30
		redisTag mpi.Tag = 31
		diagTag  mpi.Tag = 32
	)
	shiftBytes := 128 << 10
	right := l.rank(l.t+1, l.p)
	left := l.rank(l.t-1, l.p)

	for s := 0; s < cfg.Steps; s++ {
		c.RegionBegin(stepRegion(s))

		// Charge deposition: sub-cycled gathers of grid moments onto the
		// partition master (100-byte payloads, Table 3's median collective
		// buffer).
		for g := 0; g < 13; g++ {
			part.Gather(0, mpi.Size(100))
		}

		// Toroidal particle shifts: alternating sendrecv with the ring
		// neighbors, 128 KB per shift.
		for sh := 0; sh < 4; sh++ {
			c.Sendrecv(right, shiftTag, mpi.Size(shiftBytes), left, shiftTag)
			c.Sendrecv(left, shiftTag, mpi.Size(shiftBytes), right, shiftTag)
		}

		// In-partition particle redistribution: pairwise exchanges whose
		// size depends on the (deterministic) particle imbalance, so some
		// land above and some below the 2 KB threshold.
		for q := 0; q < l.m; q++ {
			if q == l.p {
				continue
			}
			peer := l.rank(l.t, q)
			lo, hi := orderPair(me, peer)
			size := hashRange(256, 4096, uint64(lo), uint64(hi), uint64(cfg.Seed))
			c.Sendrecv(peer, redisTag, mpi.Size(size), peer, redisTag)
		}

		// Poloidal diagnostics among partition masters (only meaningful
		// when the particle decomposition is active): a non-ring partner
		// set at mixed sizes. This is what gives GTC its high maximum TDC
		// against a bounded average.
		if l.p == 0 {
			// Offsets divide the toroidal ring so every exchange ring has
			// even length; ordering directions by the master's parity on
			// that ring makes each blocking Sendrecv round a perfect
			// pairwise matching (no circular waits).
			var offsets []int
			for dt := 2; dt <= l.ntor/2 && dt <= 32; dt *= 2 {
				if l.ntor%dt == 0 {
					offsets = append(offsets, dt)
				}
			}
			if l.m == 1 && len(offsets) > 1 {
				// Without a particle decomposition only the short-range
				// grid diagnostics remain, all latency-bound.
				offsets = offsets[:1]
			}
			for _, dt := range offsets {
				dirs := [2]int{+1, -1}
				if (l.t/dt)%2 == 1 {
					dirs = [2]int{-1, +1}
				}
				for _, dir := range dirs {
					peer := l.rank(l.t+dir*dt, 0)
					if peer == me {
						continue
					}
					var size int
					if l.m == 1 {
						size = 512
					} else {
						lo, hi := orderPair(me, peer)
						size = hashRange(512, 4096, uint64(lo), uint64(hi), uint64(cfg.Seed), 7)
					}
					c.Sendrecv(peer, diagTag, mpi.Size(size), peer, diagTag)
				}
			}
		}

		// Field solve residual checks on the partition.
		for a := 0; a < 3; a++ {
			part.Allreduce(mpi.Size(32))
		}
		c.RegionEnd()
	}
}

// orderPair returns the pair in canonical (low, high) order so both sides
// hash the same key.
func orderPair(a, b int) (int, int) {
	if a < b {
		return a, b
	}
	return b, a
}
