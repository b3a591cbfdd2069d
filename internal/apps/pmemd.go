package apps

import (
	"math"

	"github.com/hfast-sim/hfast/internal/bdp"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// pmemdDecay controls how fast per-pair traffic falls off with the
// distance between spatial domains (paper: "each task's data transfer with
// another task drops off as their spatial regions become more distant").
const pmemdDecay = 0.45

// pmemdPairBytes is the per-step exchange volume between two ranks at
// torus distance d, with a molecule-dependent jitter. base is the volume
// between adjacent domains.
func pmemdPairBytes(base int, d int, lo, hi int, seed int64) int {
	v := float64(base) * math.Exp(-pmemdDecay*float64(d-1))
	// The drop-off "depends strongly on the molecule(s) in the
	// simulation": jitter each pair by ×[0.6, 1.4).
	v *= 0.6 + 0.8*hashFloat(uint64(lo), uint64(hi), uint64(seed))
	n := int(v)
	if n < bdp.TargetThreshold {
		// Sub-bandwidth-delay-product pairs degenerate to tiny
		// coordination payloads — including the zero-byte handshakes the
		// paper's Table 3 footnote describes (a partner expects a message
		// that is not necessary for the computation). At large P these
		// dominate the call count and drag the median send size down to
		// tens of bytes.
		tiny := [4]int{0, 48, 72, 96}
		return tiny[hashRange(0, 4, uint64(lo), uint64(hi), uint64(seed), 11)]
	}
	return n
}

// RunPMEMD reproduces the communication skeleton of PMEMD: classical
// molecular dynamics with the particle-mesh Ewald method under a spatial
// decomposition.
//
// Every rank exchanges with every other rank each step, but the volume
// decays exponentially with the distance between their spatial domains, so
// at P=256 only the ~55 nearest domains stay above the 2 KB threshold
// while at P=64 (4× the atoms per rank) every pair does — reproducing
// Table 3's (max,avg) of (63,63) at P=64 versus (255,55) at P=256. Rank 0
// additionally acts as the load-balancing master, pushing ≥4 KB
// assignments to all ranks, which keeps the *maximum* TDC at P−1 even
// after thresholding: the max≫avg disparity HFAST targets (case iii).
//
// The call mix is dominated by Isend/Irecv retired through MPI_Waitany
// (Figure 2), and far-field pairs degenerate to zero-byte sends, which is
// why the median point-to-point buffer collapses from ~6 KB at P=64 to
// tens of bytes at P=256.
func RunPMEMD(c *mpi.Comm, cfg Config) {
	cfg = cfg.withDefaults(24576)
	procs := c.Size()
	me := c.Rank()
	// The domains tile the Baseline torus; its error is for procs < 1.
	torus, _ := meshtorus.Baseline(procs)

	// Strong scaling: the molecule is fixed, so per-pair volume shrinks
	// with the process count.
	base := 64 * cfg.Scale / procs

	c.RegionBegin("init")
	// Topology and force-field broadcast.
	tb := mpi.Buf{}
	if me == 0 {
		tb = mpi.Size(1 << 20)
	}
	c.Bcast(0, &tb)
	c.Barrier()
	c.RegionEnd()

	const (
		forceTag  mpi.Tag = 50
		masterTag mpi.Tag = 51
	)
	for s := 0; s < cfg.Steps; s++ {
		c.RegionBegin(stepRegion(s))

		recvs := make([]*mpi.Request, 0, procs-1)
		sends := make([]*mpi.Request, 0, procs+2)
		for peer := 0; peer < procs; peer++ {
			if peer == me {
				continue
			}
			recvs = append(recvs, c.Irecv(peer, forceTag))
		}
		sendsSinceDrain := 0
		for peer := 0; peer < procs; peer++ {
			if peer == me {
				continue
			}
			lo, hi := orderPair(me, peer)
			size := pmemdPairBytes(base, torus.Distance(me, peer), lo, hi, cfg.Seed)
			if me == 0 || peer == 0 {
				// Load-balancing master traffic rides the same exchange
				// and keeps it above the bandwidth-delay product.
				if size < 4096 {
					size = 4096
				}
			}
			sends = append(sends, c.Isend(peer, forceTag, mpi.Size(size)))
			// Drain completed sends in batches so buffers can be reused;
			// PMEMD uses Waitany for this too.
			sendsSinceDrain++
			if sendsSinceDrain == 8 && len(sends) > 0 {
				i := c.Waitany(sends)
				sends = append(sends[:i], sends[i+1:]...)
				sendsSinceDrain = 0
			}
		}

		// Reaction-field accumulation: retire each force receive as it
		// lands (the Waitany-dominated loop of Figure 2).
		for len(recvs) > 0 {
			i := c.Waitany(recvs)
			recvs = append(recvs[:i], recvs[i+1:]...)
		}
		// The remaining sends retire together once the step's force
		// buffers are no longer needed (part of Figure 2's "Other").
		c.Waitall(sends)

		// Master exchanges per-step load telemetry with rank 0.
		if me == 0 {
			for peer := 1; peer < procs; peer++ {
				c.Wait(c.Irecv(peer, masterTag))
			}
		} else {
			c.Wait(c.Isend(0, masterTag, mpi.Size(96)))
		}

		// Energy reduction once per step.
		c.Allreduce(mpi.Size(8 * 96))
		c.RegionEnd()
	}
}
