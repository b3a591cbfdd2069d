package apps

import (
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// RunAMR is a minimal adaptive-mesh-refinement communication skeleton:
// the partner set migrates mid-run, which none of the paper's six static
// skeletons exhibit. It exists to exercise the streaming phase detector
// and the static-vs-replanned provisioning study.
//
// Every rank always exchanges coarse-grid ghost zones with its 6 mesh
// neighbors. On top of that, the refined region wanders: the run is
// divided into phases (Steps/4 steps each, at least one), and within a
// phase each rank also exchanges fine-level patch boundaries with a
// hashed set of distant ranks that is re-drawn at every phase boundary —
// modeling patches being re-distributed as the refinement follows the
// solution. Consecutive phases therefore share only the mesh edges (a
// Jaccard distance well above the detector's enter threshold), while the
// union over all phases has several times any single phase's degree: a
// per-phase replanner provisions ~1 block per node where a static union
// plan needs 3+, or — on equal hardware — spills migrated partners to
// the collective network.
func RunAMR(c *mpi.Comm, cfg Config) {
	cfg = cfg.withDefaults(96)
	p := c.Size()
	g := meshtorus.Mesh{Dims: meshtorus.NearCube(p, 3), Wrap: []bool{false, false, false}}
	me := c.Rank()

	// Refinement ratio 2 halves the grid spacing, so a refined patch face
	// carries the same point count as a coarse ghost face.
	coarseBytes := cfg.Scale * cfg.Scale * 8
	fineBytes := cfg.Scale * cfg.Scale * 8
	stepsPerPhase := cfg.Steps / 4
	if stepsPerPhase < 1 {
		stepsPerPhase = 1
	}

	c.RegionBegin("init")
	pb := mpi.Buf{}
	if me == 0 {
		pb = mpi.Size(64)
	}
	c.Bcast(0, &pb)
	c.Barrier()
	c.RegionEnd()

	const coarseTag, fineTag mpi.Tag = 30, 60
	for s := 0; s < cfg.Steps; s++ {
		phase := s / stepsPerPhase
		offs := amrOffsets(p, phase, cfg.Seed)

		c.RegionBegin(stepRegion(s))

		// Coarse ghost exchange: the persistent mesh backbone. Tags name
		// the flow direction (2d = +axis, 2d+1 = -axis), so both sides of
		// an edge agree on the match regardless of their own coordinates.
		var reqs []*mpi.Request
		for d, off := range [3][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
			plus := g.Offset(me, off[0], off[1], off[2])
			minus := g.Offset(me, -off[0], -off[1], -off[2])
			if minus >= 0 {
				reqs = append(reqs, c.Irecv(minus, coarseTag+mpi.Tag(2*d)))
				reqs = append(reqs, c.Isend(minus, coarseTag+mpi.Tag(2*d+1), mpi.Size(coarseBytes)))
			}
			if plus >= 0 {
				reqs = append(reqs, c.Irecv(plus, coarseTag+mpi.Tag(2*d+1)))
				reqs = append(reqs, c.Isend(plus, coarseTag+mpi.Tag(2*d), mpi.Size(coarseBytes)))
			}
		}
		c.Waitall(reqs)

		// Fine-level patch exchange with this phase's migrated partners:
		// every rank pairs with me±off per offset, tags again naming the
		// flow direction per offset.
		reqs = reqs[:0]
		for k, off := range offs {
			up, down := (me+off)%p, (me-off+p)%p
			reqs = append(reqs, c.Irecv(down, fineTag+mpi.Tag(2*k)))
			reqs = append(reqs, c.Irecv(up, fineTag+mpi.Tag(2*k+1)))
			reqs = append(reqs, c.Isend(up, fineTag+mpi.Tag(2*k), mpi.Size(fineBytes)))
			reqs = append(reqs, c.Isend(down, fineTag+mpi.Tag(2*k+1), mpi.Size(fineBytes)))
		}
		c.Waitall(reqs)

		// Regridding decision at phase end: a tiny Allreduce, like the
		// skeletons' stability checks.
		if (s+1)%stepsPerPhase == 0 {
			c.Allreduce(mpi.Size(8))
		}
		c.RegionEnd()
	}
}

// amrOffsets returns phase ph's 4 fine-level ring offsets. Every rank
// pairs with me±off for each offset, giving up to 8 distant partners;
// the shared offset list keeps the exchange deadlock-free without any
// coordination, and re-hashing it per phase migrates the whole
// fine-level partner set at once. Consecutive phases draw disjoint
// offsets (p−off aliases included, since ±off spans the same edges), so
// a phase change always replaces the full fine-level partner set — the
// migration signal the phase detector is built to catch.
func amrOffsets(p, ph int, seed int64) []int {
	if p < 5 {
		return nil
	}
	prev := map[int]bool{}
	cur := make([]int, 0, 4)
	for q := 0; q <= ph; q++ {
		next := map[int]bool{}
		cur = cur[:0]
		for salt := 0; len(cur) < 4; salt++ {
			// Offsets land in [2, p-2] so they never collide with the ±1
			// mesh neighbors along x.
			off := hashRange(2, p-1, uint64(seed), 0xa318, uint64(q), uint64(len(cur)), uint64(salt))
			if salt < 8*p && (prev[off] || prev[p-off] || next[off] || next[p-off]) {
				continue // small worlds may run out of disjoint offsets
			}
			next[off], next[p-off] = true, true
			cur = append(cur, off)
		}
		prev = next
	}
	return cur
}
