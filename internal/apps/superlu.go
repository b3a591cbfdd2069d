package apps

import (
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// RunSuperLU reproduces the communication skeleton of SuperLU_DIST: a
// right-looking sparse LU factorization on a 2D block-cyclic process grid
// (Li & Demmel 2003, the paper's reference [13]).
//
// Initialization distributes the input matrix from rank 0 to everyone —
// large transfers the paper explicitly excludes via IPM regions, so the
// skeleton wraps them in the "init" region. During factorization, the
// owner column of each elimination panel sends L blocks across its process
// row and the owner row sends U blocks down its process column; over the
// block-cyclic schedule every rank therefore exchanges panels (well above
// 2 KB) with all (pr−1)+(pc−1) ≈ 2√P−2 ranks sharing its grid row and
// column, which is the paper's thresholded TDC of 14 at P=64 and 30 at
// P=256, scaling with √P. Tiny pivot/row-count notifications (64/48/0
// bytes, the paper's zero-byte sends) rotate across every other rank, so
// the unthresholded TDC is P−1 while the median send stays a few dozen
// bytes.
func RunSuperLU(c *mpi.Comm, cfg Config) {
	cfg = cfg.withDefaults(96)
	procs := c.Size()
	me := c.Rank()
	grid := meshtorus.NearCube(procs, 2)
	pr, pc := grid[0], grid[1]
	myRow, myCol := me/pc, me%pc

	rankAt := func(row, col int) int { return row*pc + col }

	c.RegionBegin("init")
	// Matrix distribution: rank 0 ships each rank its block rows.
	blockBytes := cfg.Scale * cfg.Scale * 8 * 4
	if me == 0 {
		for r := 1; r < procs; r++ {
			c.Send(r, 1, mpi.Size(blockBytes))
		}
	} else {
		c.Recv(0, 1)
	}
	c.Barrier()
	c.RegionEnd()

	// Elimination schedule: panels proceed block-cyclically. The panel
	// count scales with the grid so the block-cyclic wrap covers every row
	// and column several times.
	panels := cfg.Steps * 2 * pr
	// Control fan-out per panel; must satisfy q*panels >= procs-1 so the
	// rotating notifications reach every rank during the factorization.
	q := (procs - 1 + panels - 1) / panels
	if q < 2 {
		q = 2
	}

	const (
		lTag    mpi.Tag = 40
		uTag    mpi.Tag = 41
		ctrlTag mpi.Tag = 42
	)
	// ctrlSize cycles through the small notification payloads, including
	// the zero-byte sends Table 3 footnotes.
	ctrlSize := func(k, j int) int {
		switch (k + j) % 4 {
		case 0:
			return 64
		case 1:
			return 48
		case 2:
			return 0
		default:
			return 64
		}
	}

	panelsPerStep := panels / cfg.Steps
	for k := 0; k < panels; k++ {
		if k%panelsPerStep == 0 {
			if k > 0 {
				c.RegionEnd()
			}
			c.RegionBegin(stepRegion(k / panelsPerStep))
		}
		ownerRow := k % pr
		ownerCol := k % pc
		// Panel height shrinks as elimination proceeds.
		panelBytes := 4096 + (panels-k)*cfg.Scale*8/2

		// L panel: owner column fans out across each process row.
		if myCol == ownerCol {
			for col := 0; col < pc; col++ {
				if col == myCol {
					continue
				}
				req := c.Isend(rankAt(myRow, col), lTag, mpi.Size(panelBytes))
				c.Wait(req)
			}
		} else {
			req := c.Irecv(rankAt(myRow, ownerCol), lTag)
			c.Wait(req)
		}

		// U panel: owner row fans out down each process column.
		if myRow == ownerRow {
			for row := 0; row < pr; row++ {
				if row == myRow {
					continue
				}
				req := c.Isend(rankAt(row, myCol), uTag, mpi.Size(panelBytes))
				c.Wait(req)
			}
		} else {
			req := c.Irecv(rankAt(ownerRow, myCol), uTag)
			c.Wait(req)
		}

		// Rotating pivot/row-count notifications: each rank sends q tiny
		// blocking messages and receives exactly q (the rotation is a
		// permutation), touching every rank over the run.
		for j := 0; j < q; j++ {
			dst := (me + 1 + k*q + j) % procs
			if dst == me {
				dst = (dst + 1) % procs
			}
			c.Send(dst, ctrlTag, mpi.Size(ctrlSize(k, j)))
		}
		for j := 0; j < q; j++ {
			c.Recv(mpi.AnySource, ctrlTag)
		}

		// Panel completion broadcast from the diagonal owner.
		db := mpi.Buf{}
		diag := rankAt(ownerRow, ownerCol)
		if me == diag {
			db = mpi.Size(24)
		}
		c.Bcast(diag, &db)
	}
	c.RegionEnd()
}
