package mpi

import (
	"fmt"
	"testing"
)

func TestCartCreateValidation(t *testing.T) {
	run(t, 4, func(c *Comm) {
		if _, err := c.CartCreate([]int{3}, []bool{true}, false); err == nil {
			panic("size mismatch accepted")
		}
		if _, err := c.CartCreate([]int{2, 2}, []bool{true}, false); err == nil {
			panic("dims/periods mismatch accepted")
		}
		if _, err := c.CartCreate(nil, nil, false); err == nil {
			panic("empty dims accepted")
		}
		ct, err := c.CartCreate([]int{2, 2}, []bool{true, false}, true)
		if err != nil {
			panic(err)
		}
		if ct.ID() == c.ID() {
			panic("cart did not dup the communicator")
		}
	})
}

func TestCartCoordsRank(t *testing.T) {
	run(t, 12, func(c *Comm) {
		ct, err := c.CartCreate([]int{3, 4}, []bool{false, false}, false)
		if err != nil {
			panic(err)
		}
		for r := 0; r < 12; r++ {
			if got := ct.CartRank(ct.Coords(r)); got != r {
				panic(fmt.Sprintf("round trip broke at %d: %d", r, got))
			}
		}
		// Off-grid without wrap: ProcNull; with wrap: wraps.
		if ct.CartRank([]int{-1, 0}) != ProcNull {
			panic("non-periodic edge did not yield ProcNull")
		}
	})
}

func TestCartShift(t *testing.T) {
	run(t, 8, func(c *Comm) {
		ct, err := c.CartCreate([]int{4, 2}, []bool{true, false}, false)
		if err != nil {
			panic(err)
		}
		me := ct.Coords(ct.Rank())
		src, dst := ct.Shift(0, 1) // periodic dimension
		wantDst := ct.CartRank([]int{me[0] + 1, me[1]})
		wantSrc := ct.CartRank([]int{me[0] - 1, me[1]})
		if src != wantSrc || dst != wantDst {
			panic(fmt.Sprintf("shift(0,1): got (%d,%d) want (%d,%d)", src, dst, wantSrc, wantDst))
		}
		// Non-periodic dimension: the edge sees ProcNull.
		src, dst = ct.Shift(1, 1)
		if me[1] == 1 && dst != ProcNull {
			panic("top edge should shift into ProcNull")
		}
		if me[1] == 0 && src != ProcNull {
			panic("bottom edge should receive from ProcNull")
		}
	})
}

func TestCartHaloExchangeWithProcNull(t *testing.T) {
	// A 1D non-periodic halo exchange: edge ranks sendrecv with ProcNull
	// and must not hang or mismatch.
	run(t, 6, func(c *Comm) {
		ct, err := c.CartCreate([]int{6}, []bool{false}, false)
		if err != nil {
			panic(err)
		}
		src, dst := ct.Shift(0, 1)
		st := ct.Sendrecv(dst, 1, Size(100+ct.Rank()), src, 1)
		if ct.Rank() == 0 {
			if st.Source != ProcNull {
				panic("rank 0 should receive the null status")
			}
		} else if st.N != 100+ct.Rank()-1 {
			panic(fmt.Sprintf("rank %d got %d", ct.Rank(), st.N))
		}
	})
}

func TestProcNullOperations(t *testing.T) {
	run(t, 2, func(c *Comm) {
		c.Send(ProcNull, 1, Size(10))
		if st := c.Recv(ProcNull, 1); st.Source != ProcNull {
			panic("Recv from ProcNull should return null status")
		}
		req := c.Isend(ProcNull, 1, Size(10))
		c.Wait(req)
		req = c.Irecv(ProcNull, 1)
		if st := c.Wait(req); st.Source != ProcNull {
			panic("Irecv from ProcNull should complete with null status")
		}
		c.Barrier()
	})
}

func TestCartNeighbors(t *testing.T) {
	run(t, 8, func(c *Comm) {
		ct, err := c.CartCreate([]int{4, 2}, []bool{true, false}, false)
		if err != nil {
			panic(err)
		}
		nbrs := ct.Neighbors()
		// x is periodic with extent 4 (2 neighbors); y non-periodic with
		// extent 2 (1 neighbor).
		if len(nbrs) != 3 {
			panic(fmt.Sprintf("rank %d has %d neighbors, want 3 (%v)", ct.Rank(), len(nbrs), nbrs))
		}
	})
}
