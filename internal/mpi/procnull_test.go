package mpi

import (
	"fmt"
	"testing"
)

func TestCartHaloExchangeWithProcNull(t *testing.T) {
	// A 1-D open halo exchange: each rank sends up and receives from
	// below, and the edge ranks sendrecv with ProcNull where the line ends.
	// They must not hang or mismatch.
	run(t, 6, func(c *Comm) {
		dst, src := c.Rank()+1, c.Rank()-1
		if dst == c.Size() {
			dst = ProcNull
		}
		if src < 0 {
			src = ProcNull
		}
		st := c.Sendrecv(dst, 1, Size(100+c.Rank()), src, 1)
		if c.Rank() == 0 {
			if st.Source != ProcNull {
				panic("rank 0 should receive the null status")
			}
		} else if st.N != 100+c.Rank()-1 {
			panic(fmt.Sprintf("rank %d got %d", c.Rank(), st.N))
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
