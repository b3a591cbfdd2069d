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
		c.Sendrecv(dst, 1, Size(100+c.Rank()), src, 1)
		if c.Rank() == 0 {
			if c.lastRequest().op != opSend {
				panic("rank 0 posted a receive from ProcNull")
			}
		} else if m := c.lastMatch(); m.Source != src || m.N != 100+src {
			panic(fmt.Sprintf("rank %d got %+v", c.Rank(), m))
		}
	})
}

func TestProcNullOperations(t *testing.T) {
	run(t, 2, func(c *Comm) {
		c.Send(ProcNull, 1, Size(10))
		// A message from itself on the same tag: Recv(ProcNull) must match
		// nothing and leave it queued.
		c.Send(c.Rank(), 1, Size(20))
		c.Recv(ProcNull, 1)
		c.Recv(c.Rank(), 1)
		if m := c.lastMatch(); m.Source != c.Rank() || m.N != 20 {
			panic(fmt.Sprintf("Recv from ProcNull took a message: the next Recv matched %+v", m))
		}
		req := c.Isend(ProcNull, 1, Size(10))
		c.Wait(req)
		req = c.Irecv(ProcNull, 1)
		c.Wait(req)
		if m := req.matched(); m.Source != ProcNull || m.Tag != AnyTag {
			panic(fmt.Sprintf("Irecv from ProcNull matched %+v", m))
		}
		c.Barrier()
	})
}
