package mpi

// matched is what a completed receive's match carried: the sender's world
// rank, the tag, the size and the modeled arrival. Tests on a
// sub-communicator translate the sender to comm rank space themselves.
type matched struct {
	Source int
	Tag    Tag
	N      int
	VTime  float64
}

// matched reads what the request's match carried. A consumed request
// keeps it until a later Isend/Irecv of its rank reissues the handle.
func (r *Request) matched() matched {
	return matched{Source: r.peer, Tag: r.tag, N: r.n, VTime: r.arrival}
}

// lastRequest is the request the rank consumed last: after a blocking Recv
// or a receiving Sendrecv, the receive's (Sendrecv releases its send
// first), since release pushes onto the head of the rank's free list.
func (c *Comm) lastRequest() *Request { return c.rs.free }

// lastMatch is what the receive behind the rank's last blocking Recv or
// Sendrecv matched.
func (c *Comm) lastMatch() matched { return c.lastRequest().matched() }
