package mpi

import (
	"cmp"
	"fmt"
	"slices"
)

// Comm is one rank's handle on a communicator: an ordered group of world
// ranks with a private matching context. The handle passed to World.Run is
// the world communicator; Split derives sub-communicators, as the GTC
// skeleton does for its toroidal partitions.
//
// A Comm value belongs to a single rank and must not be shared.
type Comm struct {
	world  *World
	id     int
	group  []int // group[commRank] = worldRank
	rank   int   // this rank's position in group
	tracer Tracer

	collSeq  int // per-rank collective sequence number
	splitSeq int // per-rank split sequence number
	region   string
	rs       *rankState // the rank's clock, free requests and coroutine, shared by all of its comms
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank translates a communicator rank to its world rank.
func (c *Comm) WorldRank(r int) int {
	c.checkRank(r)
	return c.group[r]
}

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= len(c.group) {
		// Asserts a programmer error: a peer or root outside the communicator.
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d) on comm %d", r, len(c.group), c.id))
	}
}

// trace emits a profiling event if a tracer is attached.
func (c *Comm) trace(call Call, peer, bytes int) {
	if c.tracer == nil {
		return
	}
	c.tracer.Event(Event{Call: call, Peer: peer, Bytes: bytes, Region: c.region, T: c.VirtualTime()})
}

// RegionBegin marks the start of a named profiling region (IPM regions).
// Regions do not nest; beginning a region replaces the current one.
func (c *Comm) RegionBegin(name string) {
	c.region = name
	if c.tracer != nil {
		c.tracer.Event(Event{Call: CallRegionBegin, Peer: NoPeer, Region: name, T: c.VirtualTime()})
	}
}

// RegionEnd closes the current profiling region.
func (c *Comm) RegionEnd() {
	name := c.region
	c.region = ""
	if c.tracer != nil {
		c.tracer.Event(Event{Call: CallRegionEnd, Peer: NoPeer, Region: name, T: c.VirtualTime()})
	}
}

// --- point-to-point operations ---

// startSend enqueues b at comm rank dst and returns the send's request.
// Above the eager limit the request travels with the envelope and the
// matching receive completes it (rendezvous); otherwise it is complete on
// return.
func (c *Comm) startSend(dst int, tag Tag, b Buf) *Request {
	req := c.newRequest(opSend, c.WorldRank(dst), tag)
	env := c.world.newEnvelope()
	*env = envelope{src: c.group[c.rank], tag: tag, size: b.N}
	if cm := c.world.cost; cm != nil {
		env.arrival = cm.ptpArrival(c.rs.clock, b.N)
	}
	if lim := c.world.eagerLimit; lim > 0 && b.N > lim {
		env.ack = req
	} else {
		req.complete(0)
	}
	c.world.deliver(c.group[dst], c.id, env)
	return req
}

// isNull reports whether a peer designates the null process.
func isNull(peer int) bool { return peer == ProcNull }

// completed returns an already complete request, for operations on ProcNull.
func (c *Comm) completed() *Request {
	req := c.newRequest(opSend, ProcNull, AnyTag) // not a receive: there is no arrival to merge
	req.complete(0)
	return req
}

// worldSrcOf translates a receive's comm source (possibly AnySource) to
// world rank space.
func (c *Comm) worldSrcOf(src int) int {
	if src == AnySource {
		return AnySource
	}
	return c.WorldRank(src)
}

// recvRaw posts a receive without tracing and returns its request.
func (c *Comm) recvRaw(src int, tag Tag) *Request {
	req := c.newRequest(opRecv, c.worldSrcOf(src), tag)
	c.world.post(c.group[c.rank], req)
	return req
}

// Send performs a blocking send of b to comm rank dst. Delivery is eager
// up to the world's eager limit, so Send returns as soon as the message is
// enqueued; above it Send blocks until the matching receive is posted.
func (c *Comm) Send(dst int, tag Tag, b Buf) {
	if isNull(dst) {
		c.trace(CallSend, NoPeer, b.N)
		return
	}
	c.finish(c.startSend(dst, tag, b))
	c.advance(c.transferOf(b.N))
	c.trace(CallSend, c.WorldRank(dst), b.N)
}

// Recv blocks until a message matching (src, tag) arrives. src may be
// AnySource and tag may be AnyTag.
func (c *Comm) Recv(src int, tag Tag) {
	if isNull(src) {
		c.trace(CallRecv, NoPeer, 0)
		return
	}
	c.finish(c.recvRaw(src, tag))
	c.advance(0)
	c.trace(CallRecv, c.peerWorldOrAny(src), 0)
}

// Isend starts a nonblocking send and returns its request. With eager
// delivery the request is complete on return, but callers must still Wait
// on it, as MPI programs do.
func (c *Comm) Isend(dst int, tag Tag, b Buf) *Request {
	if isNull(dst) {
		c.trace(CallIsend, NoPeer, b.N)
		return c.completed()
	}
	req := c.startSend(dst, tag, b)
	c.advance(0)
	c.trace(CallIsend, c.WorldRank(dst), b.N)
	return req
}

// Irecv posts a nonblocking receive and returns its request.
func (c *Comm) Irecv(src int, tag Tag) *Request {
	if isNull(src) {
		c.trace(CallIrecv, NoPeer, 0)
		return c.completed()
	}
	req := c.recvRaw(src, tag)
	c.advance(0)
	c.trace(CallIrecv, c.peerWorldOrAny(src), 0)
	return req
}

// Sendrecv sends sb to dst with stag while receiving a message matching
// (src, rtag). Either peer may be ProcNull; that half is skipped and the
// other behaves as Send or Recv would.
func (c *Comm) Sendrecv(dst int, stag Tag, sb Buf, src int, rtag Tag) {
	peer, transfer := NoPeer, 0.0
	if isNull(dst) && isNull(src) {
		c.trace(CallSendrecv, peer, sb.N)
		return
	}
	var recv *Request
	if !isNull(src) {
		// Posted before the send can block, so pairwise exchanges are
		// safe under rendezvous.
		recv = c.recvRaw(src, rtag)
	}
	if !isNull(dst) {
		c.finish(c.startSend(dst, stag, sb))
		peer, transfer = c.WorldRank(dst), c.transferOf(sb.N)
	}
	if recv != nil {
		c.finish(recv)
	}
	c.advance(transfer)
	c.trace(CallSendrecv, peer, sb.N)
}

// finish waits for a request and consumes it: a receive merges the
// message's arrival time into the rank's virtual clock, and the handle
// returns to the rank's free list.
func (c *Comm) finish(r *Request) {
	c.waitAny(r)
	if r.op == opRecv {
		c.observeArrival(r.arrival)
	}
	c.release(r)
}

// Wait blocks until req completes. It consumes req.
func (c *Comm) Wait(req *Request) {
	c.finish(req)
	c.advance(0)
	c.trace(CallWait, NoPeer, 0)
}

// Waitall blocks until every request completes. It consumes every
// request; the slice itself stays the caller's and may be refilled.
func (c *Comm) Waitall(reqs []*Request) {
	for _, r := range reqs {
		c.finish(r)
	}
	c.advance(0)
	c.trace(CallWaitall, NoPeer, 0)
}

// Waitany blocks until at least one request in reqs completes and returns
// its index. It consumes that request only: the caller must remove it
// before the next Waitany, as in MPI (this implementation has no
// "inactive request" marker).
func (c *Comm) Waitany(reqs []*Request) int {
	if len(reqs) == 0 {
		panic("mpi: Waitany on empty request list") // asserts a programmer error: it could never return
	}
	i := c.waitAny(reqs...)
	c.finish(reqs[i])
	c.advance(0)
	c.trace(CallWaitany, NoPeer, 0)
	return i
}

func (c *Comm) peerWorldOrAny(src int) int {
	if src == AnySource {
		return NoPeer
	}
	return c.WorldRank(src)
}

// --- communicator management ---

// Split partitions the communicator: ranks supplying the same color form a
// new communicator, ordered by (key, parent rank). Every rank of c must
// call Split. A negative color returns nil for that rank (MPI_UNDEFINED).
//
// The members meet untraced, like the bookkeeping inside a real
// MPI_Comm_split. The last to arrive sorts them all by (color, key, rank)
// once and wakes the rest, and each takes the run of its own color, so what
// a rank keeps grows with its group, not with c.
func (c *Comm) Split(color, key int) *Comm {
	seq := c.splitSeq
	c.splitSeq++
	m := c.meet(callSplit)
	if m.arrived == 1 {
		m.members = m.members[:0]
	}
	m.members = append(m.members, [3]int{color, key, c.rank})
	if m.arrived == len(m.parked) {
		slices.SortFunc(m.members, func(a, b [3]int) int { return slices.Compare(a[:], b[:]) })
	}
	c.await(m)
	defer c.world.leave(m)
	if color < 0 {
		return nil
	}
	lo, _ := slices.BinarySearchFunc(m.members, color, func(e [3]int, color int) int { return cmp.Compare(e[0], color) })
	hi := lo
	for hi < len(m.members) && m.members[hi][0] == color {
		hi++
	}
	group := make([]int, hi-lo)
	myRank := -1
	for i, mb := range m.members[lo:hi] {
		group[i] = c.group[mb[2]]
		if mb[2] == c.rank {
			myRank = i
		}
	}
	return &Comm{
		world:  c.world,
		id:     c.world.commID(c.id, seq, color),
		group:  group,
		rank:   myRank,
		tracer: c.tracer,
		region: c.region,
		rs:     c.rs,
	}
}
