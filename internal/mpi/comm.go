package mpi

import (
	"fmt"
	"sort"
)

// Comm is one rank's handle on a communicator: an ordered group of world
// ranks with a private matching context. The handle passed to World.Run is
// the world communicator; Split derives sub-communicators, as the GTC
// skeleton does for its toroidal partitions.
//
// A Comm value belongs to a single rank goroutine and must not be shared.
type Comm struct {
	world  *World
	id     int
	group  []int       // group[commRank] = worldRank
	w2c    map[int]int // world rank -> comm rank; nil means identity (world comm)
	rank   int         // this rank's position in group
	tracer Tracer

	collSeq  int // per-rank collective sequence number
	splitSeq int // per-rank split sequence number
	eventSeq int // per-rank event counter for tracing
	region   string
	clockp   *float64   // per-rank virtual clock, shared by all of the rank's comms
	rs       *rankState // per-rank request free list and wake channel, shared likewise
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

// ID returns the communicator id, shared by all member ranks.
func (c *Comm) ID() int { return c.id }

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= len(c.group) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d) on comm %d", r, len(c.group), c.id))
	}
}

// trace emits a profiling event if a tracer is attached.
func (c *Comm) trace(call Call, peer, bytes int) {
	if c.tracer == nil {
		return
	}
	c.eventSeq++
	c.tracer.Event(Event{
		Call:   call,
		Peer:   peer,
		Bytes:  bytes,
		Comm:   c.id,
		Seq:    c.eventSeq,
		Region: c.region,
		T:      c.VirtualTime(),
	})
}

// RegionBegin marks the start of a named profiling region (IPM regions).
// Regions do not nest; beginning a region replaces the current one.
func (c *Comm) RegionBegin(name string) {
	c.region = name
	if c.tracer != nil {
		c.eventSeq++
		c.tracer.Event(Event{Call: CallRegionBegin, Peer: NoPeer, Comm: c.id, Seq: c.eventSeq, Region: name})
	}
}

// RegionEnd closes the current profiling region.
func (c *Comm) RegionEnd() {
	name := c.region
	c.region = ""
	if c.tracer != nil {
		c.eventSeq++
		c.tracer.Event(Event{Call: CallRegionEnd, Peer: NoPeer, Comm: c.id, Seq: c.eventSeq, Region: name})
	}
}

// Region returns the name of the active profiling region, "" if none.
func (c *Comm) Region() string { return c.region }

// --- point-to-point operations ---

// sendRaw enqueues an envelope at dst (a comm rank) without tracing and
// returns the rendezvous ack channel (nil for eager sends). Internal
// collective traffic is always eager.
func (c *Comm) sendRaw(dst int, tag Tag, ctx int64, b Buf) chan struct{} {
	return c.sendRawProto(dst, tag, ctx, b, false)
}

func (c *Comm) sendRawProto(dst int, tag Tag, ctx int64, b Buf, allowRendezvous bool) chan struct{} {
	c.checkRank(dst)
	if b.Data != nil && len(b.Data) != b.N {
		panic(fmt.Sprintf("mpi: buffer claims %d bytes but carries %d", b.N, len(b.Data)))
	}
	env := envPool.Get().(*envelope)
	env.src = c.group[c.rank]
	env.tag = tag
	env.ctx = ctx
	env.size = b.N
	env.data = b.Data
	env.sentAt = c.VirtualTime()
	// Capture the ack before deliver: a matched envelope may be recycled
	// by the receiving rank before deliver returns.
	var ack chan struct{}
	if allowRendezvous && c.world.eagerLimit > 0 && b.N > c.world.eagerLimit {
		ack = make(chan struct{})
	}
	env.ack = ack
	c.world.deliver(c.group[dst], env)
	return ack
}

// waitAck blocks on a rendezvous acknowledgement, unwinding the rank if
// the world is aborted first.
func (c *Comm) waitAck(ack chan struct{}) {
	select {
	case <-ack:
	case <-c.world.abort:
		select {
		case <-ack:
		default:
			panic(abortSignal{})
		}
	}
}

// worldSrcOf translates a receive's comm source (possibly AnySource) to
// world rank space.
func (c *Comm) worldSrcOf(src int) int {
	if src == AnySource {
		return AnySource
	}
	c.checkRank(src)
	return c.group[src]
}

// recvRaw posts a receive without tracing and returns its request.
func (c *Comm) recvRaw(src int, tag Tag, ctx int64) *Request {
	worldSrc := c.worldSrcOf(src)
	req := c.newRequest(true)
	c.world.post(c.group[c.rank], worldSrc, tag, ctx, req)
	return req
}

// recvWait posts an internal receive and blocks for its status.
func (c *Comm) recvWait(src int, tag Tag, ctx int64) Status {
	return c.waitFree(c.recvRaw(src, tag, ctx))
}

// statusToComm rewrites a status' world source rank into comm rank space.
func (c *Comm) statusToComm(st Status) Status {
	if c.w2c == nil {
		// World communicator: comm rank == world rank.
		return st
	}
	if r, ok := c.w2c[st.Source]; ok {
		st.Source = r
		return st
	}
	panic(fmt.Sprintf("mpi: message from world rank %d which is not in comm %d", st.Source, c.id))
}

// Send performs a blocking send of b to comm rank dst. Delivery is eager,
// so Send returns as soon as the message is enqueued.
func (c *Comm) Send(dst int, tag Tag, b Buf) {
	if isNull(dst) {
		c.trace(CallSend, NoPeer, b.N)
		return
	}
	if ack := c.sendRawProto(dst, tag, ptpCtx(c.id), b, true); ack != nil {
		c.waitAck(ack) // rendezvous: block until the receive is posted
	}
	c.advance(c.transferOf(b.N))
	c.trace(CallSend, c.peerWorld(dst), b.N)
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// status. src may be AnySource and tag may be AnyTag.
func (c *Comm) Recv(src int, tag Tag) Status {
	if isNull(src) {
		c.trace(CallRecv, NoPeer, 0)
		return nullStatus()
	}
	st := c.recvWait(src, tag, ptpCtx(c.id))
	c.observeArrival(st.VTime)
	c.advance(0)
	c.trace(CallRecv, c.peerWorldOrAny(src), 0)
	return c.statusToComm(st)
}

// Isend starts a nonblocking send and returns its request. With eager
// delivery the request is complete on return, but callers must still Wait
// on it, as MPI programs do.
func (c *Comm) Isend(dst int, tag Tag, b Buf) *Request {
	if isNull(dst) {
		c.trace(CallIsend, NoPeer, b.N)
		req := c.newRequest(false)
		req.complete(nullStatus())
		return req
	}
	req := c.newRequest(false)
	st := Status{Source: c.group[c.rank], Tag: tag, N: b.N}
	if ack := c.sendRawProto(dst, tag, ptpCtx(c.id), b, true); ack != nil {
		go func() {
			// Not a rank goroutine: on abort, return without completing —
			// the rank waiting on req unwinds through Request.wait.
			select {
			case <-ack:
				req.complete(st)
			case <-c.world.abort:
			}
		}()
	} else {
		req.complete(st)
	}
	c.advance(0)
	c.trace(CallIsend, c.peerWorld(dst), b.N)
	return req
}

// Irecv posts a nonblocking receive and returns its request.
func (c *Comm) Irecv(src int, tag Tag) *Request {
	if isNull(src) {
		c.trace(CallIrecv, NoPeer, 0)
		req := c.newRequest(false) // not a receive: the null status passes through Wait unchanged
		req.complete(nullStatus())
		return req
	}
	req := c.recvRaw(src, tag, ptpCtx(c.id))
	c.advance(0)
	c.trace(CallIrecv, c.peerWorldOrAny(src), 0)
	return req
}

// Sendrecv sends sb to dst with stag while receiving a message matching
// (src, rtag), returning the receive status.
func (c *Comm) Sendrecv(dst int, stag Tag, sb Buf, src int, rtag Tag) Status {
	if isNull(dst) {
		c.trace(CallSendrecv, NoPeer, sb.N)
		if isNull(src) {
			return nullStatus()
		}
		return c.statusToComm(c.recvWait(src, rtag, ptpCtx(c.id)))
	}
	if isNull(src) {
		if ack := c.sendRawProto(dst, stag, ptpCtx(c.id), sb, true); ack != nil {
			c.waitAck(ack)
		}
		c.advance(c.transferOf(sb.N))
		c.trace(CallSendrecv, c.peerWorld(dst), sb.N)
		return nullStatus()
	}
	req := c.recvRaw(src, rtag, ptpCtx(c.id))
	if ack := c.sendRawProto(dst, stag, ptpCtx(c.id), sb, true); ack != nil {
		c.waitAck(ack) // safe: our receive is already posted
	}
	st := c.waitFree(req)
	c.observeArrival(st.VTime)
	c.advance(c.transferOf(sb.N))
	c.trace(CallSendrecv, c.peerWorld(dst), sb.N)
	return c.statusToComm(st)
}

// finish consumes a completed request: a receive merges the message's
// arrival time into the rank's virtual clock and reports its source in
// comm rank space, and the handle returns to the rank's free list.
func (c *Comm) finish(r *Request, st Status) Status {
	if r.isRecv {
		c.observeArrival(st.VTime)
		st = c.statusToComm(st)
	}
	c.release(r)
	return st
}

// Wait blocks until req completes and returns its status (receive statuses
// carry the source in comm rank space). It consumes req.
func (c *Comm) Wait(req *Request) Status {
	_, st := c.waitAny(req)
	st = c.finish(req, st)
	c.advance(0)
	c.trace(CallWait, NoPeer, 0)
	return st
}

// Waitall blocks until every request completes, returning their statuses
// in order. It consumes every request; the slice itself stays the
// caller's and may be refilled.
func (c *Comm) Waitall(reqs []*Request) []Status {
	sts := make([]Status, len(reqs))
	for i, r := range reqs {
		_, st := c.waitAny(r)
		sts[i] = c.finish(r, st)
	}
	c.advance(0)
	c.trace(CallWaitall, NoPeer, 0)
	return sts
}

// Waitany blocks until at least one request in reqs completes and returns
// its index and status. It consumes that request only: the caller must
// remove it before the next Waitany, as in MPI (this implementation has no
// "inactive request" marker).
func (c *Comm) Waitany(reqs []*Request) (int, Status) {
	c.trace(CallWaitany, NoPeer, 0)
	if len(reqs) == 0 {
		panic("mpi: Waitany on empty request list")
	}
	i, st := c.waitAny(reqs...)
	st = c.finish(reqs[i], st)
	c.advance(0)
	return i, st
}

// Test reports whether req has completed; if it has, the returned status is
// valid and req is consumed. A completed receive merges the message's
// arrival time into the rank's virtual clock, exactly as the Wait family
// does — a rank that polls with Test must not observe a stale clock.
func (c *Comm) Test(req *Request) (bool, Status) {
	c.trace(CallTest, NoPeer, 0)
	st, done := req.poll()
	if !done {
		return false, Status{}
	}
	return true, c.finish(req, st)
}

func (c *Comm) peerWorld(dst int) int {
	c.checkRank(dst)
	return c.group[dst]
}

func (c *Comm) peerWorldOrAny(src int) int {
	if src == AnySource {
		return NoPeer
	}
	return c.peerWorld(src)
}

func (c *Comm) peerWorldOrAnyOrNull(src int) int {
	if src == AnySource || isNull(src) {
		return NoPeer
	}
	return c.peerWorld(src)
}

// --- communicator management ---

// splitMember is exchanged during Split.
type splitMember struct {
	color, key, rank int
}

// Split partitions the communicator: ranks supplying the same color form a
// new communicator, ordered by (key, parent rank). Every rank of c must
// call Split. A negative color returns nil for that rank (MPI_UNDEFINED).
func (c *Comm) Split(color, key int) *Comm {
	seq := c.splitSeq
	c.splitSeq++
	// Allgather (color, key) across the parent communicator using the
	// internal collective machinery; untraced, like the bookkeeping inside
	// a real MPI_Comm_split.
	ctx := c.collCtx()
	all := c.allgatherInts(ctx, []int{color, key})
	if color < 0 {
		return nil
	}
	members := make([]splitMember, 0, len(c.group))
	for r := 0; r < len(c.group); r++ {
		mc, mk := all[2*r], all[2*r+1]
		if mc == color {
			members = append(members, splitMember{color: mc, key: mk, rank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})
	group := make([]int, len(members))
	w2c := make(map[int]int, len(members))
	myRank := -1
	for i, m := range members {
		group[i] = c.group[m.rank]
		w2c[group[i]] = i
		if m.rank == c.rank {
			myRank = i
		}
	}
	id := c.world.commID(c.id, seq, color)
	return &Comm{
		world:  c.world,
		id:     id,
		group:  group,
		w2c:    w2c,
		rank:   myRank,
		tracer: c.tracer,
		region: c.region,
		clockp: c.clockp,
		rs:     c.rs,
	}
}

// Dup returns a communicator with the same group but a fresh id and
// matching context.
func (c *Comm) Dup() *Comm {
	return c.Split(0, c.rank)
}
