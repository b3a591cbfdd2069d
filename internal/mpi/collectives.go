package mpi

import (
	"container/heap"
	"fmt"
	"slices"
)

// A collective's ranks meet in memory, not by message, and leave there
// what the others need; a world runs one rank at a time, so a meeting needs
// no lock. Nothing inside a collective is traced or timed (collAdvance
// charges it in closed form), so a meeting decides only when each member
// goes on: a member that waits parks until the last arrives (await). The
// AnySource and Waitany ranks of superlu and pmemd see that order in
// Stat.Time; goldenWildcardSHA (internal/apps) pins it at P = 13, 48, 100.

// collCtx names the meeting of the next collective call: the comm id and
// the per-rank collective sequence number. Collectives must be invoked in
// the same order by every member rank, so the sequence numbers agree.
func (c *Comm) collCtx() int64 {
	c.collSeq++
	return int64(c.id)<<32 | int64(c.collSeq)
}

// callSplit is what a Split's meeting records: Split is not a profiled call.
const callSplit = numCalls

// meeting is one collective call's rendezvous. It goes back on its world's
// free list once every member has left it, keeping its slices warm.
type meeting struct {
	key     int64        // collCtx: comm id and collective sequence
	call    Call         // what the member that opened it entered
	arrived int          // members that have entered
	left    int          // members that have left
	parked  []*rankState // by comm rank: the member parked here, else nil
	buf     Buf          // Bcast: the root's buffer
	members [][3]int     // Split: every member's (color, key, comm rank)
	next    *meeting     // links the world's free meetings
}

// callName names the call a meeting records.
func callName(call Call) string {
	if call == callSplit {
		return "MPI_Comm_split"
	}
	return call.String()
}

// String describes a parked rank's meeting for ErrDeadlock.
func (m *meeting) String() string {
	return fmt.Sprintf("%s(comm %d, inside collective %d, %d of %d arrived)", callName(m.call), m.key>>32, m.key&0xffffffff, m.arrived, len(m.parked))
}

// meet enters c's next collective as call: it joins the meeting a member
// already opened, or opens it, and counts the caller in.
func (c *Comm) meet(call Call) *meeting {
	w, key, n := c.world, c.collCtx(), len(c.group)
	m := w.meetings[key]
	switch {
	case m == nil:
		if m = w.freeMeet; m == nil {
			m = new(meeting)
		}
		w.freeMeet, m.next = m.next, nil
		m.key, m.call = key, call
		m.parked = slices.Grow(m.parked[:0], n)[:n]
		w.meetings[key] = m
	case m.call != call:
		// Asserts a programmer error: collectives are called in the same order on every rank.
		panic(fmt.Sprintf("mpi: ranks entered different collectives: %s and %s", callName(m.call), callName(call)))
	}
	m.arrived++
	return m
}

// leave counts the caller out of m; the last member to leave recycles it.
func (w *World) leave(m *meeting) {
	if m.left++; m.left < len(m.parked) {
		return
	}
	delete(w.meetings, m.key)
	m.arrived, m.left, m.buf = 0, 0, Buf{}
	m.next, w.freeMeet = w.freeMeet, m
}

// await parks the caller in m until every member has entered it. The last
// to arrive does not park: it makes every parked member runnable and goes
// on, and the scheduler resumes them by (virtual clock, world rank).
func (c *Comm) await(m *meeting) {
	if m.arrived < len(m.parked) {
		m.parked[c.rank], c.rs.meeting = c.rs, m
		c.rs.suspend()
		return
	}
	for r, rs := range m.parked {
		if rs != nil {
			m.parked[r], rs.meeting = nil, nil
			heap.Push(&c.world.ready, rs)
		}
	}
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	m := c.meet(CallBarrier)
	c.await(m)
	c.world.leave(m)
	c.collAdvance(CallBarrier, 0)
	c.trace(CallBarrier, NoPeer, 0)
}

// Bcast broadcasts *b from root to every rank of the communicator. On
// non-root ranks b is overwritten with the root's buffer.
func (c *Comm) Bcast(root int, b *Buf) {
	c.checkRank(root)
	m := c.meet(CallBcast)
	if c.rank == root {
		m.buf = *b
	}
	c.await(m)
	*b = m.buf
	c.world.leave(m)
	c.collAdvance(CallBcast, b.N)
	c.trace(CallBcast, c.group[root], b.N)
}

// Allreduce combines one buffer from every rank and hands the result to
// every rank. A buffer is a byte count, so there is nothing to combine and
// nothing comes back, but every member still waits until the last arrives,
// as every member of a real Allreduce needs every contribution.
func (c *Comm) Allreduce(b Buf) {
	m := c.meet(CallAllreduce)
	c.await(m)
	c.world.leave(m)
	c.collAdvance(CallAllreduce, b.N)
	c.trace(CallAllreduce, NoPeer, b.N)
}

// Gather collects one buffer from every rank at root. A buffer is a byte
// count, so nothing comes back: the root waits until the last member
// arrives, and no other member waits. Another member needs nothing from
// the rest, and parking it too made gtc's profile run (half its calls are
// Gathers) a fifth to two fifths slower at P=256.
func (c *Comm) Gather(root int, b Buf) {
	c.checkRank(root)
	m := c.meet(CallGather)
	if c.rank == root || m.arrived == len(m.parked) {
		c.await(m)
	}
	c.world.leave(m)
	c.collAdvance(CallGather, b.N)
	c.trace(CallGather, c.group[root], b.N)
}
