package mpi

import (
	"container/heap"
	"fmt"
	"slices"
)

// A collective's ranks meet in memory, not by message, and write their
// contributions there; a world runs one rank at a time, so a meeting needs
// no lock. Nothing inside a collective is traced or timed (collAdvance
// charges it in closed form), so a meeting decides only when each member
// goes on. A rank marks the ranks it would have sent to (signal) and waits
// for the marks it would have received (expect), so Barrier, Bcast and
// Allreduce wake ranks in the order their message rounds did, which
// AnySource and Waitany ranks observe.

// collCtx names the meeting of the next collective call: the comm id and
// the per-rank collective sequence number. Collectives must be invoked in
// the same order by every member rank, so the sequence numbers agree.
func (c *Comm) collCtx() int64 {
	c.collSeq++
	return int64(c.id)<<32 | int64(c.collSeq)
}

// callSplit is what a Split's meeting records: Split is not a profiled call.
const callSplit = numCalls

// ready is the mark that the result is there for a member: from its parent
// in a tree broadcast, from the last to arrive in Gather and Split. Lower
// bits mark the rounds of a dissemination or a reduction.
const ready uint64 = 1 << 63

// meeting is one collective call's rendezvous. It goes back on its world's
// free list once every member has left it, keeping its slices warm.
type meeting struct {
	key     int64        // collCtx: comm id and collective sequence
	call    Call         // what the member that opened it entered
	arrived int          // members that have entered
	left    int          // members that have left
	parked  []*rankState // by comm rank: the member parked here, else nil
	marks   []uint64     // by comm rank: the marks the member has been sent
	buf     Buf          // Bcast: the root's buffer
	bufs    []Buf        // Gather: the pieces by comm rank, handed to the root
	vals    [][]float64  // Allreduce: the vectors by comm rank
	acc     []float64    // Allreduce: those vectors end to end, folded into the first
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
		m.marks = slices.Grow(m.marks[:0], n)[:n]
		clear(m.marks)
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
	clear(m.vals) // drops the callers' vectors
	m.arrived, m.left, m.buf, m.bufs = 0, 0, Buf{}, nil
	m.next, w.freeMeet = w.freeMeet, m
}

// signal sends mark to comm rank dst and, if dst is parked waiting for it,
// makes dst runnable, as a message completes the receive it was posted for.
func (m *meeting) signal(dst int, mark uint64) {
	m.marks[dst] |= mark
	if rs := m.parked[dst]; rs != nil && rs.mark == mark {
		m.parked[dst], rs.meeting = nil, nil
		heap.Push(&rs.world.ready, rs)
	}
}

// expect parks the caller until it has been sent mark.
func (c *Comm) expect(m *meeting, mark uint64) {
	if m.marks[c.rank]&mark == 0 {
		m.parked[c.rank], c.rs.meeting, c.rs.mark = c.rs, m, mark
		c.rs.suspend()
	}
}

// Barrier blocks until every rank of the communicator has entered it. The
// members run a dissemination exchange: in round k each marks the rank 2^k
// ahead of it and waits for the mark of the rank 2^k behind.
func (c *Comm) Barrier() {
	m := c.meet(CallBarrier)
	n := len(m.parked)
	for k, d := 0, 1; d < n; k, d = k+1, 2*d {
		m.signal((c.rank+d)%n, 1<<k)
		c.expect(m, 1<<k)
	}
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
	c.descend(m, root)
	*b = m.buf
	c.world.leave(m)
	c.collAdvance(CallBcast, b.N)
	c.trace(CallBcast, c.group[root], b.N)
}

// descend passes what the root holds down a binomial tree: a rank other
// than the root waits for its parent's mark, then marks its children,
// largest subtree first.
func (c *Comm) descend(m *meeting, root int) {
	n := len(m.parked)
	rel := (c.rank - root + n) % n
	mask := 1
	for mask < n && rel&mask == 0 {
		mask <<= 1
	}
	if mask < n {
		c.expect(m, ready)
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			m.signal((rel+mask+root)%n, ready)
		}
	}
}

// Allreduce combines vals element-wise across ranks with op and returns
// the result on every rank, in a slice of its own. The last member to
// arrive folds every vector; then each waits for its children in the
// binomial tree rooted at comm rank 0, nearest first, and marks its parent,
// and rank 0 passes the result back down.
func (c *Comm) Allreduce(vals []float64, op Op) []float64 {
	m := c.meet(CallAllreduce)
	n := len(m.parked)
	if m.arrived == 1 {
		m.vals = slices.Grow(m.vals[:0], n)[:n]
	}
	m.vals[c.rank] = vals
	if m.arrived == n {
		m.reduce(op)
	}
	for k, mask := 0, 1; mask < n; k, mask = k+1, 2*mask {
		if c.rank&mask != 0 {
			m.signal(c.rank&^mask, 1<<k)
			break
		}
		if c.rank|mask < n {
			c.expect(m, 1<<k)
		}
	}
	c.descend(m, 0)
	res := slices.Clone(m.acc[:len(vals)])
	c.world.leave(m)
	c.collAdvance(CallAllreduce, 8*len(vals))
	c.trace(CallAllreduce, NoPeer, 8*len(vals))
	return res
}

// reduce folds the members' vectors in the order a binomial tree rooted at
// comm rank 0 combines them: at stride s, every rank that is a multiple of
// 2s takes in the subtree at rank + s. The order fixes the bits of a
// floating-point sum (TestAllreduceTreeOrder).
func (m *meeting) reduce(op Op) {
	n, k := len(m.vals), len(m.vals[0])
	acc := slices.Grow(m.acc[:0], n*k)
	for _, v := range m.vals {
		if len(v) != k {
			// Asserts a programmer error: ranks reduced vectors of different lengths.
			panic(fmt.Sprintf("mpi: reduction length mismatch %d != %d", k, len(v)))
		}
		acc = append(acc, v...)
	}
	for s := 1; s < n; s *= 2 {
		for r := 0; r+s < n; r += 2 * s {
			op.apply(acc[r*k:(r+1)*k], acc[(r+s)*k:(r+s+1)*k])
		}
	}
	m.acc = acc
}

// Gather collects one buffer from every rank at root. Root receives a
// slice indexed by comm rank (its own entry included); other ranks receive
// nil. Only the root waits, for the last to arrive.
func (c *Comm) Gather(root int, b Buf) []Buf {
	c.checkRank(root)
	m := c.meet(CallGather)
	if m.arrived == 1 {
		m.bufs = make([]Buf, len(m.parked))
	}
	m.bufs[c.rank] = b
	if m.arrived == len(m.parked) {
		m.signal(root, ready)
	}
	var res []Buf
	if c.rank == root {
		c.expect(m, ready)
		res, m.bufs = m.bufs, nil
	}
	c.world.leave(m)
	c.collAdvance(CallGather, b.N)
	c.trace(CallGather, c.group[root], b.N)
	return res
}
