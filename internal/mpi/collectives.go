package mpi

import (
	"encoding/binary"
	"math"
)

// collCtx allocates the matching context for the next collective call.
// Collectives must be invoked in the same order by every member rank, so
// the per-rank sequence numbers agree and the contexts line up.
func (c *Comm) collCtx() int64 {
	c.collSeq++
	return int64(c.id)<<32 | int64(c.collSeq)
}

// Tag namespaces inside one collective context.
const (
	tagBarrier Tag = 1 << 20
	tagBcast   Tag = 2 << 20
	tagReduce  Tag = 3 << 20
	tagGather  Tag = 4 << 20
	tagRing    Tag = 5 << 20
)

func encodeFloats(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

func decodeFloats(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}

func encodeInts(vals []int) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

// Barrier blocks until every rank of the communicator has entered it,
// using a dissemination exchange.
func (c *Comm) Barrier() {
	ctx := c.collCtx()
	n := len(c.group)
	r := c.rank
	for k := 1; k < n; k <<= 1 {
		dst := (r + k) % n
		src := (r - k%n + n) % n
		req := c.recvRaw(src, tagBarrier+Tag(k), ctx)
		c.sendRaw(dst, tagBarrier+Tag(k), ctx, Buf{})
		c.waitFree(req)
	}
	c.collAdvance(CallBarrier, 0)
	c.trace(CallBarrier, NoPeer, 0)
}

// bcast runs a binomial-tree broadcast from root inside ctx.
func (c *Comm) bcast(ctx int64, root int, b *Buf) {
	n := len(c.group)
	c.checkRank(root)
	rel := (c.rank - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (rel - mask + root) % n
			st := c.recvWait(src, tagBcast+Tag(mask), ctx)
			*b = Buf{N: st.N, Data: st.Data}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (rel + mask + root) % n
			c.sendRaw(dst, tagBcast+Tag(mask), ctx, *b)
		}
		mask >>= 1
	}
}

// Bcast broadcasts *b from root to every rank of the communicator. On
// non-root ranks b is overwritten with the root's buffer.
func (c *Comm) Bcast(root int, b *Buf) {
	ctx := c.collCtx()
	c.bcast(ctx, root, b)
	c.collAdvance(CallBcast, b.N)
	c.trace(CallBcast, c.group[root], b.N)
}

// reduce combines vals across ranks with op using a binomial tree rooted at
// root, returning the result on root and nil elsewhere. Children's partial
// results are combined from the wire bytes.
func (c *Comm) reduce(ctx int64, root int, vals []float64, op Op) []float64 {
	n := len(c.group)
	c.checkRank(root)
	rel := (c.rank - root + n) % n
	acc := vals
	if rel == 0 || rel%2 == 0 && rel+1 < n {
		// The root returns acc and a rank with a child (its first, rel+1,
		// exists) combines into it, so both work on a copy; a leaf encodes
		// vals as they are.
		acc = append([]float64(nil), vals...)
	}
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			src := rel | mask
			if src < n {
				st := c.recvWait((src+root)%n, tagReduce+Tag(mask), ctx)
				op.apply(acc, st.Data)
			}
		} else {
			dst := rel &^ mask
			c.sendRaw((dst+root)%n, tagReduce+Tag(mask), ctx, Data(encodeFloats(acc)))
			return nil
		}
	}
	return acc
}

// Allreduce combines vals element-wise across ranks with op and returns
// the result on every rank.
func (c *Comm) Allreduce(vals []float64, op Op) []float64 {
	ctx := c.collCtx()
	res := c.reduce(ctx, 0, vals, op)
	var b Buf
	if c.rank == 0 {
		b = Data(encodeFloats(res))
	}
	c.bcast(ctx, 0, &b)
	if c.rank != 0 {
		res = decodeFloats(b.Data)
	}
	c.collAdvance(CallAllreduce, 8*len(vals))
	c.trace(CallAllreduce, NoPeer, 8*len(vals))
	return res
}

// Gather collects one buffer from every rank at root. Root receives a
// slice indexed by comm rank (its own entry included); other ranks receive
// nil.
func (c *Comm) Gather(root int, b Buf) []Buf {
	ctx := c.collCtx()
	c.checkRank(root)
	var res []Buf
	if c.rank == root {
		res = make([]Buf, len(c.group))
		res[root] = b
		for r := 0; r < len(c.group); r++ {
			if r == root {
				continue
			}
			st := c.recvWait(r, tagGather+Tag(r), ctx)
			res[r] = Buf{N: st.N, Data: st.Data}
		}
	} else {
		c.sendRaw(root, tagGather+Tag(c.rank), ctx, b)
	}
	c.collAdvance(CallGather, b.N)
	c.trace(CallGather, c.group[root], b.N)
	return res
}

// ring runs a ring allgather of b inside ctx: at step i every rank passes
// the piece it last received (its own at step 1) to its right neighbour
// and hands the one arriving from its left, which started at comm rank
// src, to got.
func (c *Comm) ring(ctx int64, b Buf, got func(src int, piece Buf)) {
	n, r := len(c.group), c.rank
	for i := 1; i < n; i++ {
		req := c.recvRaw((r-1+n)%n, tagRing+Tag(i), ctx)
		c.sendRaw((r+1)%n, tagRing+Tag(i), ctx, b)
		st := c.waitFree(req)
		b = Buf{N: st.N, Data: st.Data}
		got((r-i+n)%n, b)
	}
}
