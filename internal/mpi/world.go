package mpi

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// envelope is one in-flight message. The world owns envelopes from send to
// match and recycles them on a free list.
type envelope struct {
	src     int // world rank of the sender
	tag     Tag
	size    int
	arrival float64   // modeled arrival time; 0 without a cost model
	ack     *Request  // rendezvous: the send's request, completed by the match; nil for eager
	next    *envelope // links the world's free envelopes
}

// newEnvelope takes an envelope off the free list, or allocates one.
func (w *World) newEnvelope() *envelope {
	e := w.freeEnv
	if e == nil {
		return new(envelope)
	}
	w.freeEnv = e.next
	return e
}

// match completes the receive an envelope met and, for a rendezvous
// message, the send that has been waiting for it, and recycles the envelope.
// The receive keeps what the envelope carried: its sender's world rank, tag
// and size.
func (w *World) match(e *envelope, recv *Request) {
	if e.ack != nil {
		e.ack.complete(0)
	}
	recv.peer, recv.tag, recv.n = e.src, e.tag, e.size
	recv.complete(e.arrival)
	*e = envelope{next: w.freeEnv}
	w.freeEnv = e
}

// matches applies the point-to-point matching rule within one context:
// source and tag must agree, with AnySource/AnyTag wildcards.
func (e *envelope) matches(src int, tag Tag) bool {
	return (src == AnySource || src == e.src) && (tag == AnyTag || tag == e.tag)
}

// ctxQueue holds the unmatched envelopes and pending receives (requests
// carry their own source and tag) of one communicator, its matching
// context, each in arrival order. Splitting the mailbox by communicator
// keeps every scan to the messages that could legally match.
type ctxQueue struct {
	unexpected []*envelope
	posted     []*Request
}

// find returns the index of the unexpected envelope a receive of (src, tag)
// takes, or -1. A named source takes its oldest match, whatever order the
// ranks ran in. AnySource is the one place a schedule could leak into the
// numbers, so it gets a rule instead: among each source's oldest match
// (non-overtaking), the earliest modeled arrival, queue order breaking ties
// — plain FIFO when there is no cost model.
func (q *ctxQueue) find(src int, tag Tag) int {
	best := -1
	for i, e := range q.unexpected {
		if !e.matches(src, tag) {
			continue
		}
		if best < 0 {
			best = i
			if src != AnySource {
				break
			}
		} else if e.arrival < q.unexpected[best].arrival &&
			!slices.ContainsFunc(q.unexpected[:i], func(o *envelope) bool { return o.src == e.src && o.matches(src, tag) }) {
			best = i
		}
	}
	return best
}

// mailbox holds a rank's matching state, a queue per communicator id.
type mailbox map[int]*ctxQueue

// queue returns the communicator's queue, creating it if needed.
func (mb mailbox) queue(comm int) *ctxQueue {
	q := mb[comm]
	if q == nil {
		q = new(ctxQueue)
		mb[comm] = q
	}
	return q
}

// World is a fixed-size set of ranks that can communicate. Create one with
// NewWorld, optionally attach tracers, then call Run.
//
// A world is single-threaded: its ranks are coroutines and its scheduler
// (RunContext) resumes one at a time, so nothing below is locked. Only
// aborted is touched from outside.
type World struct {
	size    int
	boxes   []mailbox
	factory TracerFactory
	timeout time.Duration

	cost       *CostModel
	eagerLimit int // messages above this rendezvous; 0 = everything eager

	aborted atomic.Bool // set by abort; the scheduler checks it between switches
	ready   readyQueue  // runnable ranks, lowest (virtual clock, world rank) first
	freeEnv *envelope

	meetings map[int64]*meeting // open collective calls, by collCtx
	freeMeet *meeting

	commIDs  map[[3]int]int // (parent id, split sequence, color) -> id
	nextComm int
}

// Option configures a World.
type Option func(*World)

// WithTracerFactory installs a profiling tracer on every rank.
func WithTracerFactory(f TracerFactory) Option {
	return func(w *World) { w.factory = f }
}

// WithTimeout bounds Run by a deadline d after it starts, as
// context.WithTimeout(ctx, d) would: when it passes, Run returns
// context.DeadlineExceeded. Zero means no limit.
func WithTimeout(d time.Duration) Option {
	return func(w *World) { w.timeout = d }
}

// NewWorld creates a world of size ranks.
func NewWorld(size int, opts ...Option) *World {
	if size <= 0 {
		// Asserts a programmer error, on the caller's goroutine — the one
		// panic of this package Run cannot recover. Callers with an
		// untrusted size check it first, as apps.ProfileRunContext does.
		panic(fmt.Sprintf("mpi: world size must be positive, got %d", size))
	}
	w := &World{
		size:     size,
		boxes:    make([]mailbox, size),
		commIDs:  make(map[[3]int]int),
		nextComm: 1, // id 0 is the world communicator
		meetings: make(map[int64]*meeting),
	}
	for i := range w.boxes {
		w.boxes[i] = make(mailbox)
	}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// ErrDeadlock is returned (wrapped, with what every unfinished rank waits
// on) by Run as soon as no rank can run again: each is blocked on a
// receive, a rendezvous send or a collective that only another blocked or
// finished rank could satisfy.
var ErrDeadlock = errors.New("mpi: deadlock")

// abortSignal is the panic value a suspended rank unwinds with when the
// world stops it; the rank's coroutine recovers it silently (the
// world-level error carries the cause).
type abortSignal struct{}

// abort makes the scheduler stop at its next switch and unwind every
// unfinished rank; Run returns once they have exited. It runs on the
// context's AfterFunc goroutine or on a panicking rank.
func (w *World) abort() { w.aborted.Store(true) }

// rankError carries a rank panic out of Run.
type rankError struct {
	rank  int
	value any
	stack []byte
}

func (e *rankError) Error() string {
	return fmt.Sprintf("mpi: rank %d panicked: %v\n%s", e.rank, e.value, e.stack)
}

// Run executes fn once per rank, passing the world communicator handle for
// that rank, and returns after every rank has finished or been unwound. A
// panic inside a rank is recovered into the returned error, naming the rank
// and its stack, and the other ranks are unwound.
func (w *World) Run(fn func(*Comm)) error {
	return w.RunContext(context.Background(), fn)
}

// RunContext is Run with cancellation, and the world's scheduler. Every
// rank is a coroutine; a rank runs until it must block and hands control
// back here, and the loop resumes the runnable rank with the lowest
// (virtual clock, world rank) — a rank far ahead in virtual time does not
// run before the laggards whose sends it may match — so one rank executes
// at a time, in an order that is a pure function of the program. When ctx
// is done (or WithTimeout's deadline passes) the loop stops at its next
// switch, every unfinished coroutine is unwound, and ctx.Err() is returned,
// also when the ranks finish before the loop sees it.
func (w *World) RunContext(ctx context.Context, fn func(*Comm)) error {
	if w.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.timeout)
		defer cancel()
	}
	defer context.AfterFunc(ctx, w.abort)()
	group := make([]int, w.size)
	ranks := make([]*rankState, w.size)
	var errs []error
	for r := range ranks {
		rs := &rankState{world: w, rank: r}
		group[r], ranks[r] = r, rs
		rs.next, rs.stop = iter.Pull(func(yield func(struct{}) bool) {
			defer func() {
				if v := recover(); v != nil && v != (abortSignal{}) {
					errs = append(errs, &rankError{rank: r, value: v, stack: debug.Stack()})
					// Peers may be blocked on traffic this rank will never
					// send: report the real failure, not a deadlock.
					w.abort()
				}
			}()
			rs.yield = yield
			c := &Comm{world: w, group: group, rank: r, rs: rs}
			if w.factory != nil {
				c.tracer = w.factory(r)
			}
			fn(c)
		})
	}
	w.ready = append(w.ready[:0], ranks...) // all at clock 0: rank order is heap order

	live := w.size
	for live > 0 && len(w.ready) > 0 && !w.aborted.Load() {
		if _, more := heap.Pop(&w.ready).(*rankState).next(); !more {
			live--
		}
	}
	for _, rs := range ranks {
		rs.stop() // a suspended rank's yield returns false and it unwinds
	}
	switch {
	case len(errs) > 0:
		return errors.Join(errs...)
	case ctx.Err() != nil:
		// Checked before completion: abort runs on its own goroutine, so
		// the ranks may all finish before the loop sees the flag.
		return ctx.Err()
	case live == 0:
		return nil
	}
	// Not aborted, yet ranks are left: none of them can ever run again.
	return fmt.Errorf("%w: %s", ErrDeadlock, describeBlocked(ranks))
}

// describeBlocked lists what each parked rank of a deadlocked world waits on.
func describeBlocked(ranks []*rankState) string {
	var parts []string
	for _, rs := range ranks {
		if rs.meeting != nil {
			parts = append(parts, fmt.Sprintf("rank %d waits in %v", rs.rank, rs.meeting))
		} else if rs.waiting != nil && rs.nwaiting > 1 {
			parts = append(parts, fmt.Sprintf("rank %d waits on %v (first of %d requests)", rs.rank, rs.waiting, rs.nwaiting))
		} else if rs.waiting != nil {
			parts = append(parts, fmt.Sprintf("rank %d waits on %v", rs.rank, rs.waiting))
		}
	}
	return strings.Join(parts, "; ")
}

// deliver routes an envelope to the destination world rank, completing a
// posted receive when one matches (the oldest: receives match in the order
// they were posted), otherwise queueing it.
func (w *World) deliver(dst, comm int, env *envelope) {
	q := w.boxes[dst].queue(comm)
	for i, p := range q.posted {
		if env.matches(p.peer, p.tag) {
			q.posted = slices.Delete(q.posted, i, i+1)
			w.match(env, p)
			return
		}
	}
	q.unexpected = append(q.unexpected, env)
}

// post registers a receive request for world rank dst: it completes at
// once if an unexpected envelope matches, otherwise it queues.
func (w *World) post(dst int, req *Request) {
	q := w.boxes[dst].queue(req.comm)
	if i := q.find(req.peer, req.tag); i >= 0 {
		env := q.unexpected[i]
		q.unexpected = slices.Delete(q.unexpected, i, i+1)
		w.match(env, req)
		return
	}
	q.posted = append(q.posted, req)
}

// commID returns a world-wide consistent id for a child communicator
// derived from (parent id, per-rank split sequence, color). Every member
// rank that performs the same split observes the same id.
func (w *World) commID(parent, seq, color int) int {
	key := [3]int{parent, seq, color}
	if id, ok := w.commIDs[key]; ok {
		return id
	}
	id := w.nextComm
	w.nextComm++
	w.commIDs[key] = id
	return id
}

// rankState is what every Comm of one rank shares: its virtual clock, its
// free requests and its coroutine.
type rankState struct {
	world *World
	rank  int      // world rank
	clock float64  // virtual time in seconds; stays 0 without a cost model
	free  *Request // released handles, linked through Request.next

	next  func() (struct{}, bool) // scheduler side: resume the rank until it suspends or returns
	stop  func()                  // scheduler side: unwind the rank if it has not returned
	yield func(struct{}) bool     // rank side: suspend; false means unwind

	// While parked the rank waits on nwaiting requests, waiting the first
	// (nil when it is not parked); complete makes it runnable again. Or it
	// waits in a collective's meeting until the last member arrives.
	waiting  *Request
	nwaiting int
	meeting  *meeting
}

// suspend hands control to the scheduler until it resumes this rank, or
// unwinds the rank if the world stopped it instead.
func (rs *rankState) suspend() {
	if !rs.yield(struct{}{}) {
		panic(abortSignal{})
	}
}

// readyQueue is a container/heap of runnable ranks ordered by (virtual
// clock, world rank). A queued rank is not running, so its key is fixed.
type readyQueue []*rankState

func (q readyQueue) Len() int      { return len(q) }
func (q readyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q readyQueue) Less(i, j int) bool {
	return q[i].clock < q[j].clock || q[i].clock == q[j].clock && q[i].rank < q[j].rank
}
func (q *readyQueue) Push(x any) { *q = append(*q, x.(*rankState)) }
func (q *readyQueue) Pop() any {
	old := *q
	rs := old[len(old)-1]
	*q = old[:len(old)-1]
	return rs
}

// Request represents an outstanding nonblocking operation. Its zero value
// is not useful; requests are created by Isend and Irecv.
//
// As in MPI, completion consumes the request: Wait, Waitall and the one
// request Waitany returns hand the handle back to the runtime, which
// reissues it from a later Isend/Irecv of the same rank. Using a handle
// after that — a second Wait, keeping it in a Waitany list — panics with
// "mpi: request used after Wait" until the handle is reissued, and
// aliases an unrelated operation afterwards; drop it (or remove it from
// the list) as soon as it completes. There is no nonblocking completion
// test: a rank that cannot go on blocks, and the scheduler runs another.
//
// A matched receive keeps what its message carried in the handle's own
// fields: peer and tag are what the request matches until it is done and
// the sender's world rank and the message's tag after, n its size.
type Request struct {
	op       reqOp
	done     bool
	released bool    // consumed by the Wait family and not yet reissued
	peer     int     // world rank of the partner, or AnySource
	tag      Tag     // or AnyTag
	comm     int     // communicator id: the matching context
	n        int     // a matched receive's message size
	arrival  float64 // a matched receive's modeled arrival; 0 without a cost model
	rs       *rankState
	next     *Request
}

// reqOp says what a request stands for: a send (complete at once when
// eager, at the match when rendezvous) or a receive.
type reqOp uint8

const (
	opSend reqOp = iota
	opRecv
)

// String describes the operation for ErrDeadlock.
func (r *Request) String() string {
	return fmt.Sprintf("%s(peer %d, tag %d, comm %d)", [...]string{"send", "recv"}[r.op], r.peer, r.tag, r.comm)
}

// newRequest issues a request on c owned by c's rank, reusing a released
// handle when there is one. Every request — user-facing or backing a
// blocking call — comes from here.
func (c *Comm) newRequest(op reqOp, peer int, tag Tag) *Request {
	r := c.rs.free
	if r == nil {
		r = &Request{rs: c.rs}
	} else {
		c.rs.free = r.next
	}
	r.op, r.peer, r.tag, r.comm = op, peer, tag, c.id
	r.next, r.done, r.released = nil, false, false
	return r
}

// release returns a completed request to its rank's free list. A request
// abandoned by an abort is never released, so nothing still in flight can
// complete a reissued handle.
func (c *Comm) release(r *Request) {
	r.released = true
	r.next, c.rs.free = c.rs.free, r
}

// complete records the arrival time in the request, marks it finished
// and, if its owner is parked on it (or on several requests, this perhaps
// among them), makes the owner runnable. It runs on whichever rank matched
// the message.
func (r *Request) complete(arrival float64) {
	if r.done {
		panic("mpi: request completed twice") // asserts a runtime bug: one message matched two requests
	}
	r.done, r.arrival = true, arrival
	if rs := r.rs; rs.waiting == r || rs.waiting != nil && rs.nwaiting > 1 {
		rs.waiting = nil
		heap.Push(&rs.world.ready, rs)
	}
}

// poll reports whether the request has completed.
func (r *Request) poll() bool {
	if r.released {
		panic("mpi: request used after Wait") // asserts a programmer error: completion consumed the handle
	}
	return r.done
}

// waitAny blocks until one of reqs completes and returns its index: poll
// each, else park until complete makes the rank runnable.
func (c *Comm) waitAny(reqs ...*Request) int {
	for {
		for i, r := range reqs {
			if r.poll() {
				return i
			}
		}
		c.rs.waiting, c.rs.nwaiting = reqs[0], len(reqs)
		c.rs.suspend()
	}
}
