package mpi

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// ptpCtx returns the matching context of ordinary point-to-point traffic
// on a communicator: the comm id shifted past the sequence bits collective
// contexts use (collectives always have a nonzero sequence, so the two
// namespaces never collide).
func ptpCtx(commID int) int64 { return int64(commID) << 32 }

// isPtpCtx reports whether a context is a communicator's long-lived
// point-to-point context (zero sequence bits) rather than a one-shot
// collective context.
func isPtpCtx(ctx int64) bool { return ctx&0xffffffff == 0 }

// envelope is one in-flight message. Envelopes are pooled: the runtime
// owns them from send to match and recycles them once the receive status
// has been built.
type envelope struct {
	src    int // world rank of the sender
	tag    Tag
	ctx    int64
	size   int
	data   []byte
	sentAt float64       // sender's virtual clock at the send
	ack    chan struct{} // rendezvous: closed when the receive matches; nil for eager
}

var envPool = sync.Pool{New: func() any { return new(envelope) }}

func putEnvelope(e *envelope) {
	*e = envelope{}
	envPool.Put(e)
}

// postedRecv is a receive waiting for a matching envelope. Like
// envelopes, postedRecvs never escape the runtime and are pooled.
type postedRecv struct {
	src int // world rank or AnySource
	tag Tag // or AnyTag
	req *Request
}

var postedPool = sync.Pool{New: func() any { return new(postedRecv) }}

func putPostedRecv(p *postedRecv) {
	p.req = nil
	postedPool.Put(p)
}

// matchSrcTag applies the point-to-point matching rule within one
// context: source and tag must agree, with AnySource/AnyTag wildcards.
func matchSrcTag(src int, tag Tag, e *envelope) bool {
	if src != AnySource && src != e.src {
		return false
	}
	if tag != AnyTag && tag != e.tag {
		return false
	}
	return true
}

// ctxQueue holds the unmatched envelopes and pending receives of one
// matching context. Splitting the mailbox by context turns the old
// O(posted x unexpected) scan over all traffic into a scan over only the
// messages that could legally match — for collective-heavy workloads the
// queues are a handful of entries deep. A matched element leaves through
// slices.Delete, which zeroes the vacated tail slot: the element goes
// straight back to its pool, and a stale pointer left in the backing array
// would alias whatever the pool hands it to next.
type ctxQueue struct {
	unexpected []*envelope
	posted     []*postedRecv
}

// mailbox holds a rank's matching state, indexed by context, plus any
// blocked probes (probes are rare enough that a flat list suffices).
type mailbox struct {
	mu      sync.Mutex
	ctxs    map[int64]*ctxQueue
	probers []*probeWaiter
	free    *ctxQueue // one retired queue kept warm for the next collective
}

// queue returns the context's queue, creating it if needed. Callers hold
// mb.mu.
func (mb *mailbox) queue(ctx int64) *ctxQueue {
	if q, ok := mb.ctxs[ctx]; ok {
		return q
	}
	q := mb.free
	if q != nil {
		mb.free = nil
	} else {
		q = new(ctxQueue)
	}
	mb.ctxs[ctx] = q
	return q
}

// retire drops a drained collective context so the index does not grow
// with every collective ever executed; the communicator's long-lived
// point-to-point context stays resident. Callers hold mb.mu.
func (mb *mailbox) retire(ctx int64, q *ctxQueue) {
	if isPtpCtx(ctx) || len(q.unexpected) != 0 || len(q.posted) != 0 {
		return
	}
	delete(mb.ctxs, ctx)
	if mb.free == nil {
		mb.free = q
	}
}

// World is a fixed-size set of ranks that can communicate. Create one with
// NewWorld, optionally attach tracers, then call Run.
type World struct {
	size    int
	boxes   []*mailbox
	factory TracerFactory
	timeout time.Duration

	cost       *CostModel
	eagerLimit int // messages above this rendezvous; 0 = everything eager

	abort     chan struct{} // closed by Abort; unwinds every blocked rank
	abortOnce sync.Once

	commMu   sync.Mutex
	commIDs  map[[3]int]int // (parent id, split sequence, color) -> id
	nextComm int
}

// Option configures a World.
type Option func(*World)

// WithTracerFactory installs a profiling tracer on every rank.
func WithTracerFactory(f TracerFactory) Option {
	return func(w *World) { w.factory = f }
}

// WithTimeout aborts Run with an error if the ranks have not all finished
// after d. It guards tests against deadlocks; zero means no limit.
func WithTimeout(d time.Duration) Option {
	return func(w *World) { w.timeout = d }
}

// NewWorld creates a world of size ranks.
func NewWorld(size int, opts ...Option) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size must be positive, got %d", size))
	}
	w := &World{
		size:     size,
		boxes:    make([]*mailbox, size),
		abort:    make(chan struct{}),
		commIDs:  make(map[[3]int]int),
		nextComm: 1, // id 0 is the world communicator
	}
	for i := range w.boxes {
		w.boxes[i] = &mailbox{ctxs: make(map[int64]*ctxQueue)}
	}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// ErrTimeout is returned by Run when WithTimeout expires, which almost
// always means the rank program deadlocked.
var ErrTimeout = errors.New("mpi: world timed out (deadlock?)")

// abortSignal is the panic value a blocked rank unwinds with after Abort;
// the rank launcher recovers it silently (the world-level error carries
// the cause).
type abortSignal struct{}

// Abort unblocks every rank waiting inside the runtime; each unwinds its
// goroutine and Run returns once all ranks have exited. Safe to call
// multiple times and from any goroutine.
func (w *World) Abort() {
	w.abortOnce.Do(func() { close(w.abort) })
}

// rankError carries a rank panic out of Run.
type rankError struct {
	rank  int
	value any
	stack []byte
}

func (e *rankError) Error() string {
	return fmt.Sprintf("mpi: rank %d panicked: %v\n%s", e.rank, e.value, e.stack)
}

// Run executes fn once per rank, each on its own goroutine, passing the
// world communicator handle for that rank. It returns after every rank
// finishes. Panics inside ranks are recovered and joined into the returned
// error; remaining ranks may then block forever, so Run should normally be
// combined with WithTimeout in tests.
func (w *World) Run(fn func(*Comm)) error {
	return w.RunContext(context.Background(), fn)
}

// RunContext is Run with cancellation: when ctx is done before the ranks
// finish, the world aborts — every rank blocked inside the runtime
// unwinds, RunContext waits for all rank goroutines to exit, and returns
// ctx.Err(). The same abort path serves WithTimeout, so a timed-out world
// no longer leaks its rank goroutines.
func (w *World) RunContext(ctx context.Context, fn func(*Comm)) error {
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		errs  []error
	)
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					if _, ok := v.(abortSignal); ok {
						return // deliberate unwind; the cause is reported by RunContext
					}
					errMu.Lock()
					errs = append(errs, &rankError{rank: rank, value: v, stack: debug.Stack()})
					errMu.Unlock()
					// Peers may be blocked on traffic this rank will never
					// send; unwind them so Run reports the real failure
					// instead of a timeout.
					w.Abort()
				}
			}()
			c := &Comm{
				world:  w,
				id:     0,
				group:  group,
				rank:   rank,
				clockp: new(float64),
				rs:     &rankState{wake: make(chan struct{}, 1)},
			}
			if w.factory != nil {
				c.tracer = w.factory(rank)
			}
			fn(c)
		}(r)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var timeoutC <-chan time.Time
	if w.timeout > 0 {
		t := time.NewTimer(w.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case <-done:
	case <-ctx.Done():
		w.Abort()
		<-done
		return ctx.Err()
	case <-timeoutC:
		w.Abort()
		<-done
		return ErrTimeout
	}
	return errors.Join(errs...)
}

// deliver routes an envelope to the destination world rank, completing a
// posted receive when one matches, otherwise queueing it. Matched
// envelopes and receive slots return to their pools here.
func (w *World) deliver(dst int, env *envelope) {
	mb := w.boxes[dst]
	mb.mu.Lock()
	q := mb.queue(env.ctx)
	for i, p := range q.posted {
		if matchSrcTag(p.src, p.tag, env) {
			q.posted = slices.Delete(q.posted, i, i+1)
			mb.retire(env.ctx, q)
			mb.mu.Unlock()
			if env.ack != nil {
				close(env.ack)
			}
			req := p.req
			st := w.statusOf(env)
			putPostedRecv(p)
			putEnvelope(env)
			req.complete(st)
			return
		}
	}
	q.unexpected = append(q.unexpected, env)
	mb.notifyProbers(env)
	mb.mu.Unlock()
}

// post registers a receive for world rank dst, first scanning the
// context's unexpected queue in arrival order to preserve non-overtaking
// matching. An immediate match completes req without queueing anything.
func (w *World) post(dst, src int, tag Tag, ctx int64, req *Request) {
	mb := w.boxes[dst]
	mb.mu.Lock()
	q := mb.queue(ctx)
	for i, env := range q.unexpected {
		if matchSrcTag(src, tag, env) {
			q.unexpected = slices.Delete(q.unexpected, i, i+1)
			mb.retire(ctx, q)
			mb.mu.Unlock()
			if env.ack != nil {
				close(env.ack)
			}
			st := w.statusOf(env)
			putEnvelope(env)
			req.complete(st)
			return
		}
	}
	p := postedPool.Get().(*postedRecv)
	p.src, p.tag, p.req = src, tag, req
	q.posted = append(q.posted, p)
	mb.mu.Unlock()
}

// statusOf builds the receive status of an envelope, stamping the
// modeled arrival time when a cost model is installed.
func (w *World) statusOf(env *envelope) Status {
	st := Status{Source: env.src, Tag: env.tag, N: env.size, Data: env.data}
	if w.cost != nil {
		st.VTime = w.cost.ptpArrival(env.sentAt, env.size)
	}
	return st
}

// commID returns a process-wide consistent id for a child communicator
// derived from (parent id, per-rank split sequence, color). Every member
// rank that performs the same split observes the same id.
func (w *World) commID(parent, seq, color int) int {
	key := [3]int{parent, seq, color}
	w.commMu.Lock()
	defer w.commMu.Unlock()
	if id, ok := w.commIDs[key]; ok {
		return id
	}
	id := w.nextComm
	w.nextComm++
	w.commIDs[key] = id
	return id
}

// rankState is what every Comm of one rank shares besides the clock: the
// rank's free requests and the channel it sleeps on.
type rankState struct {
	free *Request // released handles, linked through Request.next
	// wake carries at most one token: "some request this rank armed has
	// completed since you last looked". Only the rank itself receives.
	wake chan struct{}
}

// Request represents an outstanding nonblocking operation. Its zero value
// is not useful; requests are created by Isend and Irecv.
//
// As in MPI, completion consumes the request: Wait, Waitall, the one
// request Waitany returns and a successful Test hand the handle back to
// the runtime, which reissues it from a later Isend/Irecv of the same
// rank. Using a handle after that — a second Wait, Done, keeping it in a
// Waitany list — panics with "mpi: request used after Wait" until the
// handle is reissued, and aliases an unrelated operation afterwards; drop
// it (or remove it from the list) as soon as it completes.
type Request struct {
	mu       sync.Mutex
	done     bool
	armed    bool // the owner may be asleep: complete must post a wake token
	released bool // consumed by the Wait family and not yet reissued
	isRecv   bool
	status   Status
	rs       *rankState
	next     *Request
}

// newRequest issues a request owned by c's rank, reusing a released
// handle when there is one. Every request — user-facing or backing a
// blocking receive or a collective — comes from here.
func (c *Comm) newRequest(isRecv bool) *Request {
	r := c.rs.free
	if r == nil {
		return &Request{isRecv: isRecv, rs: c.rs}
	}
	c.rs.free = r.next
	r.next, r.done, r.armed, r.released, r.isRecv = nil, false, false, false, isRecv
	return r
}

// release returns a completed request to its rank's free list. A request
// abandoned by an abort is never released, so nothing still in flight can
// complete a reissued handle.
func (c *Comm) release(r *Request) {
	r.status = Status{} // drop the payload reference
	r.released = true
	r.next, c.rs.free = c.rs.free, r
}

// complete marks the request finished and, if its owner armed it, posts
// the rank's wake token. It runs on whichever goroutine matched the
// message: the owner itself, the sending rank, or a rendezvous ack waiter.
func (r *Request) complete(st Status) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		panic("mpi: request completed twice")
	}
	r.done = true
	r.status = st
	if r.armed {
		select {
		case r.rs.wake <- struct{}{}:
		default: // a token is already pending; the owner re-polls everything
		}
	}
	r.mu.Unlock()
}

// poll reports the status if the request has completed; otherwise it arms
// the request so that its completion wakes the owner.
func (r *Request) poll() (Status, bool) {
	r.mu.Lock()
	released, done, st := r.released, r.done, r.status
	r.armed = !done
	r.mu.Unlock()
	if released {
		panic("mpi: request used after Wait")
	}
	return st, done
}

// Done reports whether the request has completed without blocking.
func (r *Request) Done() bool {
	_, done := r.poll()
	return done
}

// sleep parks the rank until one of its armed requests completes or the
// world aborts, and reports which. Tokens can be stale (left by a request
// an earlier Waitany armed), so callers re-poll in a loop.
func (c *Comm) sleep() (aborted bool) {
	select {
	case <-c.rs.wake:
		return false
	case <-c.world.abort:
		return true
	}
}

// waitAny blocks until one of reqs completes and returns its index and
// status: poll each under its lock, else sleep on the rank's channel. If
// the world is aborted while blocked, the rank unwinds via abortSignal —
// after one last poll, so a completion that raced with the abort wins.
func (c *Comm) waitAny(reqs ...*Request) (int, Status) {
	for aborted := false; ; aborted = c.sleep() {
		for i, r := range reqs {
			if st, ok := r.poll(); ok {
				return i, st
			}
		}
		if aborted {
			panic(abortSignal{})
		}
	}
}

// waitFree waits on a request and releases it.
func (c *Comm) waitFree(r *Request) Status {
	_, st := c.waitAny(r)
	c.release(r)
	return st
}
