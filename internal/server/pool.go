package server

import (
	"context"
	"errors"
	"sync"
)

// ErrSaturated is returned by pool.acquire when every worker slot is busy
// and the wait queue is full; handlers translate it to 429 + Retry-After.
var ErrSaturated = errors.New("server: worker pool saturated")

// ErrClosed is returned once the pool has been closed for shutdown.
var ErrClosed = errors.New("server: worker pool closed")

// pool bounds concurrent pipeline executions: at most `workers` run at
// once and at most `queueLimit` wait for a slot. Anything beyond that is
// rejected immediately — profiling at P=256 is expensive, so shedding
// load beats building an unbounded backlog.
type pool struct {
	slots      chan struct{} // buffered; holding a token = running
	closeCh    chan struct{}
	queueLimit int

	mu     sync.Mutex
	queued int
	closed bool
}

func newPool(workers, queueLimit int) *pool {
	if workers < 1 {
		workers = 1
	}
	if queueLimit < 0 {
		queueLimit = 0
	}
	return &pool{
		slots:      make(chan struct{}, workers),
		closeCh:    make(chan struct{}),
		queueLimit: queueLimit,
	}
}

// acquire blocks until a worker slot is free, the queue overflows
// (ErrSaturated), ctx is done, or the pool closes.
func (p *pool) acquire(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	select {
	case p.slots <- struct{}{}:
		p.mu.Unlock()
		return nil
	default:
	}
	if p.queued >= p.queueLimit {
		p.mu.Unlock()
		return ErrSaturated
	}
	p.queued++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.queued--
		p.mu.Unlock()
	}()
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.closeCh:
		return ErrClosed
	}
}

// release returns a worker slot.
func (p *pool) release() { <-p.slots }

// close rejects all future and queued acquisitions. Running work is
// unaffected; callers drain it separately.
func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.closeCh)
	}
}

// queueDepth reports how many acquirers are waiting.
func (p *pool) queueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}
