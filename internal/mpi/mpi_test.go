package mpi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

const testTimeout = 30 * time.Second

// run executes fn on a fresh world of size p and fails the test on error.
func run(t *testing.T, p int, fn func(*Comm)) {
	t.Helper()
	w := NewWorld(p, WithTimeout(testTimeout))
	if err := w.Run(fn); err != nil {
		t.Fatalf("world run failed: %v", err)
	}
}

func TestNewWorldInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestSendRecvPayload(t *testing.T) {
	run(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, Size(5))
		case 1:
			c.Recv(0, 7)
			if m := c.lastMatch(); m.Source != 0 || m.Tag != 7 || m.N != 5 {
				panic(fmt.Sprintf("bad match %+v", m))
			}
		}
	})
}

func TestSendRecvSizeOnly(t *testing.T) {
	run(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, Size(300000))
		case 1:
			c.Recv(0, 0)
			if m := c.lastMatch(); m.N != 300000 {
				panic(fmt.Sprintf("bad match %+v", m))
			}
		}
	})
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	run(t, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 11, Size(8))
		case 1:
			c.Send(2, 22, Size(16))
		case 2:
			got := map[int]Tag{}
			for i := 0; i < 2; i++ {
				c.Recv(AnySource, AnyTag)
				m := c.lastMatch()
				got[m.Source] = m.Tag
			}
			if got[0] != 11 || got[1] != 22 {
				panic(fmt.Sprintf("bad sources/tags %v", got))
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	run(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			// Send tags out of order; receiver picks them by tag.
			c.Send(1, 2, Size(200))
			c.Send(1, 1, Size(100))
		case 1:
			c.Recv(0, 1)
			n1 := c.lastMatch().N
			c.Recv(0, 2)
			n2 := c.lastMatch().N
			if n1 != 100 || n2 != 200 {
				panic(fmt.Sprintf("tag matching broken: %d %d", n1, n2))
			}
		}
	})
}

func TestNonOvertakingOrder(t *testing.T) {
	const n = 50
	run(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				c.Send(1, 5, Size(i+1))
			}
		case 1:
			for i := 0; i < n; i++ {
				c.Recv(0, 5)
				if n := c.lastMatch().N; n != i+1 {
					panic(fmt.Sprintf("message %d overtaken: got %d", i, n))
				}
			}
		}
	})
}

func TestIsendIrecvWait(t *testing.T) {
	run(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			req := c.Isend(1, 3, Size(3))
			c.Wait(req)
		case 1:
			req := c.Irecv(0, 3)
			c.Wait(req)
			if m := req.matched(); m.Source != 0 || m.N != 3 {
				panic(fmt.Sprintf("bad match %+v", m))
			}
		}
	})
}

func TestIrecvPostedBeforeSend(t *testing.T) {
	run(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			req := c.Irecv(1, 9)
			c.Send(1, 8, Size(1)) // tell rank 1 the recv is posted
			c.Wait(req)
			if n := req.matched().N; n != 42 {
				panic(fmt.Sprintf("bad size %d", n))
			}
		case 1:
			c.Recv(0, 8)
			c.Send(0, 9, Size(42))
		}
	})
}

func TestWaitall(t *testing.T) {
	run(t, 4, func(c *Comm) {
		n := c.Size()
		me := c.Rank()
		reqs := make([]*Request, 0, 2*(n-1))
		for p := 0; p < n; p++ {
			if p == me {
				continue
			}
			reqs = append(reqs, c.Irecv(p, 1))
		}
		for p := 0; p < n; p++ {
			if p == me {
				continue
			}
			reqs = append(reqs, c.Isend(p, 1, Size(100+me)))
		}
		c.Waitall(reqs)
		for i := 0; i < n-1; i++ {
			// Receive i was posted to the i-th peer, which sent 100+itself.
			peer := i
			if i >= me {
				peer++
			}
			if m := reqs[i].matched(); m.Source != peer || m.N != 100+peer {
				panic(fmt.Sprintf("receive %d matched %+v, want the message of rank %d", i, m, peer))
			}
		}
	})
}

func TestWaitany(t *testing.T) {
	run(t, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			reqs := []*Request{c.Irecv(1, 1), c.Irecv(2, 1)}
			seen := map[int]bool{}
			for len(reqs) > 0 {
				i := c.Waitany(reqs)
				seen[reqs[i].matched().Source] = true
				reqs = append(reqs[:i], reqs[i+1:]...)
			}
			if !seen[1] || !seen[2] {
				panic(fmt.Sprintf("waitany missed a source: %v", seen))
			}
		default:
			c.Send(0, 1, Size(c.Rank()*10))
		}
	})
}

func TestSendrecvRing(t *testing.T) {
	run(t, 5, func(c *Comm) {
		n := c.Size()
		me := c.Rank()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		c.Sendrecv(right, 6, Size(1000+me), left, 6)
		if m := c.lastMatch(); m.Source != left || m.N != 1000+left {
			panic(fmt.Sprintf("ring exchange broken: %+v", m))
		}
	})
}

func TestSelfSend(t *testing.T) {
	run(t, 1, func(c *Comm) {
		req := c.Irecv(0, 1)
		c.Send(0, 1, Size(4))
		c.Wait(req)
		if m := req.matched(); m.Source != 0 || m.Tag != 1 || m.N != 4 {
			panic(fmt.Sprintf("self message lost: %+v", m))
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	w := NewWorld(2, WithTimeout(testTimeout))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

// TestDeadlockIsDetected: a receive nobody sends leaves nothing runnable,
// and the scheduler says so at once, naming the rank and what it waits on,
// instead of sitting out the world's timeout.
func TestDeadlockIsDetected(t *testing.T) {
	const timeout = 50 * time.Millisecond
	w := NewWorld(3, WithTimeout(timeout), WithEagerLimit(16))
	start := time.Now()
	err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Recv(1, 1) // never sent
		case 2:
			c.Waitany([]*Request{c.Isend(0, 5, Size(64)), c.Irecv(AnySource, AnyTag)}) // rendezvous nobody matches
		}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	if took := time.Since(start); took > timeout/2 {
		t.Errorf("deadlock reported after %v, want well inside the %v timeout", took, timeout)
	}
	for _, want := range []string{
		"rank 0 waits on recv(peer 1, tag 1, comm 0)",
		"rank 2 waits on send(peer 0, tag 5, comm 0) (first of 2 requests)",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q does not say %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "rank 1") {
		t.Errorf("deadlock error %q names rank 1, which finished", err)
	}

	// A rank parked in a collective is named too, with its communicator
	// and how many members arrived, and a context that can be cancelled but
	// is not changes nothing.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = NewWorld(2, WithTimeout(testTimeout)).RunContext(ctx, func(c *Comm) {
		if c.Rank() == 1 {
			c.Split(0, c.Rank()).Barrier()
		}
	})
	for _, want := range []string{"rank 1 waits in MPI_Comm_split(comm 0, ", "inside collective 1, 1 of 2 arrived)"} {
		if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q does not say %q", err, want)
		}
	}
}

// TestTimeoutWhileRunning: WithTimeout is a context deadline, so two ranks
// that trade messages forever are unwound when it passes and Run says so.
func TestTimeoutWhileRunning(t *testing.T) {
	w := NewWorld(2, WithTimeout(50*time.Millisecond))
	err := w.Run(func(c *Comm) {
		for peer := 1 - c.Rank(); ; {
			c.Sendrecv(peer, 1, Size(8), peer, 1)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v", err)
	}
}

func TestInvalidRankPanics(t *testing.T) {
	w := NewWorld(2, WithTimeout(testTimeout))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(5, 0, Size(1))
		}
	})
	if err == nil {
		t.Fatal("expected error for out-of-range destination")
	}
}

// recordingTracer captures events for tracer tests.
type recordingTracer struct {
	mu     sync.Mutex
	events []Event
}

func (r *recordingTracer) Event(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func TestTracerSeesCallsAndRegions(t *testing.T) {
	tracers := make(map[int]*recordingTracer)
	var mu sync.Mutex
	w := NewWorld(2,
		WithTimeout(testTimeout),
		WithTracerFactory(func(rank int) Tracer {
			tr := &recordingTracer{}
			mu.Lock()
			tracers[rank] = tr
			mu.Unlock()
			return tr
		}))
	err := w.Run(func(c *Comm) {
		c.RegionBegin("step")
		if c.Rank() == 0 {
			c.Send(1, 1, Size(2048))
		} else {
			c.Recv(0, 1)
		}
		c.RegionEnd()
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	ev0 := tracers[0].events
	var send *Event
	for i := range ev0 {
		if ev0[i].Call == CallSend {
			send = &ev0[i]
		}
	}
	if send == nil {
		t.Fatal("tracer missed MPI_Send")
	}
	if send.Peer != 1 || send.Bytes != 2048 || send.Region != "step" {
		t.Fatalf("bad send event %+v", *send)
	}
	// Barrier happens outside the region.
	var barrier *Event
	for i := range ev0 {
		if ev0[i].Call == CallBarrier {
			barrier = &ev0[i]
		}
	}
	if barrier == nil || barrier.Region != "" {
		t.Fatalf("bad barrier event %+v", barrier)
	}
}

func TestCollectivesNotTracedAsPTP(t *testing.T) {
	tracers := make(map[int]*recordingTracer)
	var mu sync.Mutex
	w := NewWorld(4,
		WithTimeout(testTimeout),
		WithTracerFactory(func(rank int) Tracer {
			tr := &recordingTracer{}
			mu.Lock()
			tracers[rank] = tr
			mu.Unlock()
			return tr
		}))
	err := w.Run(func(c *Comm) {
		b := Buf{}
		if c.Rank() == 0 {
			b = Size(5)
		}
		c.Bcast(0, &b)
		c.Allreduce(Size(8))
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, tr := range tracers {
		for _, e := range tr.events {
			if e.Call.IsPointToPoint() {
				t.Fatalf("rank %d: internal collective traffic traced as %s", rank, e.Call)
			}
		}
	}
}

func TestRendezvousBlocksUntilPosted(t *testing.T) {
	// Short timeout: this run is SUPPOSED to deadlock.
	w := NewWorld(2, WithTimeout(300*time.Millisecond), WithEagerLimit(1024))
	var order []string
	var mu sync.Mutex
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			// Small message: eager, completes immediately.
			c.Send(1, 1, Size(64))
			note("eager-send-done")
			// Large message: rendezvous, blocks until rank 1 posts.
			c.Send(1, 2, Size(1<<20))
			note("rendezvous-send-done")
		case 1:
			c.Recv(0, 1)
			note("small-received")
			// Delay the large receive behind a round trip so the sender
			// observably blocks.
			c.Send(0, 3, Size(8))
			c.Recv(0, 4)
			note("posting-large-recv")
			c.Recv(0, 2)
		}
	})
	// Rank 0 cannot answer tag 3/4 while blocked in the rendezvous send:
	// this run would deadlock if the ordering were wrong — use a separate
	// world to check that no deadlock occurs in the valid ordering below.
	if err == nil {
		t.Fatal("expected deadlock: rendezvous send blocks before the tag-4 reply")
	}
}

func TestRendezvousCompletes(t *testing.T) {
	w := NewWorld(2, WithTimeout(testTimeout), WithEagerLimit(1024))
	err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, Size(1<<20)) // rendezvous
			c.Send(1, 2, Size(16))    // eager chaser
		case 1:
			c.Recv(0, 1)
			if c.lastMatch().N != 1<<20 {
				panic("wrong rendezvous payload")
			}
			c.Recv(0, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousIsend(t *testing.T) {
	w := NewWorld(2, WithTimeout(testTimeout), WithEagerLimit(1024))
	posted := false
	err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Wait(c.Isend(1, 1, Size(1<<20))) // completes once rank 1 posts
			if !posted {
				panic("rendezvous isend completed before the receive was posted")
			}
		case 1:
			posted = true
			c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousSendrecvPairsSafely(t *testing.T) {
	// Pairwise large sendrecv must not deadlock under rendezvous because
	// each side posts its receive before blocking on the ack.
	w := NewWorld(4, WithTimeout(testTimeout), WithEagerLimit(1024))
	err := w.Run(func(c *Comm) {
		n, me := c.Size(), c.Rank()
		right, left := (me+1)%n, (me+n-1)%n
		c.Sendrecv(right, 1, Size(1<<20), left, 1)
		if m := c.lastMatch(); m.Source != left || m.N != 1<<20 {
			panic("sendrecv payload lost under rendezvous")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMatchingFuzz drives random tagged traffic between two ranks and
// verifies every message is received exactly once with matched metadata.
func TestMatchingFuzz(t *testing.T) {
	f := func(seed int64) bool {
		state := uint64(seed) | 1
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state>>33) % n
		}
		const msgs = 40
		type key struct {
			tag  Tag
			size int
		}
		sent := make(map[key]int)
		plan := make([]key, msgs)
		for i := range plan {
			k := key{tag: Tag(next(5)), size: next(1000) + 1}
			plan[i] = k
			sent[k]++
		}
		got := make(map[key]int)
		w := NewWorld(2, WithTimeout(testTimeout))
		err := w.Run(func(c *Comm) {
			switch c.Rank() {
			case 0:
				for _, k := range plan {
					c.Send(1, k.tag, Size(k.size))
				}
			case 1:
				for i := 0; i < msgs; i++ {
					c.Recv(0, AnyTag)
					m := c.lastMatch()
					got[key{tag: m.Tag, size: m.N}]++
				}
			}
		})
		if err != nil {
			return false
		}
		if len(got) != len(sent) {
			return false
		}
		for k, n := range sent {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
