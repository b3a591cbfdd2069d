package mpi

import (
	"testing"
	"time"
)

// BenchmarkPingPong measures the per-message cost of the matched
// send/receive hot path: rank 0 sends, rank 1 receives, then the roles
// swap. One op is one full round trip (two messages).
func BenchmarkPingPong(b *testing.B) {
	w := NewWorld(2, WithTimeout(time.Minute), WithCostModel(DefaultCostModel()))
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 7, Size(1024))
				c.Recv(1, 7)
			} else {
				c.Recv(0, 7)
				c.Send(0, 7, Size(1024))
			}
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIsendWait measures the eager nonblocking path: an Isend is
// complete on return, so Wait should not need a channel round trip.
func BenchmarkIsendWait(b *testing.B) {
	w := NewWorld(2, WithTimeout(time.Minute), WithCostModel(DefaultCostModel()))
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < b.N; i++ {
			sreq := c.Isend(peer, 3, Size(256))
			rreq := c.Irecv(peer, 3)
			c.Wait(sreq)
			c.Wait(rreq)
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHaloExchange models the stencil pattern every grid skeleton
// leans on: each rank posts receives from both ring neighbours, sends to
// both, then waits on all four requests.
func BenchmarkHaloExchange(b *testing.B) {
	const ranks = 8
	w := NewWorld(ranks, WithTimeout(time.Minute), WithCostModel(DefaultCostModel()))
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(c *Comm) {
		left := (c.Rank() - 1 + ranks) % ranks
		right := (c.Rank() + 1) % ranks
		reqs := make([]*Request, 4)
		for i := 0; i < b.N; i++ {
			reqs[0] = c.Irecv(left, 1)
			reqs[1] = c.Irecv(right, 2)
			reqs[2] = c.Isend(right, 1, Size(8192))
			reqs[3] = c.Isend(left, 2, Size(8192))
			c.Waitall(reqs)
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduce8 exercises the meeting churn: every call opens a
// meeting, and the last rank to leave must put it back on the world's free
// list, so a steady loop allocates nothing (TestAllreduceAllocatesNothing).
func BenchmarkAllreduce8(b *testing.B) {
	const ranks = 8
	w := NewWorld(ranks, WithTimeout(time.Minute), WithCostModel(DefaultCostModel()))
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.Allreduce(Size(32))
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}
