package mpi

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// runTimed executes fn on a world with the default cost model.
func runTimed(t *testing.T, p int, fn func(*Comm)) {
	t.Helper()
	w := NewWorld(p,
		WithTimeout(30*time.Second),
		WithCostModel(DefaultCostModel()))
	if err := w.Run(fn); err != nil {
		t.Fatalf("world run failed: %v", err)
	}
}

func TestVirtualTimeDisabledByDefault(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, Size(1<<20))
		} else {
			c.Recv(0, 1)
		}
		if c.VirtualTime() != 0 {
			panic("clock moved without a cost model")
		}
	})
}

func TestVirtualTimeCausality(t *testing.T) {
	m := DefaultCostModel()
	runTimed(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, Size(1<<20))
		case 1:
			c.Recv(0, 1)
			st := c.lastMatch()
			// The receive cannot complete before send-time + latency +
			// transfer: ~2us + 1MB/1GBps ≈ 1.05 ms.
			minArrival := m.Latency + float64(1<<20)/m.Bandwidth
			if st.VTime < minArrival {
				panic(fmt.Sprintf("arrival %g before physical minimum %g", st.VTime, minArrival))
			}
			if c.VirtualTime() < st.VTime {
				panic("receiver clock behind the message it received")
			}
		}
	})
}

func TestVirtualTimeAccumulatesTransfers(t *testing.T) {
	m := DefaultCostModel()
	runTimed(t, 2, func(c *Comm) {
		const msgs = 10
		const size = 1 << 20
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				c.Send(1, 1, Size(size))
			}
			// Blocking sends pay occupancy: ≥ msgs × transfer.
			want := float64(msgs) * float64(size) / m.Bandwidth
			if c.VirtualTime() < want {
				panic(fmt.Sprintf("sender clock %g below %g", c.VirtualTime(), want))
			}
		} else {
			var last float64
			for i := 0; i < msgs; i++ {
				c.Recv(0, 1)
				at := c.lastMatch().VTime
				if at < last {
					panic("arrivals regressed in virtual time")
				}
				last = at
			}
		}
	})
}

func TestVirtualTimeSharedAcrossComms(t *testing.T) {
	runTimed(t, 4, func(c *Comm) {
		sub := c.Split(c.Rank()%2, 0)
		before := c.VirtualTime()
		sub.Allreduce(Size(8))
		if c.VirtualTime() <= before {
			panic("sub-communicator traffic did not advance the rank clock")
		}
		if sub.VirtualTime() != c.VirtualTime() {
			panic("clock not shared between comms of the same rank")
		}
	})
}

func TestCollectiveCostScalesWithSize(t *testing.T) {
	m := DefaultCostModel()
	c8 := m.collectiveCost(CallAllreduce, 8, 8)
	c256 := m.collectiveCost(CallAllreduce, 8, 256)
	if c256 <= c8 {
		t.Errorf("allreduce cost did not grow with ranks: %g vs %g", c8, c256)
	}
	if m.collectiveCost(CallBarrier, 0, 1) != m.Overhead {
		t.Error("single-rank collective should cost only overhead")
	}
	ar := m.collectiveCost(CallAllreduce, 1024, 64)
	bc := m.collectiveCost(CallBcast, 1024, 64)
	if ar <= bc {
		t.Errorf("allreduce %g should exceed bcast %g", ar, bc)
	}
}

func TestDefaultCostModelBDP(t *testing.T) {
	m := DefaultCostModel()
	bdp := m.Latency * m.Bandwidth
	if math.Abs(bdp-2000) > 100 {
		t.Errorf("default model BDP %g bytes, want ≈2KB (Table 1)", bdp)
	}
}

func TestEventTimestampsMonotone(t *testing.T) {
	var events []Event
	w := NewWorld(2,
		WithTimeout(30*time.Second),
		WithCostModel(DefaultCostModel()),
		WithTracerFactory(func(rank int) Tracer {
			if rank == 0 {
				return tracerFunc(func(e Event) { events = append(events, e) })
			}
			return tracerFunc(func(Event) {})
		}))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, Size(4096))
			c.Recv(1, 2)
			c.Allreduce(Size(8))
		} else {
			c.Recv(0, 1)
			c.Send(0, 2, Size(4096))
			c.Allreduce(Size(8))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("event %d time %g regressed below %g", i, events[i].T, events[i-1].T)
		}
	}
	if events[len(events)-1].T == 0 {
		t.Fatal("events carry no virtual time")
	}
}

// TestSendrecvFromProcNullObservesArrival is a regression test for the
// boundary of a non-periodic shift: a Sendrecv whose destination is
// ProcNull still receives, so it must merge the arrival into the clock and
// stamp its event after the receive, as Recv does. Before the fix the
// receiver's clock stayed behind the send it had just consumed.
func TestSendrecvFromProcNullObservesArrival(t *testing.T) {
	m := DefaultCostModel()
	const pad, size = 4 << 20, 1 << 20
	var eventT, t0 float64 // a world runs one rank at a time: no lock
	w := NewWorld(2,
		WithTimeout(30*time.Second),
		WithCostModel(m),
		WithTracerFactory(func(rank int) Tracer {
			return tracerFunc(func(e Event) {
				if rank == 0 && e.Call == CallSendrecv {
					eventT = e.T
				}
			})
		}))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(1, 2, Size(pad)) // to itself: pushes the clock to t ≈ 4 ms
			c.Recv(1, 2)
			t0 = c.VirtualTime()
			c.Sendrecv(0, 1, Size(size), ProcNull, 1)
			c.Send(0, 3, Size(8))
			return
		}
		before := c.VirtualTime()
		c.Sendrecv(ProcNull, 1, Size(size), 1, 1)
		st := c.lastMatch()
		after := c.VirtualTime()
		c.Recv(1, 3) // rank 1 set t0 before this send
		if want := t0 + m.Latency + m.transfer(size); st.N != size || st.VTime < want || after < want {
			panic(fmt.Sprintf("Sendrecv(ProcNull, …, 1, …): matched %+v, clock %g → %g, want both ≥ %g", st, before, after, want))
		}
		if eventT < after {
			panic(fmt.Sprintf("Sendrecv event stamped %g, before the receive completed at %g", eventT, after))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tracerFunc adapts a function to the Tracer interface.
type tracerFunc func(Event)

func (f tracerFunc) Event(e Event) { f(e) }
