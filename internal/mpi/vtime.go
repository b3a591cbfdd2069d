package mpi

import "math"

// CostModel assigns modeled durations to communication operations so
// profiles carry a virtual timeline (IPM reports time in MPI per call
// signature). Point-to-point time is causal: a receive cannot complete
// before the matching send's virtual time plus transfer cost. Collectives
// use a logarithmic tree estimate without cross-rank clock merging, which
// is adequate for the ranking analyses the repository performs.
type CostModel struct {
	// Latency is the per-message wire+stack latency in seconds.
	Latency float64
	// Bandwidth is the link bandwidth in bytes/second.
	Bandwidth float64
	// Overhead is the per-call CPU cost in seconds.
	Overhead float64
}

// DefaultCostModel approximates the paper's leading-edge interconnects:
// 2 µs latency, 1 GB/s per link, 200 ns of per-call overhead (so the
// bandwidth-delay product is ~2 KB, matching Table 1's best entries).
func DefaultCostModel() CostModel {
	return CostModel{Latency: 2e-6, Bandwidth: 1e9, Overhead: 200e-9}
}

// transfer is the time for n bytes on the wire.
func (m CostModel) transfer(n int) float64 {
	if m.Bandwidth <= 0 {
		return 0
	}
	return float64(n) / m.Bandwidth
}

// ptpArrival is the virtual arrival time of a message sent at sentAt.
func (m CostModel) ptpArrival(sentAt float64, n int) float64 {
	return sentAt + m.Latency + m.transfer(n)
}

// collectiveCost estimates one collective's duration on a communicator of
// size n with per-rank payload bytes: a binomial tree of rounds.
func (m CostModel) collectiveCost(call Call, bytes, n int) float64 {
	if n <= 1 {
		return m.Overhead
	}
	rounds := math.Ceil(math.Log2(float64(n)))
	per := m.Latency + m.transfer(bytes)
	switch call {
	case CallBarrier:
		return m.Overhead + rounds*m.Latency
	case CallAllreduce:
		return m.Overhead + 2*rounds*per
	default: // Bcast, Gather
		return m.Overhead + rounds*per
	}
}

// WithCostModel enables virtual-time accounting on every rank.
func WithCostModel(m CostModel) Option {
	return func(w *World) { w.cost = &m }
}

// WithEagerLimit switches messages larger than n bytes to a rendezvous
// protocol: the (blocking or nonblocking) send completes only after the
// matching receive has been posted, as real MPI implementations do above
// their eager threshold. The default (0) keeps everything eager, which the
// application skeletons rely on; the limit exists to study protocol
// effects and deadlock behaviour.
func WithEagerLimit(n int) Option {
	return func(w *World) { w.eagerLimit = n }
}

// VirtualTime returns the rank's modeled clock in seconds (0 when no cost
// model is installed).
func (c *Comm) VirtualTime() float64 { return c.rs.clock }

// transferOf is the modeled wire time of n bytes (0 without a model).
func (c *Comm) transferOf(n int) float64 {
	if cm := c.world.cost; cm != nil {
		return cm.transfer(n)
	}
	return 0
}

// advance moves the virtual clock by the per-call overhead plus extra.
func (c *Comm) advance(extra float64) {
	if cm := c.world.cost; cm != nil {
		c.rs.clock += cm.Overhead + extra
	}
}

// observeArrival merges a received message's arrival time into the clock.
func (c *Comm) observeArrival(at float64) {
	if at > c.rs.clock { // at is 0 without a cost model
		c.rs.clock = at
	}
}

// collAdvance charges one collective's modeled duration.
func (c *Comm) collAdvance(call Call, bytes int) {
	if cm := c.world.cost; cm != nil {
		c.rs.clock += cm.collectiveCost(call, bytes, len(c.group))
	}
}
