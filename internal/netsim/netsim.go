// Package netsim is a flow-level interconnect simulator used to compare
// application traffic on a provisioned HFAST fabric against the fat-tree
// and mesh/torus baselines. Flows share link bandwidth max-min fairly;
// rates are recomputed at every flow arrival and completion (progressive
// filling), which captures the first-order contention effects that
// distinguish the fabrics: dedicated circuits never contend, mesh links
// congest under non-isomorphic traffic, and fat-trees pay per-hop switch
// latency through their layers.
//
// Simulate is an incremental event-driven engine (engine.go): every
// input flow is simulated as given, projected completions sit in an
// indexed min-heap holding exactly one entry per draining flow, and each
// event re-solves max-min rates only over the flows and links it can
// affect. All engine state is arena-style (one cache-line record per
// flow and per link, CSR slabs for paths and per-link active sets, a
// pooled engine recycled across calls — SimulateInto additionally reuses
// the caller's Result).
//
// The event loop forks in one place: the flows partition into
// link-disjoint connected components, each with its own timeline, and
// the scheduler (scheduler.go) advances live timelines concurrently over
// par.For between merge barriers. Within a timeline every event is handled
// serially — seed, water-fill, commit, refresh, witness scan — except
// that a large water-fill may run region-sharded: the mesh hints a
// per-link partition into torus blocks (RegionHinter, shard.go), the
// affected set splits into region-granular connected components, and
// those independent fills run over par workers. Routing, at build time,
// is one serial pass into the engine's arena. Every partition is a pure
// function of the problem, so results are identical at any GOMAXPROCS.
// The original whole-network solver is retained as simulateReference
// (reference.go) and pins the engine's output in parity and fuzz tests,
// including under randomized region cuts.
package netsim

import (
	"errors"
	"fmt"
	"math"
)

// Network is a set of links, each known by its id and holding only its
// capacity in bytes per second; paths are provided per flow by a Router.
type Network struct {
	links []float64
}

// NewNetwork creates an empty network.
func NewNetwork() *Network { return &Network{} }

// AddLink registers a link of the given bandwidth and returns its id.
// The panic is a construction-time assertion: bandwidths come from the
// fabric models' own parameters, never from simulated input, and a zero,
// negative, NaN or infinite one would only surface later as flows stalled
// at zero rate.
func (n *Network) AddLink(bandwidth float64) int {
	if !(bandwidth > 0) || math.IsInf(bandwidth, 1) {
		panic(fmt.Sprintf("netsim: link %d needs positive finite bandwidth, got %g", len(n.links), bandwidth))
	}
	n.links = append(n.links, bandwidth)
	return len(n.links) - 1
}

// Links returns the number of links.
func (n *Network) Links() int { return len(n.links) }

// Router maps a flow's endpoints to the link path it occupies and the
// fixed propagation/switching latency of that path. RouteAppend appends
// the (src, dst) path to buf and returns the extended slice, so the
// engine routes a whole replay into a pooled arena instead of paying one
// path slice per flow. ok=false means the pair is unreachable on this
// fabric, and the returned slice must then be buf at its original length.
type Router interface {
	RouteAppend(buf []int, src, dst int) (extended []int, latency float64, ok bool)
}

// Flow is one message transfer.
type Flow struct {
	// Src and Dst are node ids.
	Src, Dst int
	// Bytes is the transfer size.
	Bytes int64
	// Start is the injection time in seconds.
	Start float64
}

// ErrInvalidFlow is wrapped by the error Simulate returns, before any
// event runs, for a flow the engine cannot represent: a negative size, a
// start time that is negative, NaN or infinite, or a routed path whose
// latency is.
var ErrInvalidFlow = errors.New("netsim: invalid flow")

// validateFlow is the input check shared by the engine and the reference
// solver. Latency is the router's answer for the flow and only counts
// when it routed.
func validateFlow(i int, f Flow, latency float64, routed bool) error {
	// NaN fails the first comparison.
	valid := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
	switch {
	case f.Bytes < 0:
		return fmt.Errorf("%w %d: Bytes is negative (%d)", ErrInvalidFlow, i, f.Bytes)
	case !valid(f.Start):
		return fmt.Errorf("%w %d: Start must be finite and >= 0, got %g", ErrInvalidFlow, i, f.Start)
	case routed && !valid(latency):
		return fmt.Errorf("%w %d: route latency must be finite and >= 0, got %g", ErrInvalidFlow, i, latency)
	}
	return nil
}

// FlowResult reports one flow's outcome.
type FlowResult struct {
	// Finish is the completion time in seconds (Start + latency +
	// bandwidth-shared transfer time). Unroutable flows have Finish < 0.
	Finish float64
	// Routed reports whether the fabric carried the flow.
	Routed bool
}

// Result summarizes a simulation.
type Result struct {
	Flows []FlowResult
	// Makespan is the latest completion time of a routed flow.
	Makespan float64
	// Unroutable counts flows the fabric could not carry.
	Unroutable int
	// MaxLinkBytes is the most traffic any single link carried.
	MaxLinkBytes float64
	// Stats reports what the engine did to get there; every SimulateInto
	// overwrites it.
	Stats Stats
}

// Stats counts the work of one replay. Every field is a pure function of
// the problem (network, routes, flows, region hint) — never of
// GOMAXPROCS or scheduling — so two runs of one input report the same
// Stats, and a slow replay can be read off them: events × solve passes ×
// affected-set sizes is the time.
type Stats struct {
	Flows      int // routed flows simulated
	Components int // link-disjoint component timelines at build time
	Merges     int // runtime merge barriers spliced

	Events       int // arrival/completion instants processed
	Recomputes   int // events re-solved through the seeded cascade
	StormBatches int // same-timestamp groups batch-admitted onto an idle component

	SolvePasses    int // water-fills run (storms, cascade passes, fallbacks)
	ShardedSolves  int // of which attempted region-sharded
	ShardCollapses int // of which whose partition fell back to one component
	AffectedFlows  int // live affected flows, summed over solve passes
	SolveLinks     int // solve-set links, summed over solve passes

	MovedLinks        int // links whose slack or top rate a cascade pass moved
	WitnessExpansions int // cascade passes that grew the affected set
	PeakHeap          int // most completions pending in any one component
}

// add folds a component's counters into s: sums, and the maximum for
// PeakHeap. The build-time fields are not per-component and stay.
func (s *Stats) add(o *Stats) {
	s.Events += o.Events
	s.Recomputes += o.Recomputes
	s.StormBatches += o.StormBatches
	s.SolvePasses += o.SolvePasses
	s.ShardedSolves += o.ShardedSolves
	s.ShardCollapses += o.ShardCollapses
	s.AffectedFlows += o.AffectedFlows
	s.SolveLinks += o.SolveLinks
	s.MovedLinks += o.MovedLinks
	s.WitnessExpansions += o.WitnessExpansions
	s.PeakHeap = max(s.PeakHeap, o.PeakHeap)
}
