package netsim

import (
	"math"
	"sort"

	"github.com/hfast-sim/hfast/internal/par"
)

// Component-parallel event scheduling.
//
// The mesh's region-sharded water-fill (shard.go) parallelizes *within*
// one solve; everything else — heap pops, cascades, witness passes — was
// one serial timeline, the Amdahl wall of large replays. The scheduler
// removes it by partitioning the routed flows at build time into
// link-disjoint connected components and giving each its own timeline
// (compState): components never share a link, so their event streams are
// causally independent and can be advanced concurrently with bitwise the
// same results as any interleaving.
//
// The only coupling is a future admission that bridges two components —
// a flow whose path touches links of both. partition detects these while
// streaming the flows in (start, flow-index) arrival order through a
// link union-find, and records a merge node at the bridge flow's start
// time. At runtime, runScheduled advances every live component to the
// next merge time (exclusive) over par.For, splices the participating
// components' timelines at the barrier, and continues; the final epoch
// runs to +Inf.
// Merge times and membership are pure functions of the problem — never
// of GOMAXPROCS — which keeps the whole schedule, and with it every
// float, identical at any parallelism.

// schedNode is one node of the build-time component forest. A node is
// born when a flow founds a new component (leaf) or bridges ≥2
// components that both have older flows (merge). Flows that join or
// bridge components without a barrier — every involved component's birth
// is at or after the flow's start, so no timeline has events before the
// union — fold structurally: the absorbed nodes alias to the target and
// their flows land in its bucket.
type schedNode struct {
	birth    float64 // start time of the flow that created the node
	alias    int32   // structural-fold target; self while the node is a root
	comp     int32   // compState index, -1 until materialized
	flowOff  int32   // this node's flow bucket in engine.flowSlab (CSR)
	flowLen  int32
	cur      int32 // pass-2 fill cursor
	isMerge  bool
	children []int32 // merge node: roots whose comps splice at birth
}

// newNode appends a node, recycling slice backing from prior runs.
func (e *engine) newNode(birth float64) int32 {
	n := len(e.nodes)
	if n < cap(e.nodes) {
		e.nodes = e.nodes[:n+1]
	} else {
		e.nodes = append(e.nodes, schedNode{})
	}
	nd := &e.nodes[n]
	nd.birth = birth
	nd.alias = int32(n)
	nd.comp = -1
	nd.flowOff, nd.flowLen, nd.cur = 0, 0, 0
	nd.isMerge = false
	nd.children = nd.children[:0]
	return int32(n)
}

// resolveNode follows structural-fold aliases (with path compression) to
// the node currently standing for n.
func (e *engine) resolveNode(n int32) int32 {
	for e.nodes[n].alias != n {
		e.nodes[n].alias = e.nodes[e.nodes[n].alias].alias
		n = e.nodes[n].alias
	}
	return n
}

// lufFind is the link union-find lookup (path halving) over e.linkUF.
// Chains never span components, so concurrent component timelines can
// not touch the same chain — though at runtime nothing reads it anyway;
// it is a build-time structure.
func (e *engine) lufFind(x int32) int32 {
	for e.linkUF[x] != x {
		e.linkUF[x] = e.linkUF[e.linkUF[x]]
		x = e.linkUF[x]
	}
	return x
}

// newComp appends a compState, recycling per-component slice backing
// from prior runs.
func (e *engine) newComp() *compState {
	n := len(e.comps)
	if n < cap(e.comps) {
		e.comps = e.comps[:n+1]
	} else {
		e.comps = append(e.comps, compState{})
	}
	c := &e.comps[n]
	c.id = int32(n)
	c.nFlows = 0
	c.heap = c.heap[:0]
	c.order, c.next = nil, 0
	c.now = 0
	c.activeCount, c.maxEvents, c.stats = 0, 0, Stats{}
	c.epoch, c.chkEpoch = 0, 0
	c.queue, c.compFlows = c.queue[:0], c.compFlows[:0]
	c.seeds, c.moved, c.fillLinks = c.seeds[:0], c.moved[:0], c.fillLinks[:0]
	c.shardSkip, c.shardBackoff = 0, 0
	c.merged = false
	return c
}

// partition splits the routed nonzero flows into link-disjoint
// connected components and plans every runtime merge. One streaming pass
// in arrival order classifies each flow against the link union-find:
//
//   - no owned link on its path: the flow founds a new leaf node;
//   - links of exactly one node: a structural join;
//   - links of ≥2 nodes: the union's live members (birth strictly before
//     the flow's start — components whose timelines may already hold
//     events) become children of a merge node barriered at the flow's
//     start, while unborn members fold in structurally (an unborn merge
//     node hands over its children). With ≤1 live member there is
//     nothing to synchronize and the whole union is structural.
//
// A second pass buckets the flows CSR-style under their resolved nodes —
// each bucket inherits the (start, flow-index) arrival order — and
// materializes one compState per root non-merge node. Zero-byte flows
// finalize here (start+latency) exactly as the serial loop did, without
// joining any component.
func (e *engine) partition() {
	nLinks := len(e.links)
	e.arrival = e.arrival[:0]
	for i := range e.sims {
		sf := &e.sims[i]
		if sf.bytes == 0 {
			e.flows[i].done = true
			sf.finish = sf.start + sf.latency
			continue
		}
		e.arrival = append(e.arrival, int32(i))
	}
	arr := e.arrival
	sort.SliceStable(arr, func(a, b int) bool { return e.sims[arr[a]].start < e.sims[arr[b]].start })

	e.linkUF = grow(e.linkUF, nLinks)
	for i := range e.linkUF {
		e.linkUF[i] = -1
	}
	e.nodeOfRoot = grow(e.nodeOfRoot, nLinks)
	e.nodeOfFlow = grow(e.nodeOfFlow, len(e.sims))
	e.nodes = e.nodes[:0]
	e.mergeNodes = e.mergeNodes[:0]

	for _, fi := range arr {
		start := e.sims[fi].start
		path := e.path(&e.flows[fi])

		// Distinct nodes already owning links on this path, in path order.
		invol := e.invol[:0]
		for _, li := range path {
			if e.linkUF[li] < 0 {
				continue
			}
			n := e.resolveNode(e.nodeOfRoot[e.lufFind(li)])
			dup := false
			for _, m := range invol {
				if m == n {
					dup = true
					break
				}
			}
			if !dup {
				invol = append(invol, n)
			}
		}

		var target int32
		switch len(invol) {
		case 0:
			target = e.newNode(start)
		case 1:
			target = invol[0]
		default:
			// Live members barrier; unborn ones fold. An unborn merge
			// node (same-start bridge chain) contributes its children and
			// is absorbed — its own barrier record is dropped later.
			kids := e.kids[:0]
			reuse := int32(-1)
			for _, n := range invol {
				nd := &e.nodes[n]
				if nd.birth < start {
					kids = appendUniqueI32(kids, n)
				} else if nd.isMerge {
					if reuse < 0 {
						reuse = n
					}
					for _, ch := range nd.children {
						kids = appendUniqueI32(kids, ch)
					}
				}
			}
			if len(kids) >= 2 {
				sort.Slice(kids, func(a, b int) bool { return kids[a] < kids[b] })
				if reuse >= 0 {
					target = reuse
				} else {
					target = e.newNode(start)
					e.mergeNodes = append(e.mergeNodes, target)
				}
				nd := &e.nodes[target]
				nd.isMerge = true
				nd.children = append(nd.children[:0], kids...)
				for _, n := range invol {
					if n != target && e.nodes[n].birth >= start {
						e.nodes[n].alias = target
					}
				}
			} else {
				if len(kids) == 1 {
					target = kids[0]
				} else {
					target = invol[0]
				}
				for _, n := range invol {
					if n != target {
						e.nodes[n].alias = target
					}
				}
			}
			e.kids = kids
		}
		e.invol = invol

		// Union the path's links (and whatever trees they belonged to)
		// under one root owned by target.
		r0 := int32(-1)
		for _, li := range path {
			if e.linkUF[li] < 0 {
				e.linkUF[li] = li
			}
			r := e.lufFind(li)
			if r0 < 0 {
				r0 = r
			} else if r != r0 {
				e.linkUF[r] = r0
			}
		}
		if r0 >= 0 {
			e.nodeOfRoot[r0] = target
		}
		e.nodeOfFlow[fi] = target
	}

	// Pass 2: resolve every flow to its final node and bucket the
	// arrival list CSR-style; each bucket keeps arrival order.
	for i := range e.nodes {
		e.nodes[i].flowLen = 0
	}
	for _, fi := range arr {
		n := e.resolveNode(e.nodeOfFlow[fi])
		e.nodeOfFlow[fi] = n
		e.nodes[n].flowLen++
	}
	e.flowSlab = grow(e.flowSlab, len(arr))
	off := int32(0)
	for i := range e.nodes {
		e.nodes[i].flowOff = off
		off += e.nodes[i].flowLen
		e.nodes[i].cur = 0
	}
	for _, fi := range arr {
		nd := &e.nodes[e.nodeOfFlow[fi]]
		e.flowSlab[nd.flowOff+nd.cur] = fi
		nd.cur++
	}

	// Drop absorbed merge records; survivors sit in creation order, which
	// is (merge time, bridge flow-index) order with non-decreasing times.
	w := 0
	for _, m := range e.mergeNodes {
		if e.resolveNode(m) == m {
			e.mergeNodes[w] = m
			w++
		}
	}
	e.mergeNodes = e.mergeNodes[:w]

	// Materialize initial components; merge nodes wait for their barrier.
	e.comps = e.comps[:0]
	for i := range e.nodes {
		nd := &e.nodes[i]
		nd.comp = -1
		if nd.alias != int32(i) || nd.isMerge {
			continue
		}
		c := e.newComp()
		c.order = e.flowSlab[nd.flowOff : nd.flowOff+nd.flowLen : nd.flowOff+nd.flowLen]
		c.nFlows = int(nd.flowLen)
		c.maxEvents = maxEventCap(c.nFlows)
		nd.comp = c.id
	}
	// Every component may region-shard its own solves: the sharding
	// scratch is compState-owned (shard.go), so no gate on the component
	// count is needed here.
}

func appendUniqueI32(s []int32, v int32) []int32 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// peek is a component's next event time: its earliest pending arrival or
// projected completion, +Inf when it has neither. run steps by it.
func (e *engine) peek(c *compState) float64 {
	t := math.Inf(1)
	if c.next < len(c.order) {
		t = e.sims[c.order[c.next]].start
	}
	if len(c.heap) > 0 && c.heap[0].t < t {
		t = c.heap[0].t
	}
	return t
}

// runScheduled advances every component timeline to completion,
// epoch-by-epoch between merge barriers. Within an epoch the live
// components run concurrently over par.For (a lone one runs inline); at
// each barrier the due merges splice in deterministic (time, flow-index)
// order. Components own disjoint flow and link records, so the order they
// start in cannot move a result or a Stats counter, and error selection
// is by component id, so a failing replay reports the same diagnostic at
// any worker count.
func (e *engine) runScheduled() error {
	mi := 0
	for {
		horizon := math.Inf(1)
		if mi < len(e.mergeNodes) {
			horizon = e.nodes[e.mergeNodes[mi]].birth
		}
		e.live = e.live[:0]
		for i := range e.comps {
			if !e.comps[i].merged {
				e.live = append(e.live, int32(i))
			}
		}
		live := e.live
		if cap(e.runErrs) < len(live) {
			e.runErrs = make([]error, len(live))
		}
		errs := e.runErrs[:len(live)]
		par.For(len(live), func(i int) {
			errs[i] = e.run(&e.comps[live[i]], horizon)
		})
		// live is ascending in component id: the first error is the
		// lowest-id failure regardless of completion order.
		for _, er := range errs {
			if er != nil {
				return er
			}
		}
		if math.IsInf(horizon, 1) {
			return nil
		}
		for mi < len(e.mergeNodes) && e.nodes[e.mergeNodes[mi]].birth == horizon {
			e.mergeComps(e.mergeNodes[mi])
			mi++
		}
	}
}

// mergeComps materializes merge node m at its barrier. Every child
// component has run to exactly the merge time, so the splice is pure
// bookkeeping over the shared records: per-flow and per-link state is
// already in place, and only the timelines themselves combine — heaps
// concatenate and re-heapify (rewriting every flow's heapPos),
// unprocessed arrival tails and the merge node's own bucket interleave
// by (start, flow-index), counters add, and the clock and epoch counters
// take the max so no stale stamp or earlier time can ever be revisited.
// Heap entries carry global flow indices, so projections made before the
// merge stay valid after it.
func (e *engine) mergeComps(m int32) {
	c := e.newComp()
	ci := c.id
	nd := &e.nodes[m]
	nd.comp = ci

	// Interleave the children's unprocessed arrival tails with the merge
	// node's own flow bucket.
	srcs := make([][]int32, 0, len(nd.children)+1)
	for _, ch := range nd.children {
		cc := &e.comps[e.nodes[ch].comp]
		srcs = append(srcs, cc.order[cc.next:])
	}
	srcs = append(srcs, e.flowSlab[nd.flowOff:nd.flowOff+nd.flowLen])
	c.orderBuf = c.orderBuf[:0]
	for {
		best := -1
		var bf int32
		for s := range srcs {
			if len(srcs[s]) == 0 {
				continue
			}
			f := srcs[s][0]
			if best < 0 || e.flowBefore(f, bf) {
				best, bf = s, f
			}
		}
		if best < 0 {
			break
		}
		c.orderBuf = append(c.orderBuf, bf)
		srcs[best] = srcs[best][1:]
	}
	c.order, c.next = c.orderBuf, 0

	for _, ch := range nd.children {
		cc := &e.comps[e.nodes[ch].comp]
		cc.merged = true
		c.heap = append(c.heap, cc.heap...)
		c.nFlows += cc.nFlows
		c.stats.add(&cc.stats)
		c.activeCount += cc.activeCount
		if cc.now > c.now {
			c.now = cc.now
		}
		if cc.epoch > c.epoch {
			c.epoch = cc.epoch
		}
		if cc.chkEpoch > c.chkEpoch {
			c.chkEpoch = cc.chkEpoch
		}
	}
	c.nFlows += int(nd.flowLen)
	c.maxEvents = maxEventCap(c.nFlows)
	e.heapInit(c)
	c.stats.PeakHeap = max(c.stats.PeakHeap, len(c.heap))
}

// flowBefore is the global event order for equal-time arrivals:
// (start, flow-index).
func (e *engine) flowBefore(a, b int32) bool {
	sa, sb := e.sims[a].start, e.sims[b].start
	if sa != sb {
		return sa < sb
	}
	return a < b
}
