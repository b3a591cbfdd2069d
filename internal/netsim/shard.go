package netsim

import (
	"github.com/hfast-sim/hfast/internal/par"
)

// RegionHinter is implemented by routers (the fabric models) that can
// partition their links into topology-aware regions: fat-tree and tree
// subtrees, torus blocks, HFAST node blocks. LinkRegions returns one
// region id per link — dense small ids, roughly the requested target
// count — or -1 for links that belong to no region (boundary links
// shared across the cut).
//
// The hint drives the engine's sharded water-fill: a large affected set
// is split into connected components at region granularity (a flow whose
// path stays inside one region ties only that region; flows over
// boundary or cross-region links merge every region they touch), and the
// components — provably independent subsystems of the max-min solve —
// fill concurrently over par workers. The hint is purely a performance
// contract: component structure depends on the topology and the traffic,
// never on the worker count, so results are bit-identical at any
// GOMAXPROCS, and parity/fuzz tests drive the engine with randomized
// cuts to pin that the cut never changes results beyond float rounding.
//
// The engine only reads the slice it is given and drops its reference
// when the replay returns, so an implementation may hand every caller
// the same memoised table (the fabric models do); callers must not
// write it either.
type RegionHinter interface {
	LinkRegions(target int) []int32
}

// regionTarget picks how many regions to ask a fabric for: enough that
// clean cuts split the big admission-storm water-fills into useful
// independent pieces, few enough that a region still holds hundreds of
// links. A pure function of the link count — never of GOMAXPROCS — so
// the shard structure, and with it every float, is identical at any
// parallelism.
func regionTarget(nLinks int) int {
	t := nLinks / 512
	if t > 256 {
		t = 256
	}
	return t
}

// shardedSolveMin is the affected-set size below which the sharded
// water-fill is not worth its partitioning pass. The steady state of the
// event loop — cascades of a dozen flows — stays on the flat fill;
// admission storms and avalanche cascades go sharded. A variable so
// parity/fuzz tests can force tiny solves through the sharded path.
var shardedSolveMin = 1024

// maxShardRegions bounds the region id space a hinter may use; a hint
// that would need a larger union-find table than this is ignored.
const maxShardRegions = 4096

// initShards digests a RegionHinter's per-link regions into the static
// shard state: the region id per link and, per super-flow, the region
// whose links cover its whole path (-1 for boundary flows). Out-of-range
// ids disable sharding rather than corrupt it.
func (e *engine) initShards(regions []int32, nLinks int) {
	e.nShards = 0
	e.linkRegion = nil
	if len(regions) != nLinks {
		return
	}
	nr := int32(0)
	for _, r := range regions {
		if r >= nr {
			nr = r + 1
		}
	}
	if nr < 2 || nr > maxShardRegions {
		return
	}
	for i := range e.flows {
		shard := int32(-1)
		for k, l := range e.path(&e.flows[i]) {
			r := regions[l]
			if r < 0 {
				shard = -1
				break
			}
			if k == 0 {
				shard = r
			} else if r != shard {
				shard = -1
				break
			}
		}
		e.flowShard[i] = shard
	}
	e.nShards = int(nr)
	e.linkRegion = regions
}

// ufFind is the union-find lookup (path halving) over c.ufParent.
func (c *compState) ufFind(x int32) int32 {
	for c.ufParent[x] != x {
		c.ufParent[x] = c.ufParent[c.ufParent[x]]
		x = c.ufParent[x]
	}
	return x
}

func (c *compState) ufUnion(a, b int32) {
	ra, rb := c.ufFind(a), c.ufFind(b)
	if ra != rb {
		c.ufParent[rb] = ra
	}
}

// shardBackoffMax caps the collapse backoff: after repeated one-component
// partitions a qualifying solve still re-probes the sharded path at least
// every shardBackoffMax solves, so a traffic phase change that unchains
// the regions is picked up without a full replay.
const shardBackoffMax = 256

// solveSharded is the region-sharded water-fill for large affected sets.
// It prepares capacities exactly like solveAffected, then partitions the
// affected flows and solve-set links into connected components at region
// granularity: an interior flow ties its region, a boundary flow unions
// every region its path touches, and flows meeting on a regionless (-1)
// link union through that link. Components are disjoint in both links
// and flows, so the max-min fill over their union equals the fills over
// each component run independently — that is what makes running them in
// parallel exact, not approximate. Flows whose boundary couplings chain
// every region together collapse to one component and solve flat (arming
// the compState's collapse backoff so the next few qualifying solves
// skip the wasted partitioning); the recompute witness pass downstream
// reconciles shard results against the frozen background either way,
// re-triggering exactly the flows whose boundary slack the solve moved.
//
// Any component timeline may call this concurrently with the others: the
// union-find and bucket scratch live on the compState, and the per-link
// owner slabs are engine-shared only because components touch disjoint
// links. Owner marks are 0/1 flags cleared at the start of this solve —
// every link a live affected flow can touch is in c.queue — so the slabs
// carry no state between solves.
func (e *engine) solveSharded(c *compState) int {
	c.stats.ShardedSolves++
	live := e.prepSolve(c)
	for _, l := range c.queue {
		e.linkOwnerMark[l] = 0
	}

	// Union regions into components. Boundary flows get one union-find
	// element each, tacked after the region ids.
	nb := 0
	for _, fi := range c.compFlows {
		if !e.flows[fi].done && e.flowShard[fi] < 0 {
			nb++
		}
	}
	nElems := e.nShards + nb
	c.ufParent = grow(c.ufParent, nElems)
	c.rootComp = grow(c.rootComp, nElems)
	c.rootCompMark = grow(c.rootCompMark, nElems)
	for i := 0; i < nElems; i++ {
		c.ufParent[i] = int32(i)
		c.rootCompMark[i] = 0
	}
	be := int32(e.nShards)
	for _, fi := range c.compFlows {
		if e.flows[fi].done || e.flowShard[fi] >= 0 {
			continue
		}
		elem := be
		be++
		for _, l := range e.path(&e.flows[fi]) {
			if r := e.linkRegion[l]; r >= 0 {
				c.ufUnion(elem, r)
			} else if e.linkOwnerMark[l] == 1 {
				c.ufUnion(elem, e.linkOwner[l])
			} else {
				e.linkOwnerMark[l] = 1
				e.linkOwner[l] = elem
			}
		}
	}

	// Bucket flows and links by component root, dense ids in discovery
	// order so the grouping is deterministic. Buckets reuse their inner
	// backing arrays across solves: extending len within cap revives the
	// retained slice header at length zero instead of allocating, which
	// is what keeps a storm-scale cascade from re-growing thousands of
	// bucket slices every pass.
	nComp := int32(0)
	comp := func(root int32) int32 {
		if c.rootCompMark[root] == 0 {
			c.rootCompMark[root] = 1
			c.rootComp[root] = nComp
			nComp++
		}
		return c.rootComp[root]
	}
	c.compFlowsB = c.compFlowsB[:0]
	c.compLinksB = c.compLinksB[:0]
	bucket := func(lists [][]int32, ci int32, v int32) [][]int32 {
		for int32(len(lists)) <= ci {
			if len(lists) < cap(lists) {
				lists = lists[:len(lists)+1]
				lists[len(lists)-1] = lists[len(lists)-1][:0]
			} else {
				lists = append(lists, nil)
			}
		}
		lists[ci] = append(lists[ci], v)
		return lists
	}
	be = int32(e.nShards)
	for _, fi := range c.compFlows {
		if e.flows[fi].done {
			continue
		}
		elem := e.flowShard[fi]
		if elem < 0 {
			elem = be
			be++
		}
		c.compFlowsB = bucket(c.compFlowsB, comp(c.ufFind(elem)), fi)
	}
	if nComp < 2 {
		// Collapsed partition: the union-find and bucketing bought
		// nothing. Arm the backoff — doubling while collapses repeat —
		// so the next shardSkip qualifying solves go straight to the
		// flat fill.
		c.stats.ShardCollapses++
		c.shardBackoff *= 2
		if c.shardBackoff < 2 {
			c.shardBackoff = 2
		}
		if c.shardBackoff > shardBackoffMax {
			c.shardBackoff = shardBackoffMax
		}
		c.shardSkip = c.shardBackoff
		c.fillLinks = append(c.fillLinks[:0], c.queue...)
		e.fill(c, c.fillLinks, c.compFlows, live)
		return live
	}
	c.shardBackoff, c.shardSkip = 0, 0
	for _, l := range c.queue {
		if e.sol[l].w <= 0 {
			// No fillable flows: the link cannot shape any rate this
			// solve, so no component needs to scan it.
			continue
		}
		elem := e.linkRegion[l]
		if elem < 0 {
			elem = e.linkOwner[l] // stamped above: the link has live flows
		}
		c.compLinksB = bucket(c.compLinksB, comp(c.ufFind(elem)), l)
	}

	// Fill the shard components concurrently. Each component's slices
	// are its own; the solve scratch and flow records it writes are
	// disjoint across components, so the workers never share mutable
	// state.
	flowsB, linksB := c.compFlowsB, c.compLinksB
	for int32(len(linksB)) < nComp {
		if len(linksB) < cap(linksB) {
			linksB = linksB[:len(linksB)+1]
			linksB[len(linksB)-1] = linksB[len(linksB)-1][:0]
		} else {
			linksB = append(linksB, nil)
		}
	}
	par.ForChunks(int(nComp), 1, func(ci, _, _ int) {
		e.fill(c, linksB[ci], flowsB[ci], len(flowsB[ci]))
	})
	c.compLinksB = linksB
	return live
}
