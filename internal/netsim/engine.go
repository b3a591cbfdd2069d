package netsim

import (
	"fmt"
	"math"
	"sync"
)

// completionEpsilon is the sub-byte residue treated as "finished".
// Rounding noise from draining to a completion time quantized to the
// float ulp of the clock can leave r·ulp ≫ 1e-9 bytes behind at GB/s
// rates, so anything under a thousandth of a byte counts as done. Both
// engines share the constant so their retirement behavior matches.
const completionEpsilon = 1e-3

// simFlow is one routed input flow's cold data: what the build read off
// the input and the router, and the finish the run writes back.
// Everything the hot loops touch is the flow's flowRec.
type simFlow struct {
	start   float64
	bytes   float64
	latency float64
	finish  float64
}

// flowRec is a routed flow's hot state, one cache line. No loop scans the
// flows densely — each reaches a flow by a random index out of a link's
// ref segment or an affected-set list and then wants most of these
// fields — so they sit together: a visit costs one line, and flows of
// link-disjoint components never share one.
type flowRec struct {
	remaining float64 // bytes left, valid at lastT
	rate      float64 // current max-min share
	lastT     float64 // time remaining was last settled
	newRate   float64 // candidate rate of the solve in progress
	pathOff   int32   // the path is pathLinks[pathOff:][:pathLen]
	pathLen   int32
	heapPos   int32 // index of the flow's entry in its component's heap, or -1
	flowMark  int32 // in the affected set A this epoch
	fixedMark int32 // fixed during this epoch's solve
	chkMark   int32 // witness-checked this pass
	done      bool
}

// linkRec is a link's committed state, within one cache line for the
// same reason. Active flows live in refs[off:][:n], a CSR-style segment
// sized at build time to the link's static membership count, so
// admit/retire never reallocate. s, resid, maxRate and sat describe the
// committed allocation as of the link's last refresh; stale is set by
// whatever could make a new refresh read differently (a flow joining or
// leaving the segment, a member's rate moving), so a clean link's walk
// would recompute exactly what is stored and is skipped.
type linkRec struct {
	bw      float64
	s       float64 // consumed bandwidth: Σ rate over active flows
	resid   float64 // unconsumed bandwidth
	maxRate float64 // largest rate among active flows
	off, n  int32
	mark    int32 // in the solve set T this epoch
	pull    int32 // flows pulled into A this epoch
	sat     bool  // resid ≤ satSlack·bw, maintained with resid
	stale   bool
}

// solveRec is a link's water-filling scratch: the capacity and the count
// of unfixed flows left for the solve in progress, and their quotient.
// share is recomputed wherever cap or w is written, so the fill's scans
// compare a cached cap/w — of the very operands a division at that visit
// would read — instead of dividing twice per link per round.
type solveRec struct {
	cap, share float64
	w          int32
}

func shareOf(cap float64, w int32) float64 {
	if w <= 0 {
		return math.Inf(1)
	}
	return cap / float64(w)
}

// heapEntry is a flow's projected completion. A component heap holds
// exactly one entry per flow with a positive rate (flowRec.heapPos
// indexes it, so a rate change moves the entry in place and retirement
// removes it). Ordering is (time, flow index), a total order, so
// simultaneous completions resolve in flow order and repeated runs are
// byte-identical.
type heapEntry struct {
	t    float64
	flow int32
}

func heapLess(a, b heapEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.flow < b.flow
}

// linkRef is one active flow's membership in a link's ref segment; pos
// is the index of the flow's back-pointer in pathPos, so a swap-remove
// fixes up the moved entry in O(1) without loading its flow.
type linkRef struct{ flow, pos int32 }

// compState is one component timeline: the event heap, clock, arrival
// cursor, epoch counters, and recompute scratch of a single connected
// component of flows. Components partition both the flows and the links
// they touch (scheduler.go), so every compState reads and writes a
// disjoint set of the engine's shared flow and link records — which is
// what lets the scheduler advance component timelines concurrently with
// no copying and no locks, and what makes a runtime merge of two
// components a cheap bookkeeping splice (heaps concatenate, arrival
// tails interleave, counters add; every flow and link record is already
// where the merged timeline needs it).
type compState struct {
	id     int32
	nFlows int // flows assigned to this component, processed or not

	heap []heapEntry

	order    []int32 // pending arrivals in (start, flow-index) order
	next     int     // cursor into order
	orderBuf []int32 // owned backing for merged-component order lists

	now         float64
	activeCount int
	maxEvents   int

	// stats counts what this timeline did (stats.Events is also the
	// event-cap counter); a merged component starts from its children's
	// sums. Bumped once per event, pass or solve, on the component's own
	// goroutine, so every figure is a pure function of the problem.
	stats Stats

	// Epoch counters stamp the marks in the shared flow and link records.
	// build zeroes every mark and real epochs are strictly positive;
	// component disjointness keeps concurrent stamps from colliding, and
	// a merged component resumes from the max of its parents' counters.
	epoch    int32
	chkEpoch int32

	// Recompute scratch (solve-set links, affected flows, event seeds,
	// moved links, the flat fill's compactable link list).
	queue     []int32
	compFlows []int32
	seeds     []int32
	moved     []int32
	fillLinks []int32

	// Region-sharded solve scratch (shard.go). Per component so sharded
	// water-fills can run from inside concurrently advancing components:
	// the union-find over regions + boundary flows and the component
	// buckets are rebuilt every sharded solve, so they carry no state
	// between solves and only need to be private to the solving
	// component.
	ufParent     []int32   // union-find over regions + boundary flows
	rootComp     []int32   // union-find root → dense component id
	rootCompMark []int32   // root discovered this solve
	compFlowsB   [][]int32 // per-component flow buckets
	compLinksB   [][]int32 // per-component link buckets

	// shardSkip/shardBackoff throttle the sharded solve when the traffic
	// chains every region together: a solve whose partition collapses to
	// one component paid the union-find and bucketing for nothing, so
	// after a collapse the next shardSkip qualifying solves run flat,
	// with the backoff doubling up to shardBackoffMax while collapses
	// repeat. Counters advance only with this component's own solve
	// sequence — a pure function of the problem, never of the worker
	// count.
	shardSkip    int
	shardBackoff int

	merged bool // absorbed into a merge; no longer runnable
}

// engine is the incremental event-driven simulator state. Everything is
// arena-style: every slice (the heap backing arrays included) lives on
// the engine, is grown to high-water marks, and is reused across
// Simulate calls through enginePool, so a replay at a size the pool has
// seen before allocates only what the routers return.
//
// Between events the engine maintains, per link, the consumed bandwidth
// (s), the residual slack (resid) and the largest flow rate (maxRate) of
// the committed allocation. These are what make recompute local: an
// event re-solves only the flows on the links it touched, and the stored
// slack/max-rate of every other link certifies — via the max-min
// bottleneck property — that untouched flows keep their rates.
//
// Per-timeline state lives in compState: the scheduler (scheduler.go)
// partitions the flows into link-disjoint connected components, each
// advanced by its own compState over these shared records.
type engine struct {
	sims  []simFlow
	flows []flowRec // hot per-flow state, indexed like sims
	links []linkRec
	sol   []solveRec // per-link water-filling scratch

	// Paths, CSR over routed flows: flow f crosses pathLinks[f.pathOff:]
	// [:f.pathLen], and pathPos holds, at the same index, the position of
	// f's entry in that link's ref segment.
	pathLinks []int32
	pathPos   []int32
	refs      []linkRef

	oldRate   []float64 // rate at the moment the flow joined A
	flowShard []int32   // region whose links cover the whole path, or -1

	// Region sharding (shard.go). nShards > 1 turns on the sharded
	// water-fill for large affected sets: the affected set is split into
	// region-granular connected components that fill concurrently. Any
	// component timeline may shard its solves — the union-find and
	// bucket scratch live on the compState, and the per-link owner slabs
	// below are safe to share because components touch disjoint links
	// (each solve clears its own queue's owner marks after capacity
	// prep, so the slabs carry no state between solves).
	nShards       int
	linkRegion    []int32 // region id per link, or -1 (hinter-owned, read-only)
	linkOwner     []int32 // first boundary flow seen on a regionless link
	linkOwnerMark []int32 // owner stamped during the current solve

	// Component scheduling state (scheduler.go).
	comps      []compState
	nodes      []schedNode
	mergeNodes []int32 // merge-node ids in (time, flow-index) order
	nodeOfFlow []int32 // routed flow → owning scheduler node
	flowSlab   []int32 // per-node flow lists, CSR over nodes
	linkUF     []int32 // union-find parent per link, -1 while unowned
	nodeOfRoot []int32 // union-find root link → scheduler node
	arrival    []int32 // routed nonzero flows in (start, index) order
	live       []int32 // comps currently runnable (scratch)
	runErrs    []error // per-live-comp errors from a scheduler epoch
	invol      []int32 // partition scratch: nodes a flow's path touches
	kids       []int32 // partition scratch: live children of a union

	// Build scratch for SimulateInto, reused across calls.
	paths     [][]int
	lats      []float64
	routedOK  []bool
	simIdx    []int32 // input flow → routed flow (-1 when unroutable)
	linkBytes []float64
	routeBuf  []int // arena routed paths live in
}

// enginePool recycles engines — and with them every scratch slice and
// the heap backing array — across Simulate calls.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

// grow reslices s to n elements, reallocating only past its high-water
// capacity. Reused elements keep whatever an earlier run left in them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// path is flow f's link list.
func (e *engine) path(f *flowRec) []int32 {
	return e.pathLinks[f.pathOff : f.pathOff+f.pathLen]
}

// Simulate runs the progressive-filling model: at every arrival or
// completion event, active flows get max-min fair shares of their path
// bandwidth. The engine is incremental — see the package comment — and
// its results match simulateReference's whole-network recomputation to
// float-rounding noise. Link-disjoint components of the flow set advance
// concurrently, and on a large mesh (the one RegionHinter) the heavy
// water-fills run region-sharded over par workers; nothing else forks,
// and results are bit-identical at any GOMAXPROCS.
func Simulate(net *Network, router Router, flows []Flow) (Result, error) {
	var res Result
	if err := SimulateInto(&res, net, router, flows); err != nil {
		return Result{}, err
	}
	return res, nil
}

// SimulateInto is Simulate reusing the caller's Result: res.Flows is
// resliced in place when its capacity suffices, so replay loops
// (benchmarks, pipeline.ReplayHFAST's circuit and tree passes) can reuse
// one Result and stop paying one FlowResult slice per call. On error
// *res is untouched.
func SimulateInto(res *Result, net *Network, router Router, flows []Flow) error {
	var regions []int32
	if rh, ok := router.(RegionHinter); ok {
		if t := regionTarget(net.Links()); t > 1 {
			regions = rh.LinkRegions(t)
		}
	}
	return simulateRegions(res, net, router, flows, regions)
}

// simulateRegions is the full engine entry point: regions is the
// per-link region id slice (nil for unsharded; see RegionHinter for the
// contract). Tests drive it directly with explicit cuts. The replay runs
// component-scheduled: build routes and validates, partition splits the
// routed flows into link-disjoint connected components (scheduler.go),
// and runScheduled advances the component timelines — concurrently when
// there is more than one.
func simulateRegions(res *Result, net *Network, router Router, flows []Flow, regions []int32) error {
	e := enginePool.Get().(*engine)
	defer e.release()
	unroutable, maxLinkBytes, err := e.build(net, router, flows, regions)
	if err != nil {
		return err
	}
	if err := e.runScheduled(); err != nil {
		return err
	}

	res.Flows = grow(res.Flows, len(flows))
	res.Makespan, res.Unroutable, res.MaxLinkBytes, res.Stats = 0, unroutable, maxLinkBytes, e.stats()
	for i := range flows {
		si := e.simIdx[i]
		if si < 0 {
			res.Flows[i] = FlowResult{Finish: -1}
			continue
		}
		f := e.sims[si].finish
		res.Flows[i] = FlowResult{Finish: f, Routed: f >= 0}
		if f > res.Makespan {
			res.Makespan = f
		}
	}
	return nil
}

// stats folds the surviving timelines' counters (a merged component
// already carries its children's) into a finished replay's Stats. Every
// spliced merge added one component to the ones partition built.
func (e *engine) stats() Stats {
	st := Stats{Flows: len(e.sims), Components: len(e.comps) - len(e.mergeNodes), Merges: len(e.mergeNodes)}
	for i := range e.comps {
		if c := &e.comps[i]; !c.merged {
			st.add(&c.stats)
		}
	}
	return st
}

// build routes and validates the input flows, then sizes every engine
// array for the run. Everything here is serial, so error precedence and
// float accumulation order follow the flow list.
func (e *engine) build(net *Network, router Router, flows []Flow, regions []int32) (unroutable int, maxLinkBytes float64, err error) {
	nLinks := net.Links()
	nf := len(flows)
	e.paths = grow(e.paths, nf)
	e.lats = grow(e.lats, nf)
	e.routedOK = grow(e.routedOK, nf)
	e.simIdx = grow(e.simIdx, nf)
	// Route into one arena: the fabric appends each path to the engine's
	// slab instead of allocating one slice per call. Slab growth may
	// strand early paths on a retired backing array — they stay valid,
	// and the high-water slab makes repeat replays allocation-free.
	buf := e.routeBuf[:0]
	for i, f := range flows {
		base := len(buf)
		buf, e.lats[i], e.routedOK[i] = router.RouteAppend(buf, f.Src, f.Dst)
		e.paths[i] = buf[base:len(buf):len(buf)]
	}
	e.routeBuf = buf

	e.linkBytes = grow(e.linkBytes, nLinks)
	clear(e.linkBytes)
	// Routed flows are bounded by the input count and their paths by the
	// routed total: pre-size once so a cold storm-scale build pays one
	// allocation each instead of a doubling cascade (the P=65536 halo
	// grew e.sims through ~160 MB of retired backing arrays before this).
	routed := 0
	for i := range flows {
		if e.routedOK[i] {
			routed += len(e.paths[i])
		}
	}
	e.sims = grow(e.sims, nf)[:0]
	e.flows = grow(e.flows, nf)[:0]
	e.pathLinks = grow(e.pathLinks, routed)[:0]
	for i, f := range flows {
		if err := validateFlow(i, f, e.lats[i], e.routedOK[i]); err != nil {
			return 0, 0, err
		}
		if !e.routedOK[i] {
			e.simIdx[i] = -1
			unroutable++
			continue
		}
		path := e.paths[i]
		for _, l := range path {
			if l < 0 || l >= nLinks {
				return 0, 0, fmt.Errorf("netsim: flow %d routed over unknown link %d", i, l)
			}
			e.linkBytes[l] += float64(f.Bytes)
		}
		e.simIdx[i] = int32(len(e.sims))
		e.sims = append(e.sims, simFlow{start: f.Start, bytes: float64(f.Bytes), latency: e.lats[i], finish: -1})
		// The router's []int path is copied once into the int32 CSR. The
		// whole record is written, so a pooled engine's marks, heap index
		// and done flag never leak into this run.
		e.flows = append(e.flows, flowRec{
			remaining: float64(f.Bytes), heapPos: -1,
			pathOff: int32(len(e.pathLinks)), pathLen: int32(len(path)),
		})
		for _, l := range path {
			e.pathLinks = append(e.pathLinks, int32(l))
		}
	}
	for _, b := range e.linkBytes[:nLinks] {
		if b > maxLinkBytes {
			maxLinkBytes = b
		}
	}

	ns := len(e.sims)
	e.oldRate = grow(e.oldRate, ns)
	e.flowShard = grow(e.flowShard, ns)
	e.pathPos = grow(e.pathPos, len(e.pathLinks))
	e.refs = grow(e.refs, len(e.pathLinks))
	e.sol = grow(e.sol, nLinks)
	e.linkOwner = grow(e.linkOwner, nLinks)
	e.linkOwnerMark = grow(e.linkOwnerMark, nLinks)

	// Link records start as refreshLink would leave an empty link — so
	// "clean" is true of every link from t=0 — with marks zeroed. CSR link
	// membership: each link's segment capacity is its static flow count,
	// so the active sets never move after this.
	e.links = grow(e.links, nLinks)
	for l := range e.links {
		bw := net.links[l]
		e.links[l] = linkRec{bw: bw, resid: bw, sat: bw <= satSlack*bw}
	}
	for _, l := range e.pathLinks {
		e.links[l].n++
	}
	off := int32(0)
	for l := range e.links {
		lk := &e.links[l]
		lk.off = off
		off += lk.n
		lk.n = 0
	}

	e.initShards(regions, nLinks)
	e.partition()
	return unroutable, maxLinkBytes, nil
}

// release drops the references into router-owned memory (paths, the
// region table) so the pooled engine never pins a previous run's routes,
// then returns the engine to the pool.
func (e *engine) release() {
	clear(e.paths)
	e.linkRegion = nil
	enginePool.Put(e)
}

// maxEventCap bounds the event loop. Every flow contributes one arrival
// and one completion event; float rounding can split a simultaneous
// completion batch into a few ulp-separated events, so the cap is
// proportional at 3 events per flow plus slack for tiny inputs.
func maxEventCap(flows int) int { return 3*flows + 64 }

// run advances one component timeline, processing every event strictly
// before horizon. The clock, arrival cursor, and heap survive in the
// compState across calls, so the scheduler can run a component up to a
// merge barrier and resume the merged component afterwards; the final
// epoch runs with horizon = +Inf, which is where an event drought with
// live flows becomes a stall error.
func (e *engine) run(c *compState, horizon float64) error {
	due := func() bool {
		return c.next < len(c.order) && e.sims[c.order[c.next]].start <= c.now+1e-15
	}
	for {
		// The next event: the earliest pending arrival or projected
		// completion.
		tNext := e.peek(c)
		if tNext >= horizon {
			if math.IsInf(horizon, 1) && c.activeCount > 0 {
				return fmt.Errorf("netsim: component %d: %d flows stalled with zero rate after %d events (cap %d, t=%.6g, horizon=%g)",
					c.id, c.activeCount, c.stats.Events, c.maxEvents, c.now, horizon)
			}
			return nil
		}
		c.stats.Events++
		if c.stats.Events > c.maxEvents {
			return fmt.Errorf("netsim: component %d: no progress after %d events (cap %d for %d flows, t=%.6g, horizon=%g, %d active)",
				c.id, c.stats.Events, c.maxEvents, c.nFlows, c.now, horizon, c.activeCount)
		}
		c.now = tNext

		// Retire every flow whose projection lands on this event time —
		// the whole simultaneous batch, in flow-index order (retire takes
		// the flow's entry out of the heap).
		c.seeds = c.seeds[:0]
		for len(c.heap) > 0 && c.heap[0].t <= c.now {
			e.retire(c, c.heap[0].flow)
		}
		// Admit arrivals due now. A same-timestamp group landing on an
		// idle component — no surviving flows, nothing retired at this
		// instant — is an admission storm (t=0 of a synchronized replay
		// being the giant case): the whole group seeds one batched solve
		// with no frozen background, so the per-event witness machinery
		// is skipped entirely (recompute's batch prelude). Any other event
		// seeds the general recompute with every path link of every arrival.
		storm := c.activeCount == 0 && len(c.seeds) == 0 && due()
		lo := c.next
		for ; due(); c.next++ {
			fi := c.order[c.next]
			e.admit(c, fi)
			if !storm {
				c.seeds = append(c.seeds, e.path(&e.flows[fi])...)
			}
		}
		if storm {
			e.recompute(c, c.order[lo:c.next])
		} else if len(c.seeds) > 0 {
			e.recompute(c, nil)
		}
	}
}

// activeRefs is link l's active-flow segment.
func (e *engine) activeRefs(l int32) []linkRef {
	lk := &e.links[l]
	return e.refs[lk.off : lk.off+lk.n]
}

// retire finalizes a flow at the current time: any sub-epsilon residue
// is rounding noise from the projection, so remaining is forced to zero.
// The flow leaves the heap and every per-link segment immediately — it
// can never be drained or counted again — and its links seed the next
// recompute.
func (e *engine) retire(c *compState, fi int32) {
	f := &e.flows[fi]
	f.remaining = 0
	f.done = true
	e.sims[fi].finish = c.now + e.sims[fi].latency
	e.heapRemove(c, fi)
	c.activeCount--
	path := e.path(f)
	for k, l := range path {
		lk := &e.links[l]
		lk.n--
		p := e.pathPos[f.pathOff+int32(k)]
		moved := e.refs[lk.off+lk.n]
		e.refs[lk.off+p] = moved
		e.pathPos[moved.pos] = p
		lk.s -= f.rate
		lk.stale = true
	}
	c.seeds = append(c.seeds, path...)
	f.rate = 0
}

// admit activates an arriving flow on every link of its path. Seeding is
// the caller's: batched admission (seedBatch) derives its solve set from
// the whole batch at once.
func (e *engine) admit(c *compState, fi int32) {
	f := &e.flows[fi]
	f.rate = 0
	f.lastT = c.now
	c.activeCount++
	for k, l := range e.path(f) {
		lk := &e.links[l]
		pos := f.pathOff + int32(k)
		e.pathPos[pos] = lk.n
		e.refs[lk.off+lk.n] = linkRef{flow: fi, pos: pos}
		lk.n++
		lk.stale = true
	}
}

// satSlack is the residual under which a link counts as saturated, and
// rateBand the relative band within which two rates count equal, for the
// bottleneck-witness check. Both are far above float noise and far below
// any real rate difference the traffic models produce. The verdict is
// precomputed into linkRec.sat wherever resid is written (build,
// refreshLink): the witness machinery asks it per flow × path link.
const (
	satSlack = 1e-9
	rateBand = 1e-9
)

// pullLink adds l to the solve set and pulls every flow on it into the
// affected set A. Flows are only marked here; settleNew drains them to
// the current time afterwards (settling can retire flows, which mutates
// the very index segments being iterated, so the two steps stay
// separate).
func (e *engine) pullLink(c *compState, l int32) {
	ep := c.epoch
	lk := &e.links[l]
	if lk.pull == ep {
		return
	}
	lk.pull = ep
	if lk.mark != ep {
		lk.mark = ep
		c.queue = append(c.queue, l)
	}
	for _, ref := range e.refs[lk.off : lk.off+lk.n] {
		if f := &e.flows[ref.flow]; f.flowMark != ep {
			f.flowMark = ep
			c.compFlows = append(c.compFlows, ref.flow)
		}
	}
}

// settleNew drains every not-yet-settled flow in A to the current time,
// retiring those whose residue fell under the completion epsilon
// (retirement seeds the freed links) and adding survivors' path links to
// the solve set. Returns the new settled watermark.
func (e *engine) settleNew(c *compState, settled int) int {
	ep := c.epoch
	for ; settled < len(c.compFlows); settled++ {
		fi := c.compFlows[settled]
		f := &e.flows[fi]
		if f.done {
			continue
		}
		if f.rate > 0 && c.now > f.lastT {
			f.remaining -= f.rate * (c.now - f.lastT)
		}
		f.lastT = c.now
		e.oldRate[fi] = f.rate
		if f.remaining < completionEpsilon {
			e.retire(c, fi)
			continue
		}
		for _, l := range e.path(f) {
			if lk := &e.links[l]; lk.mark != ep {
				lk.mark = ep
				c.queue = append(c.queue, l)
			}
		}
	}
	return settled
}

// solve water-fills the affected flows over the solve-set links. Small
// affected sets — the steady state of the event loop — run the flat
// serial fill; large ones (the t=0 admission storm, cascade avalanches)
// run region-sharded over par workers when the fabric provided a
// partition (shard.go). Any component may shard — its union-find and
// bucket scratch are compState-owned — but a solve whose partition
// keeps collapsing to one component (traffic chaining every region
// together) backs off to the flat fill for shardSkip solves, since the
// collapsed prep is pure overhead. The skip counter decrements once per
// qualifying solve, a pure function of the component's own solve
// sequence, so the flat/sharded choice never depends on worker count.
//
// solve returns the number of live (not-yet-done) flows in the affected
// set: when it equals the component's active count, the solve had no
// frozen background and its result is the component-global max-min —
// recompute uses that to skip the witness machinery outright.
func (e *engine) solve(c *compState) int {
	if e.nShards > 1 && len(c.compFlows) >= shardedSolveMin {
		if c.shardSkip > 0 {
			c.shardSkip--
		} else {
			return e.solveSharded(c)
		}
	}
	return e.solveAffected(c)
}

// prepSolve sets up the solve scratch of every solve-set link: every
// frozen flow is fixed background consumption, so a link's capacity for
// the solve is its bandwidth minus the committed consumption of flows
// outside A, and its count the live affected flows crossing it. Returns
// the live affected-flow count.
func (e *engine) prepSolve(c *compState) int {
	for _, l := range c.queue {
		e.sol[l] = solveRec{cap: e.links[l].bw - e.links[l].s}
	}
	live := 0
	for _, fi := range c.compFlows {
		f := &e.flows[fi]
		if f.done {
			continue
		}
		live++
		f.fixedMark = 0
		for _, l := range e.path(f) {
			e.sol[l].cap += f.rate
			e.sol[l].w++
		}
	}
	for _, l := range c.queue {
		sr := &e.sol[l]
		if sr.cap < 0 {
			sr.cap = 0
		}
		sr.share = shareOf(sr.cap, sr.w)
	}
	c.stats.SolvePasses++
	c.stats.AffectedFlows += live
	c.stats.SolveLinks += len(c.queue)
	return live
}

// solveAffected is the flat water-fill. The fix step is link-driven —
// every affected flow crossing a within-epsilon bottleneck link is fixed
// at the bottleneck share by walking those links' segments — so a solve
// costs O(|A|·pathlen + |T|·rounds), independent of network size.
// Returns the live affected-flow count.
func (e *engine) solveAffected(c *compState) int {
	live := e.prepSolve(c)
	c.fillLinks = append(c.fillLinks[:0], c.queue...)
	e.fill(c, c.fillLinks, c.compFlows, live)
	return live
}

// minShare is the smallest cached share over links; a link with no
// unfixed flow holds +Inf.
func (e *engine) minShare(links []int32) float64 {
	m := math.Inf(1)
	for _, l := range links {
		if s := e.sol[l].share; s < m {
			m = s
		}
	}
	return m
}

// fill runs bottleneck water-fill rounds over the given link list,
// fixing every affected, unfixed flow it reaches. flows is the candidate
// list the numerical-corner fallbacks iterate; live is the number of
// fixable flows in it. fill owns links: links that lost their last
// fixable flow are compacted out between rounds (order-preserving, so
// fix order — and with it every float — matches the uncompacted scan),
// which turns the admission-storm fill from O(|T|·rounds) into a scan
// over a shrinking frontier. Neither scan divides: fixing a flow
// refreshes the share of each link it crosses, the only place cap and w
// change.
func (e *engine) fill(c *compState, links, flows []int32, live int) {
	ep := c.epoch
	// stragglers settles the numerical corners: whatever is still unfixed
	// takes rate r.
	stragglers := func(r float64) {
		for _, fi := range flows {
			if f := &e.flows[fi]; !f.done && f.fixedMark != ep {
				f.newRate = r
			}
		}
	}
	nl := len(links)
	for live > 0 {
		bottle := e.minShare(links[:nl])
		if math.IsInf(bottle, 1) {
			// No capacity left anywhere; flows not yet fixed stall at zero
			// rate (matching the reference, whose unfixed flows get no
			// rate entry).
			stragglers(0)
			return
		}
		band := bottle * (1 + 1e-12)
		progressed := false
		w := 0
		for _, l := range links[:nl] {
			if e.sol[l].w <= 0 {
				continue
			}
			links[w] = l
			w++
			if e.sol[l].share > band {
				continue
			}
			for _, ref := range e.activeRefs(l) {
				f := &e.flows[ref.flow]
				if f.flowMark != ep || f.fixedMark == ep || f.done {
					continue
				}
				f.fixedMark = ep
				f.newRate = bottle
				live--
				progressed = true
				for _, l2 := range e.path(f) {
					sr := &e.sol[l2]
					sr.cap -= bottle
					if sr.cap < 0 {
						sr.cap = 0
					}
					sr.w--
					sr.share = shareOf(sr.cap, sr.w)
				}
			}
		}
		nl = w
		if !progressed {
			// Unreachable in theory (the bottleneck link always has an
			// unfixed flow); guard against float corners by fixing the
			// stragglers at the bottleneck share, as the reference does.
			stragglers(bottle)
			return
		}
	}
}

// commit adopts the solve's candidate rates. Only a rate that actually
// moves is written, and it marks the flow's path links stale: every
// other link the flow crosses would refresh to what it already holds.
func (e *engine) commit(c *compState) {
	for _, fi := range c.compFlows {
		f := &e.flows[fi]
		if f.done || f.newRate == f.rate {
			continue
		}
		f.rate = f.newRate
		for _, l := range e.path(f) {
			e.links[l].stale = true
		}
	}
}

// refreshQueue recomputes consumed/slack/max-rate for every solve-set
// link from its active segment and records in c.moved the links that
// actually moved, in queue order, for the witness scan. A caller whose
// solve had no frozen background runs no scan and ignores the list.
func (e *engine) refreshQueue(c *compState) {
	c.moved = c.moved[:0]
	for _, l := range c.queue {
		if e.refreshLink(l) {
			c.moved = append(c.moved, l)
		}
	}
}

// refreshLink recommits link l's consumed/slack/max-rate state and
// reports whether the slack or top rate changed. A clean link is left
// alone: its refs, their order, and their rates are those of its last
// refresh, so the walk would store the same values and report no change.
func (e *engine) refreshLink(l int32) bool {
	lk := &e.links[l]
	if !lk.stale {
		return false
	}
	lk.stale = false
	s, maxR := 0.0, 0.0
	for _, ref := range e.refs[lk.off : lk.off+lk.n] {
		f := &e.flows[ref.flow]
		s += f.rate
		if f.rate > maxR {
			maxR = f.rate
		}
	}
	resid := lk.bw - s
	if resid < 0 {
		resid = 0
	}
	changed := resid != lk.resid || maxR != lk.maxRate
	lk.s, lk.resid, lk.maxRate, lk.sat = s, resid, maxR, resid <= satSlack*lk.bw
	return changed
}

// flowHasWitness reports whether flow f holds a max-min bottleneck
// certificate: a saturated path link on which its rate is maximal. The
// check reads only committed link state (sat, max-rate) and flow rates.
func (e *engine) flowHasWitness(f *flowRec) bool {
	r := f.rate * (1 + rateBand)
	for _, l := range e.path(f) {
		if lk := &e.links[l]; lk.sat && lk.maxRate <= r {
			return true
		}
	}
	return false
}

// witnessExpand runs the bottleneck-witness scan over the moved links:
// every flow on a moved link (frozen flows included — their certificate
// may have lived here) is checked for a witness, and a flow without one
// pulls its saturated path links' flows into the affected set. Returns
// whether the affected set grew.
func (e *engine) witnessExpand(c *compState) bool {
	c.chkEpoch++
	ep := c.epoch
	expanded := false
	for _, l := range c.moved {
		for _, ref := range e.activeRefs(l) {
			f := &e.flows[ref.flow]
			if f.chkMark == c.chkEpoch {
				continue
			}
			f.chkMark = c.chkEpoch
			if f.done || f.rate <= 0 || e.flowHasWitness(f) {
				continue
			}
			// No bottleneck witness: the flow deserves more, and the
			// higher-rate flows on its saturated links are what block it —
			// pull those links' flows into A and re-solve.
			for _, pl := range e.path(f) {
				if e.links[pl].sat {
					e.pullLink(c, pl)
				}
			}
			if f.flowMark != ep {
				f.flowMark = ep
				c.compFlows = append(c.compFlows, ref.flow)
			}
			expanded = true
		}
	}
	return expanded
}

// seedBatch is recompute's prelude for batched admission: the whole
// same-timestamp arrival group just admitted onto an idle component.
// With no surviving flows the affected set is exactly the batch and the
// frozen background is empty, so it is built directly — no per-flow seed
// lists, no settle loop — and recompute's first water-fill is the
// component-global max-min allocation. This is what turns the t=0 storm
// of a synchronized replay from tens of per-admission cascades into a
// single solve.
func (e *engine) seedBatch(c *compState, batch []int32) {
	ep := c.epoch
	for _, fi := range batch {
		f := &e.flows[fi]
		f.lastT = c.now
		e.oldRate[fi] = 0
		if f.remaining < completionEpsilon {
			// Zero-byte flow: finishes the instant it starts, exactly as
			// settleNew would retire it on the general path. The links it
			// seeds are all in the solve set below already.
			e.retire(c, fi)
		}
		f.flowMark = ep
		c.compFlows = append(c.compFlows, fi)
		for _, l := range e.path(f) {
			if lk := &e.links[l]; lk.mark != ep {
				lk.mark = ep
				c.queue = append(c.queue, l)
			}
		}
	}
}

// recompute re-solves max-min rates after an event, touching only the
// flows the event can affect. The affected set A starts as the flows on
// the seeded (freed or newly loaded) links — or, for an admission storm,
// as the batch itself (seedBatch); after water-filling A against the
// frozen background, every flow on a link whose slack or top rate moved
// is checked for the max-min bottleneck property — a saturated path link
// on which the flow's rate is maximal. A flow without such a witness is
// not max-min optimal, so the saturated links blocking it are pulled into
// A and the solve repeats. Untouched links certify their flows' rates by
// their stored slack/max-rate, which is what lets the engine skip them
// entirely.
func (e *engine) recompute(c *compState, batch []int32) {
	c.epoch++
	c.queue = c.queue[:0]
	c.compFlows = c.compFlows[:0]

	settled := 0
	pullSeeds := func() {
		for si := 0; si < len(c.seeds); si++ {
			e.pullLink(c, c.seeds[si])
			// Settling can retire flows, which appends to c.seeds.
			settled = e.settleNew(c, settled)
		}
	}
	if len(batch) > 0 {
		c.stats.StormBatches++
		e.seedBatch(c, batch)
	} else {
		c.stats.Recomputes++
		pullSeeds()
	}

	for pass := 0; ; pass++ {
		live := e.solve(c)

		// Commit candidate rates, then refresh consumed/slack/max-rate
		// on every solve-set link — witness checks must never read a
		// stale slack/max-rate for a link whose refresh is still pending
		// in the same pass — remembering which links actually moved.
		e.commit(c)
		e.refreshQueue(c)
		if live == c.activeCount {
			// The affected set engulfed every active flow in the
			// component — always so for a batch: the solve ran with no
			// frozen background, so it is the component-global max-min and
			// the witness scan can prove nothing — any link it could pull
			// is already in the solve set, any flow already in A.
			break
		}
		c.stats.MovedLinks += len(c.moved)
		if !e.witnessExpand(c) {
			break
		}
		c.stats.WitnessExpansions++
		settled = e.settleNew(c, settled)
		pullSeeds()
		if pass > 64 {
			// Pathological float corner: fall back to re-solving every
			// active flow in this component, which is always a valid
			// affected set. (Scoped by the component's own admitted
			// flows, never the whole link table: other components'
			// timelines may be advancing concurrently.)
			for _, fi := range c.order[:c.next] {
				if f := &e.flows[fi]; !f.done {
					for _, l := range e.path(f) {
						e.pullLink(c, l)
					}
				}
			}
			settled = e.settleNew(c, settled)
			e.solveAffected(c)
			e.commit(c)
			e.refreshQueue(c)
			break
		}
	}
	e.project(c)
}

// project re-files the completion of every affected flow whose rate
// actually changed; everyone else's heap entry is still the correct
// completion time. A flow whose rate fell to zero has no completion to
// project and leaves the heap.
func (e *engine) project(c *compState) {
	for _, fi := range c.compFlows {
		f := &e.flows[fi]
		if f.done || f.rate == e.oldRate[fi] {
			continue
		}
		if f.rate > 0 {
			e.heapSet(c, fi, c.now+f.remaining/f.rate)
		} else {
			e.heapRemove(c, fi)
		}
	}
	c.stats.PeakHeap = max(c.stats.PeakHeap, len(c.heap))
}

// heapSet files flow fi's projected completion at t: its entry moves in
// place if it has one, and is added otherwise.
func (e *engine) heapSet(c *compState, fi int32, t float64) {
	i := int(e.flows[fi].heapPos)
	if i < 0 {
		i = len(c.heap)
		c.heap = append(c.heap, heapEntry{flow: fi})
	}
	c.heap[i].t = t
	e.siftDown(c, e.siftUp(c, i))
}

// heapRemove takes flow fi's entry, if any, out of the heap.
func (e *engine) heapRemove(c *compState, fi int32) {
	i := int(e.flows[fi].heapPos)
	if i < 0 {
		return
	}
	e.flows[fi].heapPos = -1
	n := len(c.heap) - 1
	last := c.heap[n]
	c.heap = c.heap[:n]
	if i < n {
		c.heap[i] = last
		e.siftDown(c, e.siftUp(c, i))
	}
}

// siftUp and siftDown restore heap order around slot i, keeping every
// entry they move — and the one they place — indexed by its flow's
// heapPos. siftUp returns the slot the entry came to rest in.
func (e *engine) siftUp(c *compState, i int) int {
	h := c.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(x, h[p]) {
			break
		}
		h[i] = h[p]
		e.flows[h[i].flow].heapPos = int32(i)
		i = p
	}
	h[i] = x
	e.flows[x.flow].heapPos = int32(i)
	return i
}

func (e *engine) siftDown(c *compState, i int) {
	h := c.heap
	x := h[i]
	for {
		s := 2*i + 1
		if s >= len(h) {
			break
		}
		if s+1 < len(h) && heapLess(h[s+1], h[s]) {
			s++
		}
		if !heapLess(h[s], x) {
			break
		}
		h[i] = h[s]
		e.flows[h[i].flow].heapPos = int32(i)
		i = s
	}
	h[i] = x
	e.flows[x.flow].heapPos = int32(i)
}

// heapInit heapifies c.heap in place and rewrites every heapPos — used
// after a merge concatenates the parents' heaps.
func (e *engine) heapInit(c *compState) {
	for i, h := range c.heap {
		e.flows[h.flow].heapPos = int32(i)
	}
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(c, i)
	}
}
