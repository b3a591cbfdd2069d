package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/cluster"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/server"
)

// generations serves every cycle from a server.Server of its own, so
// nothing one cycle cached is there for the next: requests name their
// cycle in the X-Bench-Cycle header. Clients never wait at a cycle
// boundary; a cycle's server is retired, and its counters kept, once
// the cycle after next has begun.
type generations struct {
	mu     sync.Mutex
	live   map[int]*generation
	mk     func() (*server.Server, error)
	retire func(*server.Server)
}

type generation struct {
	srv *server.Server
	h   http.Handler
}

func newGenerations(mk func() (*server.Server, error), retire func(*server.Server)) *generations {
	return &generations{live: map[int]*generation{}, mk: mk, retire: retire}
}

func (g *generations) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.Header.Get(cycleHeader))
	if err != nil {
		http.Error(w, "bench: request names no cycle", http.StatusBadRequest)
		return
	}
	g.mu.Lock()
	cur := g.live[n]
	if cur == nil {
		srv, err := g.mk()
		if err != nil {
			g.mu.Unlock()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		cur = &generation{srv, srv.Handler()}
		g.live[n] = cur
		// With C closed-loop clients drawing tasks in order, every task of
		// cycle n-2 was drawn before any of cycle n-1 and is long done. If
		// one were not, its next request would land on a fresh server and
		// fail loudly.
		if old := g.live[n-2]; old != nil {
			delete(g.live, n-2)
			g.retire(old.srv)
		}
	}
	g.mu.Unlock()
	cur.h.ServeHTTP(w, r)
}

// flush retires every live generation.
func (g *generations) flush() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for n, gen := range g.live {
		delete(g.live, n)
		g.retire(gen.srv)
	}
}

// deltaStream is one profiled run cut into its wire deltas.
type deltaStream struct {
	app    string
	procs  int
	prefix string
	deltas []*ipm.Delta
	bodies [][]byte
	// wantAssign is the canonical assignment artifact the batch pipeline
	// derives from the whole profile; the streamed session must serve the
	// same bytes.
	wantAssign []byte
}

// streamSet is the five delta streams of the stream workloads: cactus,
// gtc and amr at P=64, cactus and amr at P=256. amr crosses phase
// boundaries; the paper codes do not. Streams of one size are folded
// under distinct region prefixes — all of which select the same step
// windows — so that no two share the empty state at the root of their
// fold chains and the stage's hit ratio reads exactly 0 or 1.
func streamSet(o options) ([]*deltaStream, error) {
	set := []*deltaStream{
		{app: "cactus", procs: 64, prefix: "step"},
		{app: "gtc", procs: 64, prefix: "ste"},
		{app: "amr", procs: 64, prefix: "st"},
		{app: "cactus", procs: 256, prefix: "step"},
		{app: "amr", procs: 256, prefix: "ste"},
	}
	if o.smoke {
		set = []*deltaStream{{app: "cactus", procs: 16, prefix: "step"}, {app: "amr", procs: 16, prefix: "ste"}}
	}
	ctx := context.Background()
	for _, st := range set {
		prof, err := apps.ProfileRun(st.app, apps.Config{Procs: st.procs, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		if st.deltas, err = ipm.SplitDeltas(prof); err != nil {
			return nil, err
		}
		for _, d := range st.deltas {
			var buf bytes.Buffer
			if err := d.WriteJSON(&buf); err != nil {
				return nil, err
			}
			st.bodies = append(st.bodies, buf.Bytes())
		}
		ref, err := pipeline.Supplied(prof)
		if err != nil {
			return nil, err
		}
		a, _, err := pipeline.New(pipeline.Options{}).Assignment(ctx, ref, pipeline.Steady(), 0, 0)
		if err != nil {
			return nil, err
		}
		if st.wantAssign, err = pipeline.EncodeArtifact(pipeline.StageAssign, a); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// session is the task of streaming one run: each delta is one timed op;
// the last closes the session, whose assignment artifact is then checked
// against the batch pipeline's and the session deleted.
func (st *deltaStream) session(base, id string, cycle int) task {
	return func(c *client) {
		url := base + "/v1/stream/" + id + "?prefix=" + st.prefix
		for k, body := range st.bodies {
			u := url
			if k == len(st.bodies)-1 {
				u += "&close=1"
			}
			start := time.Now()
			code, data, err := c.do(http.MethodPost, u, cycle, body)
			var got server.StreamResponse
			switch {
			case err != nil:
			case code != http.StatusOK:
				err = fmt.Errorf("delta %d of %s: status %d: %.200s", k, id, code, data)
			default:
				if err = json.Unmarshal(data, &got); err == nil && (got.DeltasFolded != 1 || got.TotalDeltas != k+1) {
					err = fmt.Errorf("delta %d of %s: folded %d, total %d", k, id, got.DeltasFolded, got.TotalDeltas)
				}
			}
			c.op("stream.delta", start, err)
			if err != nil {
				return
			}
		}
		c.verify("stream.assignment", c.expect(http.MethodGet, base+"/v1/stream/"+id+"?artifact=assignment", cycle, nil, st.wantAssign))
		code, data, err := c.do(http.MethodDelete, base+"/v1/stream/"+id, cycle, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", code, data)
		}
		c.verify("stream.delete", err)
	}
}

// streamCycle is one walk over the set in an order drawn from the seed.
func streamCycle(set []*deltaStream, base string, seed int64, n int) []task {
	order := rand.New(rand.NewSource(seed*7919 + int64(n))).Perm(len(set))
	tasks := make([]task, len(set))
	for i, k := range order {
		tasks[i] = set[k].session(base, fmt.Sprintf("c%d-s%d", n, k), n)
	}
	return tasks
}

// retired sums the counters of the servers a generations handler has
// retired, so a workload that replaces its servers every cycle can still
// check and report them over the whole window.
type retired struct {
	mu      sync.Mutex
	stages  map[string]pipeline.StageStats
	cluster cluster.Snapshot // zero for unclustered servers
	shed    server.Snapshot  // Rejected and Timeouts only
}

func (r *retired) add(srv *server.Server) {
	stages := srv.Pipeline().Metrics().Snapshot()
	snap := srv.Metrics().Snapshot()
	var cs cluster.Snapshot
	if f := srv.Cluster(); f != nil {
		cs = f.Metrics().Snapshot()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stages == nil {
		r.stages = map[string]pipeline.StageStats{}
	}
	for name, st := range stages {
		sum := r.stages[name]
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Coalesced += st.Coalesced
		r.stages[name] = sum
	}
	r.cluster.PeerHits += cs.PeerHits
	r.cluster.FallbackBuilds += cs.FallbackBuilds
	r.cluster.HedgedFetches += cs.HedgedFetches
	r.cluster.LocalOwned += cs.LocalOwned
	r.shed.Rejected += snap.Rejected
	r.shed.Timeouts += snap.Timeouts
}

// take returns the sums so far.
func (r *retired) take() (map[string]pipeline.StageStats, cluster.Snapshot, server.Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	stages := make(map[string]pipeline.StageStats, len(r.stages))
	for name, st := range r.stages {
		stages[name] = st
	}
	return stages, r.cluster, r.shed
}

func (r *retired) clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stages, r.cluster, r.shed = nil, cluster.Snapshot{}, server.Snapshot{}
}

// setupStreamIngest builds the streams and a handler that serves every
// cycle from an empty server, so every fold is a miss: the live path of
// delta decode → FoldDelta miss → trace.Fold → PlanDiff at boundaries.
func setupStreamIngest(o options) (*instance, error) {
	set, err := streamSet(o)
	if err != nil {
		return nil, err
	}
	var stats retired
	mk := func() (*server.Server, error) { return server.New(server.Config{Workers: 2}) }
	gens := newGenerations(mk, stats.add)
	url, stop, err := listen(gens)
	if err != nil {
		return nil, err
	}
	in := &instance{close: stop}
	in.cycle = func(n int) []task { return streamCycle(set, url, o.seed, n) }
	in.reset = func() { gens.flush(); stats.clear() }
	hitRatio := func() float64 {
		stages, _, _ := stats.take()
		return stageRatio(nil, stages, pipeline.StageFold)
	}
	in.check = func() []error {
		gens.flush()
		_, _, shed := stats.take()
		errs := checkAdmission(shed)
		if r := hitRatio(); r != 0 {
			errs = append(errs, fmt.Errorf("fold-stage hit ratio %.4f, want 0: a cycle saw another's store", r))
		}
		return errs
	}
	in.layers = func(p layerPass) (float64, error) {
		_, _, shed := stats.take()
		p.m.set("pipeline.hit_ratio."+wlStreamIngest, hitRatio())
		p.m.set("server.rejected", float64(shed.Rejected))
		p.m.set("server.timeouts", float64(shed.Timeouts))
		// Each serial pass over the set is a cycle of its own, far above
		// the replays' numbers, so it folds into an empty store too.
		n := 1 << 20
		return streamLayers(p, set, "pipeline.FoldDelta.cold", func() (string, int) { n++; return url, n })
	}
	return in, nil
}

// setupStreamReplay builds the same streams and one long-lived server
// that folded them all in set-up: every timed session is new, every fold
// a content-addressed hit — the reconnecting client's path.
func setupStreamReplay(o options) (*instance, error) {
	set, err := streamSet(o)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Workers: 2, CacheEntries: 1024})
	if err != nil {
		return nil, err
	}
	url, stop, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	warm := newClient(nil)
	for _, t := range streamCycle(set, url, o.seed, -1) {
		t(warm)
	}
	warm.http.CloseIdleConnections()
	if warm.failed > 0 {
		stop()
		return nil, fmt.Errorf("folding the streams in set-up: %v", warm.errs)
	}

	var before map[string]pipeline.StageStats
	in := &instance{close: stop}
	in.cycle = func(n int) []task { return streamCycle(set, url, o.seed, n) }
	in.reset = func() { before = srv.Pipeline().Metrics().Snapshot() }
	hitRatio := func() float64 {
		return stageRatio(before, srv.Pipeline().Metrics().Snapshot(), pipeline.StageFold)
	}
	in.check = func() []error {
		errs := checkAdmission(srv.Metrics().Snapshot())
		if r := hitRatio(); r != 1 {
			errs = append(errs, fmt.Errorf("fold-stage hit ratio %.4f, want 1: the folded streams did not stay resident", r))
		}
		return errs
	}
	in.layers = func(p layerPass) (float64, error) {
		snap := srv.Metrics().Snapshot()
		p.m.set("pipeline.hit_ratio."+wlStreamReplay, hitRatio())
		p.m.set("server.rejected", float64(snap.Rejected))
		p.m.set("server.timeouts", float64(snap.Timeouts))
		return streamLayers(p, set, "pipeline.FoldDelta.warm", func() (string, int) { return url, -1 })
	}
	return in, nil
}

// streamLayers times, one call at a time, what a delta POST runs
// through: decode, the fold (on an empty and on a warmed store — foldSpan
// names the one this workload's requests take), the boundary planner,
// and the serial POST itself. target gives the base URL and cycle number
// for each serial pass over the set.
func streamLayers(p layerPass, set []*deltaStream, foldSpan string, target func() (string, int)) (float64, error) {
	tr, m := p.tr, p.m
	ctx := context.Background()
	c := newClient(nil)
	defer c.http.CloseIdleConnections()
	rounds := layerRounds
	if p.o.smoke {
		rounds = 1
	}
	var deltas, sessions, phases, moves, bodyKB, planMS float64
	for r := 0; r < rounds; r++ {
		base, cycle := target()
		for k, st := range set {
			pl := pipeline.New(pipeline.Options{})
			seed := pipeline.FoldSeed{Procs: st.procs, Prefix: st.prefix}
			// Two walks of the chain on one store: the first misses every
			// link, the second hits every link.
			for _, span := range []string{"pipeline.FoldDelta.cold", "pipeline.FoldDelta.warm"} {
				state, key, _, err := pl.FoldInit(ctx, seed)
				if err != nil {
					return 0, err
				}
				for _, d := range st.deltas {
					tr.call(span, nil, func() { state, key, _, err = pl.FoldDelta(ctx, key, state, d) })
					if err != nil {
						return 0, err
					}
				}
			}

			id := fmt.Sprintf("layers%d-r%d-s%d", cycle, r, k)
			state, _, _, err := pl.FoldInit(ctx, seed)
			if err != nil {
				return 0, err
			}
			var assign *hfast.Assignment
			for i, body := range st.bodies {
				root := tr.begin("stream.op", nil, time.Now())
				var d *ipm.Delta
				tr.call("ipm.ReadDeltaJSON", root, func() { d, err = ipm.ReadDeltaJSON(bytes.NewReader(body)) })
				if err != nil {
					return 0, err
				}
				tr.call("ipm.Delta.WriteJSON", root, func() { err = d.WriteJSON(io.Discard) })
				if err != nil {
					return 0, err
				}
				tr.call("trace.StreamState.Fold", root, func() { state, err = state.Fold(d) })
				if err != nil {
					return 0, err
				}
				if state.Last.Boundary {
					g := state.CurrentPhaseGraph()
					var diff *hfast.CircuitDiff
					prev := assign
					span := "hfast.PlanDiff"
					if prev == nil {
						span = "hfast.PlanDiff.initial"
					}
					t0 := time.Now()
					tr.call(span, root, func() { assign, diff, err = hfast.PlanDiff(prev, g, state.Cutoff, 0) })
					planMS += float64(time.Since(t0)) / float64(time.Millisecond)
					if err != nil {
						return 0, err
					}
					moves += float64(len(diff.Setup) + len(diff.Teardown))
					if prev != nil {
						// What the diff planner replaces: wiring the same
						// phase from a dark fabric.
						tr.call("hfast.replan", root, func() { _, _, err = hfast.PlanDiff(nil, g, state.Cutoff, 0) })
						if err != nil {
							return 0, err
						}
					}
				}
				u := base + "/v1/stream/" + id + "?prefix=" + st.prefix
				tr.call("server.http", root, func() {
					var code int
					var data []byte
					if code, data, err = c.do(http.MethodPost, u, cycle, body); err == nil && code != http.StatusOK {
						err = fmt.Errorf("serial delta %d of %s: status %d: %.200s", i, id, code, data)
					}
				})
				if err != nil {
					return 0, err
				}
				root.end()
				deltas++
				bodyKB += float64(len(body)) / 1024
			}
			if code, data, err := c.do(http.MethodDelete, base+"/v1/stream/"+id, cycle, nil); err != nil || code != http.StatusOK {
				return 0, fmt.Errorf("deleting %s: status %d, err %v: %.200s", id, code, err, data)
			}
			sessions++
			phases += float64(len(state.Phases()))
		}
	}
	decode, fold, httpMean := tr.mean("ipm.ReadDeltaJSON"), tr.mean(foldSpan), tr.mean("server.http")
	cold, warm := tr.mean("pipeline.FoldDelta.cold"), tr.mean("pipeline.FoldDelta.warm")
	planShare := planMS / deltas
	m.set("ipm.delta_decode_ms", decode)
	m.set("ipm.delta_encode_ms", tr.mean("ipm.Delta.WriteJSON"))
	m.set("trace.fold_ms", tr.mean("trace.StreamState.Fold"))
	m.set("trace.phases_per_session", phases/sessions)
	m.set("pipeline.fold_cold_ms", cold)
	m.set("pipeline.fold_warm_ms", warm)
	if cold > 0 {
		m.set("pipeline.fold_warm_cold_ratio", warm/cold)
	}
	m.set("hfast.plandiff_ms", tr.mean("hfast.PlanDiff"))
	m.set("hfast.replan_ms", tr.mean("hfast.replan"))
	m.set("hfast.circuit_moves_per_session", moves/sessions)
	m.set("server.stream_overhead_ms", httpMean-(decode+fold+planShare))
	m.set("stream.body_kb_per_op", bodyKB/deltas)
	// decode + fold + the planner's share + the overhead telescope to the
	// serial POST mean.
	return httpMean, nil
}
