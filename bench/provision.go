package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"time"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/experiments"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/server"
	"github.com/hfast-sim/hfast/internal/topology"
)

// listen serves h on a fresh loopback listener. stop closes the listener
// and its connections and waits for the serving goroutine to end.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// provisionBody is the POST /v1/provision body of a spec.
func provisionBody(s pipeline.ProfileSpec) []byte {
	b, err := json.Marshal(server.ProfileRequest{App: s.App, Procs: s.Procs, Steps: s.Steps, Seed: s.Seed})
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

// buildDirect walks the chain mpi → ipm → apps → topology → hfast by
// hand, without pipeline or server: the independent computation the
// provision oracle compares against, and the calls the per-layer pass
// times (tr and parent may be nil).
func buildDirect(tr *tracer, parent *open, s pipeline.ProfileSpec) (*ipm.Profile, *topology.Graph, *hfast.Assignment, *hfast.Wiring, error) {
	var (
		prof *ipm.Profile
		g    *topology.Graph
		a    *hfast.Assignment
		w    *hfast.Wiring
		err  error
	)
	step := func(name string, fn func()) {
		if err != nil {
			return
		}
		if tr == nil {
			fn()
			return
		}
		tr.call(name, parent, fn)
	}
	cfg := apps.Config{Procs: s.Procs, Steps: s.Steps, Scale: s.Scale, Seed: s.Seed}
	step("apps.ProfileRunContext", func() { prof, err = apps.ProfileRunContext(context.Background(), s.App, cfg) })
	step("topology.FromProfile", func() { g, err = topology.FromProfile(prof, ipm.SteadyState) })
	step("hfast.Assign", func() { a, err = hfast.Assign(g, 0, 0) })
	step("hfast.Wire", func() { w, err = hfast.Wire(a) })
	return prof, g, a, w, err
}

// wantProvision is the response POST /v1/provision must give for a spec,
// computed without the pipeline or the server.
func wantProvision(s pipeline.ProfileSpec) (*server.ProvisionResponse, error) {
	prof, _, a, w, err := buildDirect(nil, nil, s)
	if err != nil {
		return nil, err
	}
	u, max := a.Ports(), a.MaxRoute()
	return &server.ProvisionResponse{
		App:           prof.App,
		Procs:         prof.Procs,
		Cutoff:        a.Cutoff,
		BlockSize:     a.BlockSize,
		TotalBlocks:   a.TotalBlocks,
		BlocksPerNode: float64(a.TotalBlocks) / float64(a.P),
		Ports: server.PortsResponse{
			Active: u.ActivePorts, UsedActive: u.UsedActivePorts,
			Passive: u.PassivePorts, Utilization: u.Utilization(),
		},
		MaxRoute:    server.RouteResponse{SBHops: max.SBHops, Crossings: max.Crossings},
		SwitchPorts: w.Switch.Ports(),
		LitPorts:    w.Switch.LitPorts(),
		Circuits:    w.Switch.LitPorts() / 2,
	}, nil
}

// checkProvision compares a served JSON response with the oracle.
func checkProvision(s pipeline.ProfileSpec, body []byte) error {
	var got server.ProvisionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s seed %d: decoding response: %w", s, s.Seed, err)
	}
	want, err := wantProvision(s)
	if err != nil {
		return fmt.Errorf("%s seed %d: oracle: %w", s, s.Seed, err)
	}
	if !reflect.DeepEqual(&got, want) {
		return fmt.Errorf("%s seed %d: served plan %+v differs from the directly computed %+v", s, s.Seed, got, *want)
	}
	return nil
}

// stageRatio is hits ÷ resolutions of the named pipeline stages between
// two snapshots.
func stageRatio(before, after map[string]pipeline.StageStats, stages ...string) float64 {
	var hits, all uint64
	for _, st := range stages {
		b, a := before[st], after[st]
		hits += a.Hits - b.Hits
		all += (a.Hits - b.Hits) + (a.Misses - b.Misses) + (a.Coalesced - b.Coalesced)
	}
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

// checkAdmission reports requests the server shed or timed out; no
// workload is sized to cause either.
func checkAdmission(snap server.Snapshot) []error {
	var errs []error
	if snap.Rejected != 0 {
		errs = append(errs, fmt.Errorf("server rejected %d requests", snap.Rejected))
	}
	if snap.Timeouts != 0 {
		errs = append(errs, fmt.Errorf("server timed out %d requests", snap.Timeouts))
	}
	return errs
}

// --- provision_cold ---

// coldMix is one cycle of provision_cold: the six paper skeletons at
// P=64 plus the three grid codes at P=256.
func coldMix(smoke bool) []pipeline.ProfileSpec {
	if smoke {
		return []pipeline.ProfileSpec{{App: "cactus", Procs: 16}, {App: "lbmhd", Procs: 16}, {App: "gtc", Procs: 16}}
	}
	var mix []pipeline.ProfileSpec
	for _, app := range apps.Names() {
		mix = append(mix, pipeline.ProfileSpec{App: app, Procs: 64})
	}
	for _, app := range []string{"cactus", "lbmhd", "gtc"} {
		mix = append(mix, pipeline.ProfileSpec{App: app, Procs: 256})
	}
	return mix
}

// setupProvisionCold starts one hfastd with two workers. Every request
// carries a seed no request before it used, so every stage misses and
// the whole chain runs.
func setupProvisionCold(o options) (*instance, error) {
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	url, stop, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	mix := coldMix(o.smoke)

	// cycleSpecs gives cycle n its specs: the mix in an order drawn from
	// the seed, each with a seed of its own.
	cycleSpecs := func(n int) []pipeline.ProfileSpec {
		specs := append([]pipeline.ProfileSpec(nil), mix...)
		rand.New(rand.NewSource(o.seed*7919+int64(n))).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		for i := range specs {
			specs[i].Seed = o.seed*1_000_000 + int64(n)*100 + int64(i) + 1
		}
		return specs
	}

	// The oracle: what cycle 0 must be answered, computed here without
	// pipeline or server — the one piece of set-up this workload has.
	oracle := map[int64]*server.ProvisionResponse{}
	for _, s := range cycleSpecs(0) {
		want, err := wantProvision(s)
		if err != nil {
			stop()
			return nil, err
		}
		oracle[s.Seed] = want
	}
	var (
		mu      sync.Mutex
		checked int
		before  map[string]pipeline.StageStats
	)
	in := &instance{close: stop}
	in.cycle = func(n int) []task {
		var tasks []task
		for _, s := range cycleSpecs(n) {
			s := s
			tasks = append(tasks, func(c *client) {
				start := time.Now()
				code, body, err := c.do(http.MethodPost, url+"/v1/provision", -1, provisionBody(s))
				var got server.ProvisionResponse
				switch {
				case err != nil:
				case code != http.StatusOK:
					err = fmt.Errorf("status %d: %.200s", code, body)
				default:
					if err = json.Unmarshal(body, &got); err == nil && (got.App != s.App || got.Procs != s.Procs) {
						err = fmt.Errorf("asked for %s, got %s/%d", s, got.App, got.Procs)
					}
				}
				if want := oracle[s.Seed]; err == nil && want != nil {
					if !reflect.DeepEqual(&got, want) {
						err = fmt.Errorf("%s seed %d: served plan %+v differs from the directly computed %+v", s, s.Seed, got, *want)
					}
					mu.Lock()
					checked++
					mu.Unlock()
				}
				c.op("provision.cold", start, err)
			})
		}
		return tasks
	}
	in.reset = func() { before = srv.Pipeline().Metrics().Snapshot() }
	hitRatio := func() float64 {
		return stageRatio(before, srv.Pipeline().Metrics().Snapshot(), pipeline.StagePlan)
	}
	in.check = func() []error {
		errs := checkAdmission(srv.Metrics().Snapshot())
		if r := hitRatio(); r != 0 {
			errs = append(errs, fmt.Errorf("plan-stage hit ratio %.3f, want 0: a request repeated a seed", r))
		}
		mu.Lock()
		defer mu.Unlock()
		if checked != len(oracle) {
			errs = append(errs, fmt.Errorf("%d of %d oracle responses were checked", checked, len(oracle)))
		}
		return errs
	}
	in.layers = func(p layerPass) (float64, error) {
		snap := srv.Metrics().Snapshot()
		p.m.set("pipeline.hit_ratio."+wlProvisionCold, hitRatio())
		p.m.set("server.rejected", float64(snap.Rejected))
		p.m.set("server.timeouts", float64(snap.Timeouts))
		return coldLayers(p, url, cycleSpecs)
	}
	return in, nil
}

// coldLayers times, one call at a time, the layers a cold provision
// runs through: the same specs over HTTP, through Pipeline.Plan on an
// empty store, and through each layer's own entry point.
func coldLayers(p layerPass, url string, cycleSpecs func(int) []pipeline.ProfileSpec) (float64, error) {
	tr, m := p.tr, p.m
	c := newClient(nil)
	defer c.http.CloseIdleConnections()
	ctx := context.Background()
	var calls, edges, blocks, ops float64
	// Cycle numbers far above any the replays used keep the seeds new.
	for n := 1 << 20; n < 1<<20+layerRounds; n++ {
		for _, s := range cycleSpecs(n) {
			root := tr.begin("provision_cold.op", nil, time.Now())
			var err error
			tr.call("server.http", root, func() {
				var code int
				var body []byte
				if code, body, err = c.do(http.MethodPost, url+"/v1/provision", -1, provisionBody(s)); err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", code, body)
				}
			})
			if err != nil {
				return 0, err
			}
			tr.call("pipeline.Plan", root, func() {
				_, _, err = pipeline.New(pipeline.Options{}).Plan(ctx, pipeline.Spec(s), pipeline.Steady(), 0, 0)
			})
			if err != nil {
				return 0, err
			}
			prof, g, a, _, err := buildDirect(tr, root, s)
			if err != nil {
				return 0, err
			}
			// The same skeleton on a world with no tracer: mpi + apps alone.
			info, err := apps.Lookup(s.App)
			if err != nil {
				return 0, err
			}
			cfg := apps.Config{Procs: s.Procs, Seed: s.Seed}
			tr.call("apps.Info.Run", root, func() {
				w := mpi.NewWorld(s.Procs, mpi.WithTimeout(apps.DefaultTimeout), mpi.WithCostModel(mpi.DefaultCostModel()))
				err = w.Run(func(cm *mpi.Comm) { info.Run(cm, cfg) })
			})
			if err != nil {
				return 0, err
			}
			root.end()
			calls += float64(prof.TotalCalls(ipm.AllRegions))
			edges += float64(g.EdgeCount())
			blocks += float64(a.TotalBlocks)
			ops++
		}
		if p.o.smoke {
			break
		}
	}
	profile, graph, assign, wire := tr.mean("apps.ProfileRunContext"), tr.mean("topology.FromProfile"), tr.mean("hfast.Assign"), tr.mean("hfast.Wire")
	plan, httpMean := tr.mean("pipeline.Plan"), tr.mean("server.http")
	m.set("apps.run_untraced_ms", tr.mean("apps.Info.Run"))
	m.set("apps.profile_ms", profile)
	m.set("ipm.overhead_ms", profile-tr.mean("apps.Info.Run"))
	m.set("ipm.calls_per_op", calls/ops)
	m.set("topology.graph_ms", graph)
	m.set("topology.edges_per_op", edges/ops)
	m.set("hfast.assign_ms", assign)
	m.set("hfast.wire_ms", wire)
	m.set("hfast.blocks_per_op", blocks/ops)
	m.set("pipeline.cold_overhead_ms", plan-(profile+graph+assign+wire))
	m.set("server.cold_overhead_ms", httpMean-plan)

	m.set("mpi.halo_msg_ns", haloMessageNS(p.o.smoke))
	m.set("ipm.event_ns", collectorEventNS())
	if !p.o.smoke {
		ratio, err := warmAllScaling()
		if err != nil {
			return 0, err
		}
		m.set("experiments.warmall_scaling", ratio)
	}
	// profile + graph + assign + wire + the two overheads telescope to
	// the serial HTTP mean.
	return httpMean, nil
}

// haloMessageNS is the mpi runtime's cost per matched message: a P=64
// world in which every rank exchanges with both ring neighbours by
// Irecv/Isend/Waitall, the pattern the grid skeletons lean on.
func haloMessageNS(smoke bool) float64 {
	const ranks = 64
	iters := 2000
	if smoke {
		iters = 50
	}
	w := mpi.NewWorld(ranks, mpi.WithTimeout(time.Minute), mpi.WithCostModel(mpi.DefaultCostModel()))
	start := time.Now()
	err := w.Run(func(c *mpi.Comm) {
		left, right := (c.Rank()-1+ranks)%ranks, (c.Rank()+1)%ranks
		reqs := make([]*mpi.Request, 4)
		for i := 0; i < iters; i++ {
			reqs[0] = c.Irecv(left, 1)
			reqs[1] = c.Irecv(right, 2)
			reqs[2] = c.Isend(right, 1, mpi.Size(8192))
			reqs[3] = c.Isend(left, 2, mpi.Size(8192))
			c.Waitall(reqs)
		}
	})
	if err != nil {
		return 0
	}
	return float64(time.Since(start)) / float64(ranks*2*iters)
}

// collectorEventNS is the ipm collector's cost per event on the repeated
// signatures of a halo exchange with two partners.
func collectorEventNS() float64 {
	col := ipm.NewCollector(0, 0)
	events := []mpi.Event{
		{Call: mpi.CallIrecv, Peer: 1, Region: "step001"},
		{Call: mpi.CallIrecv, Peer: 2, Region: "step001"},
		{Call: mpi.CallIsend, Peer: 1, Bytes: 8192, Region: "step001"},
		{Call: mpi.CallIsend, Peer: 2, Bytes: 8192, Region: "step001"},
		{Call: mpi.CallWaitall, Peer: mpi.NoPeer, Region: "step001"},
	}
	const n = 1_000_000
	start := time.Now()
	for i := 0; i < n; i++ {
		e := events[i%len(events)]
		e.T = float64(i) * 1e-6
		col.Event(e)
	}
	return float64(time.Since(start)) / n
}

// warmAllScaling is Runner.WarmAll on the paper grid with one worker ÷
// with one per core: what the warm-up fan-out gains from more cores.
func warmAllScaling() (float64, error) {
	var secs [2]float64
	for i, workers := range []int{1, 0} {
		start := time.Now()
		if err := experiments.NewRunner(0).WarmAll(context.Background(), experiments.PaperSpecs(), workers); err != nil {
			return 0, err
		}
		secs[i] = time.Since(start).Seconds()
	}
	return secs[0] / secs[1], nil
}

// --- provision_warm ---

// warmKinds are the three request shapes of the warm mix, per 20 ops.
const (
	warmJSON    = 14 // POST /v1/provision
	warmText    = 3  // POST /v1/provision?format=text
	warmCompare = 3  // GET /v1/compare
)

// warmOp is one request of the warm mix with its known answer.
type warmOp struct {
	name, method, url string
	body, want        []byte
	spec              pipeline.ProfileSpec
}

// setupProvisionWarm starts one hfastd and warms 24 specs (6 apps × 4
// seeds at P=64) plus the six comparisons, all resident in a 128-entry
// cache; the timed requests are answered from it. Every answer is known
// byte for byte from the warming request.
func setupProvisionWarm(o options) (*instance, error) {
	srv, err := server.New(server.Config{Workers: 2, CacheEntries: 128})
	if err != nil {
		return nil, err
	}
	url, stop, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	in := &instance{close: stop}

	names, seeds, procs := apps.Names(), 4, 64
	if o.smoke {
		names, seeds, procs = []string{"cactus", "lbmhd", "gtc"}, 1, 16
	}
	c := newClient(nil)
	defer c.http.CloseIdleConnections()
	fetch := func(op *warmOp) error {
		code, body, err := c.do(op.method, op.url, -1, op.body)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", code, body)
		}
		op.want = body
		return err
	}
	var jsonOps, textOps, compareOps []warmOp
	for _, app := range names {
		for k := 1; k <= seeds; k++ {
			s := pipeline.ProfileSpec{App: app, Procs: procs, Seed: o.seed*1000 + int64(k)}
			jsonOps = append(jsonOps, warmOp{name: "provision.warm", method: http.MethodPost, url: url + "/v1/provision", body: provisionBody(s), spec: s})
			textOps = append(textOps, warmOp{name: "provision.text", method: http.MethodPost, url: url + "/v1/provision?format=text", body: provisionBody(s), spec: s})
		}
		compareOps = append(compareOps, warmOp{name: "compare.warm", method: http.MethodGet,
			url: fmt.Sprintf("%s/v1/compare?app=%s&procs=%d", url, app, procs), spec: pipeline.ProfileSpec{App: app, Procs: procs}})
	}
	for _, ops := range [][]warmOp{jsonOps, textOps, compareOps} {
		for i := range ops {
			if err := fetch(&ops[i]); err != nil {
				stop()
				return nil, fmt.Errorf("warming %s: %w", ops[i].url, err)
			}
		}
	}

	// One cycle is 100 requests, 70/15/15, walking each shape's specs
	// round-robin; the order is drawn from the seed once, so every cycle
	// of a run is the same sequence.
	var mix []warmOp
	for i := 0; i < 5; i++ {
		for k := 0; k < warmJSON; k++ {
			mix = append(mix, jsonOps[(i*warmJSON+k)%len(jsonOps)])
		}
		for k := 0; k < warmText; k++ {
			mix = append(mix, textOps[(i*warmText+k)%len(textOps)])
		}
		for k := 0; k < warmCompare; k++ {
			mix = append(mix, compareOps[(i*warmCompare+k)%len(compareOps)])
		}
	}
	rand.New(rand.NewSource(o.seed)).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	tasks := make([]task, len(mix))
	for i := range mix {
		op := mix[i]
		tasks[i] = func(c *client) {
			start := time.Now()
			c.op(op.name, start, c.expect(op.method, op.url, -1, op.body, op.want))
		}
	}
	in.cycle = func(int) []task { return tasks }

	var before map[string]pipeline.StageStats
	in.reset = func() { before = srv.Pipeline().Metrics().Snapshot() }
	hitRatio := func() float64 {
		return stageRatio(before, srv.Pipeline().Metrics().Snapshot(), pipeline.StagePlan, "compare-response")
	}
	in.check = func() []error {
		errs := checkAdmission(srv.Metrics().Snapshot())
		if r := hitRatio(); r != 1 {
			errs = append(errs, fmt.Errorf("plan/compare hit ratio %.4f, want 1: the warmed set did not stay resident", r))
		}
		// The cached answers themselves, against the direct computation,
		// for the three cheapest skeletons.
		for _, op := range jsonOps {
			if op.spec.Seed == o.seed*1000+1 && (op.spec.App == "cactus" || op.spec.App == "lbmhd" || op.spec.App == "gtc") {
				if err := checkProvision(op.spec, op.want); err != nil {
					errs = append(errs, err)
				}
			}
		}
		return errs
	}
	in.layers = func(p layerPass) (float64, error) {
		snap := srv.Metrics().Snapshot()
		p.m.set("pipeline.hit_ratio."+wlProvisionWarm, hitRatio())
		p.m.set("server.rejected", float64(snap.Rejected))
		p.m.set("server.timeouts", float64(snap.Timeouts))
		return warmLayers(p, srv, mix)
	}
	return in, nil
}

// warmLayers times what is left of a request answered from the cache:
// key derivation, the LRU hit, the handler around it, and the loopback
// round trip around that.
func warmLayers(p layerPass, srv *server.Server, mix []warmOp) (float64, error) {
	tr, m := p.tr, p.m
	c := newClient(nil)
	defer c.http.CloseIdleConnections()
	ctx := context.Background()
	h := srv.Handler()
	rounds := 20
	if p.o.smoke {
		rounds = 1
	}
	var bytesOut, ops float64
	for r := 0; r < rounds; r++ {
		for _, op := range mix {
			root := tr.begin("provision_warm.op", nil, time.Now())
			var err error
			if op.method == http.MethodPost {
				s := op.spec
				tr.call("pipeline.Recipe.Key", root, func() {
					_, err = pipeline.Recipe{Stage: pipeline.StagePlan, ProfileKey: pipeline.Spec(s).Key(), Spec: &s, Filter: "steady"}.Key()
				})
				if err != nil {
					return 0, err
				}
				var how pipeline.Outcome
				tr.call("pipeline.Plan", root, func() {
					_, how, err = srv.Pipeline().Plan(ctx, pipeline.Spec(s), pipeline.Steady(), 0, 0)
				})
				if err != nil || how != pipeline.Hit {
					return 0, fmt.Errorf("warm Plan of %s: outcome %v, err %v", s, how, err)
				}
			}
			var rd *bytes.Reader
			if op.body != nil {
				rd = bytes.NewReader(op.body)
			} else {
				rd = bytes.NewReader(nil)
			}
			req := httptest.NewRequest(op.method, op.url, rd)
			rw := httptest.NewRecorder()
			tr.call("server.ServeHTTP", root, func() { h.ServeHTTP(rw, req) })
			if !bytes.Equal(rw.Body.Bytes(), op.want) {
				return 0, fmt.Errorf("handler answer for %s differs from the warmed one", op.url)
			}
			tr.call("server.http", root, func() { err = c.expect(op.method, op.url, -1, op.body, op.want) })
			if err != nil {
				return 0, err
			}
			root.end()
			bytesOut += float64(len(op.want))
			ops++
		}
	}
	hit, handler, httpMean := tr.mean("pipeline.Plan"), tr.mean("server.ServeHTTP"), tr.mean("server.http")
	m.set("pipeline.key_us", 1e3*tr.mean("pipeline.Recipe.Key"))
	m.set("pipeline.plan_hit_us", 1e3*hit)
	m.set("server.warm_handler_us", 1e3*(handler-hit))
	m.set("server.warm_loopback_us", 1e3*(httpMean-handler))
	m.set("server.response_bytes", bytesOut/ops)
	// hit + handler share + loopback share telescope to the serial mean.
	return httpMean, nil
}
