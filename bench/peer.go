package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/server"
)

// The ring hashes member URLs, so the three replicas go by fixed names:
// which specs replica A owns is then a function of the seed alone, not
// of the ports the listeners happened to get. dialReplicas points the
// names at the real loopback listeners.
var replicaNames = []string{"http://replica-a.bench", "http://replica-b.bench", "http://replica-c.bench"}

const clusterToken = "bench-token"

// replicaAddrs maps "replica-x.bench:80" to the live listener address.
var replicaAddrs sync.Map

// dialReplicas teaches http.DefaultTransport — the transport the
// cluster filler fetches with; server.Config offers no other — to dial
// the replica names.
var dialReplicas = sync.OnceFunc(func() {
	d := &net.Dialer{Timeout: 5 * time.Second}
	http.DefaultTransport.(*http.Transport).DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := replicaAddrs.Load(addr); ok {
			addr = real.(string)
		}
		return d.DialContext(ctx, network, addr)
	}
})

// planRecipe is the recipe of a spec's provisioning plan, the artifact a
// cold replica asks the ring owner for.
func planRecipe(s pipeline.ProfileSpec) pipeline.Recipe {
	return pipeline.Recipe{Stage: pipeline.StagePlan, ProfileKey: pipeline.Spec(s).Key(), Spec: &s, Filter: "steady"}
}

// setupPeerFill builds a three-replica ring on real loopback listeners.
// Replica A owns, and in set-up builds, the plans of 32 cactus/lbmhd/gtc
// P=64 specs; the timed requests for them go to B and C, which start
// every walk of the set with an empty store and so fill each plan from A
// over the peer endpoint: cluster.Filler.Fill, artifact encode and decode,
// and /internal/artifact, which no other workload enters.
func setupPeerFill(o options) (*instance, error) {
	dialReplicas()
	config := func(self int) server.Config {
		return server.Config{Workers: 2, Peers: replicaNames, SelfURL: replicaNames[self], ClusterToken: clusterToken}
	}
	owner, err := server.New(config(0))
	if err != nil {
		return nil, err
	}
	var stats retired
	fillers := make([]*generations, 2)
	handlers := []http.Handler{owner.Handler()}
	for i := range fillers {
		self := i + 1
		fillers[i] = newGenerations(func() (*server.Server, error) { return server.New(config(self)) }, stats.add)
		handlers = append(handlers, fillers[i])
	}
	urls := make([]string, len(handlers))
	var stops []func()
	stop := func() {
		for _, s := range stops {
			s()
		}
		// Connections the fillers pooled point at listeners now gone.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	for i, h := range handlers {
		url, s, err := listen(h)
		if err != nil {
			stop()
			return nil, err
		}
		stops = append(stops, s)
		urls[i] = url
		replicaAddrs.Store(strings.TrimPrefix(replicaNames[i], "http://")+":80", strings.TrimPrefix(url, "http://"))
	}

	// Walk seeds upward from a base drawn from the seed and keep the
	// specs whose plan key the ring gives to A first.
	nspecs, procs := 32, 64
	if o.smoke {
		nspecs, procs = 6, 16
	}
	grid := []string{"cactus", "lbmhd", "gtc"}
	var specs []pipeline.ProfileSpec
	for k := int64(1); len(specs) < nspecs; k++ {
		s := pipeline.ProfileSpec{App: grid[len(specs)%len(grid)], Procs: procs, Seed: o.seed*1_000_000 + k}
		key, err := planRecipe(s).Key()
		if err != nil {
			stop()
			return nil, err
		}
		if owner.Cluster().Owners(key)[0] == owner.Cluster().Self() {
			specs = append(specs, s)
		}
	}

	// Warm A through its own front door; its answers are what B and C
	// must reproduce byte for byte.
	c := newClient(nil)
	defer c.http.CloseIdleConnections()
	want := make([][]byte, len(specs))
	for i, s := range specs {
		code, body, err := c.do(http.MethodPost, urls[0]+"/v1/provision", -1, provisionBody(s))
		if err != nil || code != http.StatusOK {
			stop()
			return nil, fmt.Errorf("warming the owner with %s: status %d, err %v", s, code, err)
		}
		want[i] = body
	}

	in := &instance{close: stop}
	in.cycle = func(n int) []task {
		var tasks []task
		for i, s := range specs {
			body, want := provisionBody(s), want[i]
			for _, url := range urls[1:] {
				url := url
				tasks = append(tasks, func(c *client) {
					start := time.Now()
					c.op("provision.peer", start, c.expect(http.MethodPost, url+"/v1/provision", n, body, want))
				})
			}
		}
		rand.New(rand.NewSource(o.seed*7919+int64(n))).Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		return tasks
	}
	flush := func() {
		for _, g := range fillers {
			g.flush()
		}
	}
	in.reset = func() { flush(); stats.clear() }
	in.check = func() []error {
		flush()
		stages, cs, shed := stats.take()
		plan := stages[pipeline.StagePlan]
		errs := append(checkAdmission(shed), checkAdmission(owner.Metrics().Snapshot())...)
		if cs.PeerHits != plan.Misses || plan.Hits+plan.Coalesced != 0 {
			errs = append(errs, fmt.Errorf("peer hits %d for %d plan misses (%d hits, %d coalesced): not every op was a peer fill",
				cs.PeerHits, plan.Misses, plan.Hits, plan.Coalesced))
		}
		if cs.FallbackBuilds != 0 || cs.LocalOwned != 0 {
			errs = append(errs, fmt.Errorf("%d fallback builds, %d locally owned keys on the fill side, want 0",
				cs.FallbackBuilds, cs.LocalOwned))
		}
		return errs
	}
	in.layers = func(p layerPass) (float64, error) {
		stages, cs, shed := stats.take()
		if fills := float64(stages[pipeline.StagePlan].Misses); fills > 0 {
			p.m.set("cluster.peer_hit_ratio", float64(cs.PeerHits)/fills)
			p.m.set("cluster.hedged_per_op", float64(cs.HedgedFetches)/fills)
		}
		p.m.set("pipeline.hit_ratio."+wlPeerFill, stageRatio(nil, stages, pipeline.StagePlan))
		p.m.set("server.rejected", float64(shed.Rejected))
		p.m.set("server.timeouts", float64(shed.Timeouts))
		return peerLayers(p, specs, func() (*server.Server, error) { return server.New(config(1)) })
	}
	return in, nil
}

// peerLayers times, one call at a time, a fill as a cold replica B makes
// it, the artifact codec on either end, and the local build the fill
// stands in for.
func peerLayers(p layerPass, specs []pipeline.ProfileSpec, newFiller func() (*server.Server, error)) (float64, error) {
	tr, m := p.tr, p.m
	ctx := context.Background()
	var kb, fills float64
	rounds := layerRounds
	if p.o.smoke {
		rounds = 1
	}
	for r := 0; r < rounds*len(specs); r++ {
		s := specs[r%len(specs)]
		rec := planRecipe(s)
		key, err := rec.Key()
		if err != nil {
			return 0, err
		}
		b, err := newFiller()
		if err != nil {
			return 0, err
		}
		root := tr.begin("peer_fill.op", nil, time.Now())
		var data []byte
		tr.call("cluster.Filler.Fill", root, func() { data, err = b.Cluster().Fill(ctx, key, rec) })
		if err != nil {
			return 0, err
		}
		var plan any
		tr.call("pipeline.DecodeArtifact", root, func() { plan, err = pipeline.DecodeArtifact(pipeline.StagePlan, data) })
		if err != nil {
			return 0, err
		}
		tr.call("pipeline.EncodeArtifact", root, func() { _, err = pipeline.EncodeArtifact(pipeline.StagePlan, plan) })
		if err != nil {
			return 0, err
		}
		tr.call("pipeline.Plan", root, func() {
			_, _, err = pipeline.New(pipeline.Options{}).Plan(ctx, pipeline.Spec(s), pipeline.Steady(), 0, 0)
		})
		if err != nil {
			return 0, err
		}
		root.end()
		kb += float64(len(data)) / 1024
		fills++
	}
	fill, decode := tr.mean("cluster.Filler.Fill"), tr.mean("pipeline.DecodeArtifact")
	m.set("cluster.fill_ms", fill)
	m.set("cluster.rebuild_ms", tr.mean("pipeline.Plan"))
	m.set("pipeline.encode_artifact_ms", tr.mean("pipeline.EncodeArtifact"))
	m.set("pipeline.decode_artifact_ms", decode)
	m.set("cluster.artifact_kb", kb/fills)
	// What the fill replica adds around these two — admission, response
	// encoding, the client's round trip — has no public entry point of
	// its own and lands in the gap row.
	return fill + decode, nil
}
