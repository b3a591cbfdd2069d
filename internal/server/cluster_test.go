package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/cluster"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/pipeline"
)

const testClusterToken = "integration-secret"

// replica is one in-process hfastd instance of a test cluster.
type replica struct {
	srv *Server
	url string
	hs  *http.Server
}

// startCluster boots n replicas on loopback listeners that all know the
// full peer list. Every profile execution on any replica increments
// runs, so tests can assert cluster-wide singleflight.
func startCluster(t *testing.T, n int, runs *atomic.Int64) []*replica {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	return serveCluster(t, lns, urls, runs)
}

// serveCluster is startCluster on the caller's listeners, replica i going
// by urls[i] on the ring.
func serveCluster(t *testing.T, lns []net.Listener, urls []string, runs *atomic.Int64) []*replica {
	t.Helper()
	reps := make([]*replica, len(lns))
	for i := range reps {
		srv, err := New(Config{
			Workers:      2,
			Peers:        urls,
			SelfURL:      urls[i],
			ClusterToken: testClusterToken,
			// Generous: a peer fetch may cover the owner's full build.
			PeerTimeout: 60 * time.Second,
			Runner: func(ctx context.Context, app string, cfg apps.Config) (*ipm.Profile, error) {
				runs.Add(1)
				return apps.ProfileRunContext(ctx, app, cfg)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		reps[i] = &replica{srv: srv, url: urls[i], hs: hs}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			hs.Close()
		})
	}
	return reps
}

// planKeyOf derives the plan-stage key /v1/provision resolves for a
// spec, exactly as the pipeline does.
func planKeyOf(t *testing.T, spec pipeline.ProfileSpec) pipeline.Key {
	t.Helper()
	rec := pipeline.Recipe{
		Stage:      pipeline.StagePlan,
		ProfileKey: pipeline.Spec(spec).Key(),
		Spec:       &spec,
		Filter:     "steady",
	}
	key, err := rec.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// specOwnedBy brute-forces a profiling spec (by seed) whose plan key
// has the wanted owner preference order on the cluster's ring.
func specOwnedBy(t *testing.T, f *cluster.Filler, seed0 int64, want ...string) pipeline.ProfileSpec {
	t.Helper()
	for seed := seed0; seed < seed0+10000; seed++ {
		spec := pipeline.ProfileSpec{App: "cactus", Procs: 8, Steps: 1, Seed: seed}
		owners := f.Owners(planKeyOf(t, spec))
		ok := len(owners) >= len(want)
		for i := range want {
			ok = ok && owners[i] == want[i]
		}
		if ok {
			return spec
		}
	}
	t.Fatal("no spec found with the requested plan-key owner order")
	return pipeline.ProfileSpec{}
}

func provisionBody(spec pipeline.ProfileSpec) ProvisionRequest {
	return ProvisionRequest{ProfileRequest: ProfileRequest{
		App: spec.App, Procs: spec.Procs, Steps: spec.Steps, Seed: spec.Seed,
	}}
}

// TestClusterPeerFill is the multi-replica integration test: three
// in-process replicas share one logical artifact cache.
//
//   - Warm-up: provisioning on the key's ring owner builds once.
//   - A non-owner replica serves the same request via peer-fill —
//     byte-identical response, no new profile run, peer-hit counters up.
//   - A cold key requested on all three replicas concurrently is built
//     exactly once cluster-wide.
//   - Killing the owner degrades the survivors to local builds with no
//     request failures.
func TestClusterPeerFill(t *testing.T) {
	var runs atomic.Int64
	reps := startCluster(t, 3, &runs)
	a, b, c := reps[0], reps[1], reps[2]

	// --- warm-up on the owner, then peer-fill from the others ---
	spec := specOwnedBy(t, b.srv.Cluster(), 1000, a.url)
	resp, warmBody := postJSON(t, a.url+"/v1/provision", provisionBody(spec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner provision: %d: %s", resp.StatusCode, warmBody)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("owner warm-up ran the profile %d times, want 1", got)
	}
	for _, r := range []*replica{b, c} {
		resp, body := postJSON(t, r.url+"/v1/provision", provisionBody(spec))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s provision: %d: %s", r.url, resp.StatusCode, body)
		}
		if !bytes.Equal(body, warmBody) {
			t.Errorf("%s plan diverges from the owner's:\nowner: %s\npeer:  %s", r.url, warmBody, body)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("peer-filled requests re-ran the profile: %d runs, want 1", got)
	}
	peerHits := b.srv.Cluster().Metrics().Snapshot().PeerHits + c.srv.Cluster().Metrics().Snapshot().PeerHits
	if peerHits < 2 {
		t.Errorf("peer hits after warm fills = %d, want >= 2", peerHits)
	}

	// --- byte-identical serialized artifacts straight off the wire ---
	var artifacts [][]byte
	for _, r := range reps {
		artifacts = append(artifacts, fetchArtifact(t, r.url, spec))
	}
	for i, art := range artifacts[1:] {
		if !bytes.Equal(art, artifacts[0]) {
			t.Errorf("replica %d artifact differs from replica 0's (%d vs %d bytes)", i+1, len(art), len(artifacts[0]))
		}
	}

	// --- cold key hit concurrently on every replica: built once ---
	cold := specOwnedBy(t, b.srv.Cluster(), 2000, a.url)
	before := runs.Load()
	var wg sync.WaitGroup
	errs := make(chan error, len(reps))
	for _, r := range reps {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			resp, body, err := postJSONErr(r.url+"/v1/provision", provisionBody(cold))
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d: %s", r.url, resp.StatusCode, body)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if delta := runs.Load() - before; delta != 1 {
		t.Errorf("concurrent cold provision ran the profile %d times cluster-wide, want 1", delta)
	}

	// --- owner death degrades to local builds, no request failures ---
	// A spec whose only remote candidate (from b's view) is replica a:
	// owners [a, b] leave b nothing to hedge to once a is gone.
	dead := specOwnedBy(t, b.srv.Cluster(), 3000, a.url, b.url)
	a.hs.Close()
	before = runs.Load()
	resp, body := postJSON(t, b.url+"/v1/provision", provisionBody(dead))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("provision with dead owner: %d: %s", resp.StatusCode, body)
	}
	if delta := runs.Load() - before; delta != 1 {
		t.Errorf("dead-owner fallback ran the profile %d times, want 1 local build", delta)
	}
	snap := b.srv.Cluster().Metrics().Snapshot()
	if snap.PeerErrors == 0 || snap.FallbackBuilds == 0 {
		t.Errorf("dead owner not accounted: PeerErrors=%d FallbackBuilds=%d, want both > 0", snap.PeerErrors, snap.FallbackBuilds)
	}

	// The cache-tier series are on /metrics.
	mresp, err := http.Get(b.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d, %v", mresp.StatusCode, err)
	}
	for _, series := range []string{"hfastd_cluster_peer_hits_total", "hfastd_cluster_peer_errors_total", "hfastd_cluster_peers 3"} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// fetchArtifact asks a replica's peer-fill endpoint for the serialized
// plan artifact of spec, as a peer would.
func fetchArtifact(t *testing.T, baseURL string, spec pipeline.ProfileSpec) []byte {
	t.Helper()
	return fetchRecipe(t, baseURL, pipeline.Recipe{
		Stage:      pipeline.StagePlan,
		ProfileKey: pipeline.Spec(spec).Key(),
		Spec:       &spec,
		Filter:     "steady",
	})
}

// fetchRecipe asks a replica's peer-fill endpoint for the serialized
// artifact rec names.
func fetchRecipe(t *testing.T, baseURL string, rec pipeline.Recipe) []byte {
	t.Helper()
	key, err := rec.Key()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := marshalRecipe(rec)
	req, err := http.NewRequest(http.MethodPost, baseURL+cluster.ArtifactPathPrefix+string(key), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.TokenHeader, testClusterToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch from %s: %d: %s", baseURL, resp.StatusCode, data)
	}
	return data
}

// TestIndependentServersServeEqualBytes is the content-address property
// without a shared cache to hold it up: two clusters that have never
// spoken each build the wildcard skeletons — SuperLU receives with
// AnySource, PMEMD retires with Waitany — from one recipe, and the
// profile and plan artifacts they serve under that recipe's keys are the
// same bytes, as are their provision answers. Until a world's schedule
// became a function of the program, this held only because exactly one
// replica ever built a key.
func TestIndependentServersServeEqualBytes(t *testing.T) {
	var runs atomic.Int64
	one, two := startCluster(t, 2, &runs)[0], startCluster(t, 2, &runs)[0]
	for _, app := range []string{"superlu", "pmemd"} {
		spec := pipeline.ProfileSpec{App: app, Procs: 64, Seed: 7}
		before := runs.Load()
		var answers, profiles, plans [2][]byte
		for i, r := range []*replica{one, two} {
			resp, body := postJSON(t, r.url+"/v1/provision", provisionBody(spec))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: provision: %d: %s", app, resp.StatusCode, body)
			}
			answers[i] = body
			profiles[i] = fetchRecipe(t, r.url, pipeline.Recipe{Stage: pipeline.StageProfile, ProfileKey: pipeline.Spec(spec).Key(), Spec: &spec})
			plans[i] = fetchArtifact(t, r.url, spec)
		}
		if got := runs.Load() - before; got < 2 {
			t.Errorf("%s: %d profile runs, want at least one per cluster", app, got)
		}
		for name, pair := range map[string][2][]byte{"provision answer": answers, "profile artifact": profiles, "plan artifact": plans} {
			if len(pair[0]) == 0 || !bytes.Equal(pair[0], pair[1]) {
				t.Errorf("%s: %s differs between two independent servers (%d vs %d bytes)", app, name, len(pair[0]), len(pair[1]))
			}
		}
	}
}

func marshalRecipe(rec pipeline.Recipe) ([]byte, error) {
	return json.Marshal(rec)
}

// TestArtifactEndpointProtocol covers the owner-side status contract of
// /internal/artifact without a full cluster: auth, method, key
// integrity, unfillable recipes.
func TestArtifactEndpointProtocol(t *testing.T) {
	var runs atomic.Int64
	reps := startCluster(t, 2, &runs)
	a := reps[0]
	spec := pipeline.ProfileSpec{App: "cactus", Procs: 8, Steps: 1}
	rec := pipeline.Recipe{
		Stage:      pipeline.StageGraph,
		ProfileKey: pipeline.Spec(spec).Key(),
		Spec:       &spec,
		Filter:     "steady",
	}
	key, err := rec.Key()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := marshalRecipe(rec)
	do := func(method, path, token string, reqBody []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, a.url+path, bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set(cluster.TokenHeader, token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := do(http.MethodGet, cluster.ArtifactPathPrefix+string(key), testClusterToken, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: %d, want 405", resp.StatusCode)
	}
	if resp := do(http.MethodPost, cluster.ArtifactPathPrefix+string(key), "wrong", body); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad token: %d, want 401", resp.StatusCode)
	}
	if resp := do(http.MethodPost, cluster.ArtifactPathPrefix+"graph:ffffffffffffffffffffffff", testClusterToken, body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("key mismatch: %d, want 400", resp.StatusCode)
	}
	unfillable := pipeline.Recipe{Stage: pipeline.StageGraph, ProfileKey: "profile-blob:0011223344556677", Filter: "steady"}
	ubody, _ := marshalRecipe(unfillable)
	ukey, err := unfillable.Key()
	if err != nil {
		t.Fatal(err)
	}
	if resp := do(http.MethodPost, cluster.ArtifactPathPrefix+string(ukey), testClusterToken, ubody); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unfillable recipe: %d, want 404", resp.StatusCode)
	}
	if resp := do(http.MethodPost, cluster.ArtifactPathPrefix+string(key), testClusterToken, body); resp.StatusCode != http.StatusOK {
		t.Errorf("valid fetch: %d, want 200", resp.StatusCode)
	}
}

// TestArtifactEndpointDeadline pins the 504 half of the owner-side
// error contract: a build that outlives the request deadline answers
// 504, not a generic 500.
func TestArtifactEndpointDeadline(t *testing.T) {
	var runs atomic.Int64
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	stall := make(chan struct{})
	srv, err := New(Config{
		Workers:      1,
		Peers:        urls,
		SelfURL:      urls[0],
		ClusterToken: testClusterToken,
		Runner: func(ctx context.Context, app string, cfg apps.Config) (*ipm.Profile, error) {
			runs.Add(1)
			select {
			case <-stall:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(lns[0])
	defer hs.Close()
	defer close(stall)

	spec := pipeline.ProfileSpec{App: "cactus", Procs: 8, Steps: 1}
	rec := pipeline.Recipe{Stage: pipeline.StageProfile, ProfileKey: pipeline.Spec(spec).Key(), Spec: &spec}
	key, err := rec.Key()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := marshalRecipe(rec)
	req, err := http.NewRequest(http.MethodPost,
		urls[0]+cluster.ArtifactPathPrefix+string(key)+"?timeout_ms=100", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.TokenHeader, testClusterToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("stalled build answered %d, want 504", resp.StatusCode)
	}
}

// TestCorruptPeerPlanFallsBack: a peer that answers the artifact endpoint
// with plan bytes Wire cannot survive costs the asking replica one local
// build and nothing else — the same answer a lone server gives, where
// each of these bodies used to kill the process from the flight goroutine.
func TestCorruptPeerPlanFallsBack(t *testing.T) {
	bodies := []string{
		`{"assignment":{"P":4,"BlockSize":16,"Partners":[[1]],"Blocks":[1]}}`,
		`{"assignment":{"P":2,"BlockSize":16,"Partners":[[1],[0]],"Blocks":[1,1],"TotalBlocks":0}}`,
		`{"assignment":{"P":2,"BlockSize":16,"Partners":[[5],[0]],"Blocks":[1,1],"TotalBlocks":2}}`,
		`{"assignment":{"P":-1,"BlockSize":16,"Partners":[],"Blocks":[],"TotalBlocks":0}}`,
	}
	var served atomic.Int64
	var answer atomic.Value // the body the peer serves for plan keys
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, cluster.ArtifactPathPrefix)
		if !strings.HasPrefix(key, pipeline.StagePlan+":") {
			http.NotFound(w, r) // upstream stages: build them yourself
			return
		}
		served.Add(1)
		w.Write([]byte(answer.Load().(string)))
	}))
	defer peer.Close()

	self := "http://127.0.0.1:1" // never dialled: a replica does not fetch from itself
	s, _ := testServer(t, Config{Workers: 2, Peers: []string{peer.URL, self}, SelfURL: self})
	alone, _ := testServer(t, Config{Workers: 2})
	provision := func(srv *Server, spec pipeline.ProfileSpec) string {
		t.Helper()
		body := fmt.Sprintf(`{"app":%q,"procs":%d,"steps":%d,"seed":%d}`, spec.App, spec.Procs, spec.Steps, spec.Seed)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/provision", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("provision %+v: status %d: %s", spec, w.Code, w.Body)
		}
		return w.Body.String()
	}
	for i, body := range bodies {
		answer.Store(body)
		// A fresh plan key per body, owned by the corrupt peer.
		spec := specOwnedBy(t, s.Cluster(), int64(1000*(i+1)), peer.URL)
		before := served.Load()
		got := provision(s, spec)
		if served.Load() == before {
			t.Fatalf("body %d: the peer was never asked for the plan", i)
		}
		if want := provision(alone, spec); got != want {
			t.Errorf("body %d: answer after a corrupt fill differs from a lone server's:\n got %s\nwant %s", i, got, want)
		}
	}
	if snap := s.Cluster().Metrics().Snapshot(); snap.PeerHits < uint64(len(bodies)) {
		t.Errorf("peer hits = %d, want the %d corrupt plan bodies counted as fetched", snap.PeerHits, len(bodies))
	}
}
