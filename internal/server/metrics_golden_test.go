package server

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hfast-sim/hfast/internal/cluster"
	core "github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/pipeline"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics.golden from this build's /metrics page")

// wallClockSample matches the samples that carry measured time: the
// request-duration buckets and sum, and the build and fill seconds.
var wallClockSample = regexp.MustCompile(`(?m)^(hfastd_request_duration_seconds_(?:bucket\{[^}]*\}|sum)|hfast_pipeline_stage_build_seconds_total\{[^}]*\}|hfastd_cluster_fill_seconds_total) .*$`)

// specWhollyOwnedBy finds the cactus P=8 spec of fewest steps whose
// profile, graph, assign, plan and compare keys all have the wanted first
// owner. /v1/compare takes no seed, so the search is over steps.
func specWhollyOwnedBy(t *testing.T, f *cluster.Filler, owner string) pipeline.ProfileSpec {
	t.Helper()
	params := core.DefaultParams()
	params.BlockSize = core.DefaultBlockSize
steps:
	for steps := 1; steps < 1000; steps++ {
		spec := pipeline.ProfileSpec{App: "cactus", Procs: 8, Steps: steps}
		for _, stage := range []string{pipeline.StageProfile, pipeline.StageGraph, pipeline.StageAssign, pipeline.StagePlan, pipeline.StageCompare} {
			rec := pipeline.Recipe{Stage: stage, ProfileKey: pipeline.Spec(spec).Key(), Spec: &spec, Filter: "steady", Params: &params}
			key, err := rec.Key()
			if err != nil {
				t.Fatal(err)
			}
			if f.Owners(key)[0] != owner {
				continue steps
			}
		}
		return spec
	}
	t.Fatal("no spec found whose stage keys all have the requested owner")
	return pipeline.ProfileSpec{}
}

// TestMetricsGolden holds the whole /metrics page — request, pipeline and
// cluster sections — to the bytes the three hand-written writers produced
// for one fixed request script, wall-clock samples blanked. The ring
// hashes member URLs, so the two replicas go by fixed names that the
// default transport (the one the filler fetches with) is taught to dial:
// who owns which key is then the same on every run.
func TestMetricsGolden(t *testing.T) {
	names := []string{"http://replica-a.test", "http://replica-b.test"}
	lns := make([]net.Listener, len(names))
	addrs := map[string]string{}
	for i, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[strings.TrimPrefix(name, "http://")+":80"] = ln.Addr().String()
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := addrs[addr]; ok {
			addr = real
		}
		return new(net.Dialer).DialContext(ctx, network, addr)
	}
	old := http.DefaultTransport
	http.DefaultTransport = tr
	t.Cleanup(func() { http.DefaultTransport = old; tr.CloseIdleConnections() })

	var runs atomic.Int64
	reps := serveCluster(t, lns, names, &runs)
	a, b := reps[0], reps[1]
	expect := func(resp *http.Response, body []byte, code int) {
		t.Helper()
		if resp.StatusCode != code {
			t.Fatalf("%s: status %d, want %d: %s", resp.Request.URL, resp.StatusCode, code, body)
		}
	}

	// A plan built on its owner a, then filled from there by b.
	remote := specWhollyOwnedBy(t, b.srv.Cluster(), a.url)
	resp, body := postJSON(t, a.url+"/v1/provision", provisionBody(remote))
	expect(resp, body, http.StatusOK)
	resp, body = postJSON(t, b.url+"/v1/provision", provisionBody(remote))
	expect(resp, body, http.StatusOK)

	// A spec b owns at every stage: a miss, a hit, its profile, its
	// comparison twice.
	local := specWhollyOwnedBy(t, b.srv.Cluster(), b.url)
	for i := 0; i < 2; i++ {
		resp, body = postJSON(t, b.url+"/v1/provision", provisionBody(local))
		expect(resp, body, http.StatusOK)
	}
	resp, body = postJSON(t, b.url+"/v1/profile", provisionBody(local).ProfileRequest)
	expect(resp, body, http.StatusOK)
	compare := fmt.Sprintf("%s/v1/compare?app=%s&procs=%d&steps=%d", b.url, local.App, local.Procs, local.Steps)
	for i := 0; i < 2; i++ {
		resp, body = getBody(t, compare)
		expect(resp, body, http.StatusOK)
	}

	// The cheap routes and the refusals.
	resp, body = getBody(t, b.url+"/v1/apps")
	expect(resp, body, http.StatusOK)
	resp, body = getBody(t, b.url+"/healthz")
	expect(resp, body, http.StatusOK)
	resp, body = getBody(t, b.url+"/no/such/route")
	expect(resp, body, http.StatusNotFound)
	resp, body = postJSON(t, b.url+"/v1/provision", ProvisionRequest{})
	expect(resp, body, http.StatusBadRequest)
	resp, body = getBody(t, b.url+"/v1/provision")
	expect(resp, body, http.StatusMethodNotAllowed)

	// One streamed session with a phase boundary, replayed under a second
	// id (all fold hits), then closed and deleted.
	_, ds := splitRun(t, "amr", 16, 6)
	for _, id := range []string{"one", "two"} {
		sresp, out := postDeltas(t, b.url+"/v1/stream/"+id+"?close=1", ds)
		if sresp.StatusCode != http.StatusOK || out.Phases < 2 {
			t.Fatalf("stream %s: status %d, %d phases", id, sresp.StatusCode, out.Phases)
		}
	}
	if code, _ := postRaw(t, b.url+"/v1/stream/three", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("bad stream body: status %d", code)
	}
	if code, _ := sendRaw(t, http.MethodDelete, b.url+"/v1/stream/one", ""); code != http.StatusOK {
		t.Fatalf("DELETE stream: status %d", code)
	}

	resp, page := getBody(t, b.url+"/metrics")
	expect(resp, page, http.StatusOK)
	got := wallClockSample.ReplaceAll(page, []byte("$1 WALL"))
	const golden = "testdata/metrics.golden"
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics differs from %s (regenerate with -update only when a series is meant to move)\ngot:\n%s", golden, got)
	}
}
