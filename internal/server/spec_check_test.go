package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/cluster"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/pipeline"
)

// TestArtifactChecksRecipe: a peer's recipe that names a run
// this replica would not make for a client, or that the recipe check
// refuses, answers 400 before anything resolves. The first case once
// reached mpi.NewWorld(2^40) and ended the process out of memory.
func TestArtifactChecksRecipe(t *testing.T) {
	var runs atomic.Int64
	reps := startCluster(t, 2, &runs)
	valid := pipeline.ProfileSpec{App: "cactus", Procs: 8, Steps: 1}
	for _, tc := range []struct {
		name string
		spec pipeline.ProfileSpec
		rec  pipeline.Recipe // Spec and ProfileKey filled in from spec
		want string          // the error starts with this
	}{
		{"2^40 ranks", pipeline.ProfileSpec{App: "cactus", Procs: 1 << 40, Steps: 1},
			pipeline.Recipe{Stage: pipeline.StageProfile}, `"procs" 1099511627776 exceeds the server limit`},
		{"no ranks", pipeline.ProfileSpec{App: "cactus", Steps: 1},
			pipeline.Recipe{Stage: pipeline.StageProfile}, `"procs" must be positive`},
		{"unknown app", pipeline.ProfileSpec{App: "nope", Procs: 8, Steps: 1},
			pipeline.Recipe{Stage: pipeline.StageGraph, Filter: "steady"}, "apps: unknown"},
		{"unknown fabric", valid,
			pipeline.Recipe{Stage: pipeline.StageNetsim, Filter: "steady", Fabric: "nope"}, `pipeline: unknown fabric "nope"`},
		{"negative cutoff", valid,
			pipeline.Recipe{Stage: pipeline.StagePlan, Filter: "steady", Cutoff: -1}, "pipeline: negative cutoff -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			rec := tc.rec
			rec.Spec, rec.ProfileKey = &spec, pipeline.Spec(spec).Key()
			// The key a peer would name: the recipe's own when it has one.
			key, err := rec.Key()
			if err != nil {
				key = rec.ProfileKey
			}
			body, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, reps[0].url+cluster.ArtifactPathPrefix+string(key), bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(cluster.TokenHeader, testClusterToken)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("status %d, decoding the error: %v", resp.StatusCode, err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(e.Error, tc.want) {
				t.Errorf("status %d %q, want 400 starting %q", resp.StatusCode, e.Error, tc.want)
			}
		})
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("hostile recipes ran %d skeletons, want 0", n)
	}
}

// TestProvisionUploadChecksProcs: an uploaded profile is held to MaxProcs
// as a spec is, since the graph and assign stages size themselves by its
// Procs. Against a server with MaxProcs 8, a cactus profile of 16 ranks is
// refused with 400, like the spec request for 16 ranks, and so is one that
// claims no ranks; the same upload at 8 ranks is provisioned.
func TestProvisionUploadChecksProcs(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxProcs: 8})
	upload := func(procs int) *ipm.Profile {
		prof, err := apps.ProfileRun("cactus", apps.Config{Procs: procs, Steps: 1})
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	noRanks := upload(8)
	noRanks.Procs = 0
	for _, tc := range []struct {
		name string
		req  ProvisionRequest
		code int
		want string // the error starts with this
	}{
		{"upload P=16", ProvisionRequest{Profile: upload(16)}, http.StatusBadRequest, "profile procs 16 outside (0,8]"},
		{"spec P=16", ProvisionRequest{ProfileRequest: ProfileRequest{App: "cactus", Procs: 16, Steps: 1}}, http.StatusBadRequest, `"procs" 16 exceeds the server limit 8`},
		{"upload P=0", ProvisionRequest{Profile: noRanks}, http.StatusBadRequest, "profile procs 0 outside (0,8]"},
		{"upload P=8", ProvisionRequest{Profile: upload(8)}, http.StatusOK, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/provision", tc.req)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d: %s, want %d", resp.StatusCode, body, tc.code)
			}
			if tc.code == http.StatusOK {
				return
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || !strings.HasPrefix(e.Error, tc.want) {
				t.Errorf("error %q (%v), want one starting %q", e.Error, err, tc.want)
			}
		})
	}
}

// TestNegativeCutoff: each endpoint that takes a cutoff answers a
// negative one with 400 and runs nothing; hfast.Assign would otherwise
// take it as a threshold every edge clears.
func TestNegativeCutoff(t *testing.T) {
	var runs atomic.Int64
	_, ts := testServer(t, Config{Workers: 1, Runner: func(ctx context.Context, app string, cfg apps.Config) (*ipm.Profile, error) {
		runs.Add(1)
		return apps.ProfileRunContext(ctx, app, cfg)
	}})
	const want = "pipeline: negative cutoff -1"
	for _, tc := range []struct{ name, method, path, body string }{
		{"provision", "POST", "/v1/provision", `{"app":"cactus","procs":8,"steps":1,"cutoff":-1}`},
		{"compare", "GET", "/v1/compare?app=cactus&procs=8&steps=1&cutoff=-1", ""},
		{"stream", "POST", "/v1/stream/neg?cutoff=-1", `{"Version":2,"App":"a","Procs":4,"Seq":0,"Window":"step000"}`},
	} {
		code, msg := sendRaw(t, tc.method, ts.URL+tc.path, tc.body)
		if code != http.StatusBadRequest || !strings.HasPrefix(msg, want) {
			t.Errorf("%s: status %d %q, want 400 starting %q", tc.name, code, msg, want)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("negative cutoffs ran %d skeletons, want 0", n)
	}
}

// TestTimeoutMSValidated: a malformed or negative timeout_ms, in the query
// or in a request body, answers 400 and runs nothing, where it used to fall
// back to the server default; a stream POST refused for it opens no
// session. A timeout past MaxTimeout is clamped, not overflowed into a
// deadline already gone.
func TestTimeoutMSValidated(t *testing.T) {
	var runs atomic.Int64
	_, ts := testServer(t, Config{Workers: 1, Runner: func(ctx context.Context, app string, cfg apps.Config) (*ipm.Profile, error) {
		runs.Add(1)
		return apps.ProfileRunContext(ctx, app, cfg)
	}})
	const spec = `{"app":"cactus","procs":8,"steps":1}`
	const delta = `{"Version":2,"App":"a","Procs":4,"Seq":0,"Window":"step000"}`
	for _, tc := range []struct{ name, method, path, body, want string }{
		{"query malformed: profile", "POST", "/v1/profile?timeout_ms=soon", spec, "timeout_ms: "},
		{"query malformed: provision", "POST", "/v1/provision?timeout_ms=1.5", spec, "timeout_ms: "},
		{"query malformed: compare", "GET", "/v1/compare?app=cactus&procs=8&steps=1&timeout_ms=x", "", "timeout_ms: "},
		{"query malformed: stream post", "POST", "/v1/stream/t1?timeout_ms=x", delta, "timeout_ms: "},
		{"query malformed: stream get", "GET", "/v1/stream/t1?timeout_ms=x", "", "timeout_ms: "},
		{"query negative: profile", "POST", "/v1/profile?timeout_ms=-1", spec, "timeout_ms: -1 is negative"},
		{"query negative: compare", "GET", "/v1/compare?app=cactus&procs=8&steps=1&timeout_ms=-5", "", "timeout_ms: -5 is negative"},
		{"query negative: stream post", "POST", "/v1/stream/t2?timeout_ms=-1", delta, "timeout_ms: -1 is negative"},
		{"body negative: profile", "POST", "/v1/profile", `{"app":"cactus","procs":8,"steps":1,"timeout_ms":-1}`, "timeout_ms: -1 is negative"},
		{"body negative: provision", "POST", "/v1/provision", `{"app":"cactus","procs":8,"steps":1,"timeout_ms":-20}`, "timeout_ms: -20 is negative"},
		{"body malformed: profile", "POST", "/v1/profile", `{"app":"cactus","procs":8,"steps":1,"timeout_ms":"soon"}`, ""},
	} {
		code, msg := sendRaw(t, tc.method, ts.URL+tc.path, tc.body)
		if code != http.StatusBadRequest || !strings.HasPrefix(msg, tc.want) {
			t.Errorf("%s: status %d %q, want 400 starting %q", tc.name, code, msg, tc.want)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("refused timeouts ran %d skeletons, want 0", n)
	}
	for _, id := range []string{"t1", "t2"} {
		if code, _ := sendRaw(t, "GET", ts.URL+"/v1/stream/"+id, ""); code != http.StatusNotFound {
			t.Errorf("stream %s: refused POST left a session (GET answers %d, want 404)", id, code)
		}
	}
	fresh := `{"app":"cactus","procs":8,"steps":1,"seed":2}` // no cached profile answers it
	if code, msg := sendRaw(t, "POST", ts.URL+"/v1/profile?timeout_ms=9223372036854775807", fresh); code != http.StatusOK {
		t.Errorf("timeout_ms past MaxTimeout: status %d %q, want 200", code, msg)
	}
}
