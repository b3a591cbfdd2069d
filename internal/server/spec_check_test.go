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
