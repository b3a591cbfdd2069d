package server

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"github.com/hfast-sim/hfast/internal/experiments"
	"github.com/hfast-sim/hfast/internal/pipeline"
)

// TestPrewarmIsServedFromTheServersPipeline is what hfastd -prewarm does:
// warm paper specs through the server's own store. A request for one at
// default parameters then finds the profile there — a profile-stage hit,
// no pipeline run — instead of in a second cache behind the runner.
func TestPrewarmIsServedFromTheServersPipeline(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	specs := experiments.PaperSpecs()[:2] // cactus at both paper sizes
	if err := experiments.RunnerOn(s.Pipeline(), 0).WarmAll(context.Background(), specs, 2); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	warmed := s.Metrics().Snapshot().Runs
	if warmed != uint64(len(specs)) {
		t.Fatalf("prewarm ran %d profiles through the server's pool, want %d", warmed, len(specs))
	}
	before := s.Pipeline().Metrics().Stage(pipeline.StageProfile)

	for _, spec := range specs {
		req := ProvisionRequest{ProfileRequest: ProfileRequest{App: spec.App, Procs: spec.Procs}}
		if resp, body := postJSON(t, ts.URL+"/v1/provision", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("provision %v: %d: %s", spec, resp.StatusCode, body)
		}
	}
	after := s.Pipeline().Metrics().Stage(pipeline.StageProfile)
	if after.Misses != before.Misses || after.Hits <= before.Hits {
		t.Errorf("profile stage after the requests: %d hits / %d misses, before them %d / %d; want hits only",
			after.Hits, after.Misses, before.Hits, before.Misses)
	}
	_, page := getBody(t, ts.URL+"/metrics")
	if want := "hfastd_pipeline_runs_total 2\n"; !strings.Contains(string(page), want) {
		t.Errorf("/metrics does not hold %q after serving the warmed specs", want)
	}
}
