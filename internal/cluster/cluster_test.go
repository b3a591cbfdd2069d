package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hfast-sim/hfast/internal/pipeline"
)

func testRecipe() pipeline.Recipe {
	return pipeline.Recipe{
		Stage:      pipeline.StageGraph,
		ProfileKey: "profile:deadbeefdeadbeefdeadbeef",
		Spec:       &pipeline.ProfileSpec{App: "fft", Procs: 64, Steps: 2},
		Filter:     "steady",
	}
}

// keyOwnedBy brute-forces a stage key whose owner preference order
// starts with the given peers.
func keyOwnedBy(t *testing.T, f *Filler, want ...string) pipeline.Key {
	t.Helper()
	for i := 0; i < 100000; i++ {
		key := pipeline.Key(fmt.Sprintf("graph:%024x", i))
		owners := f.Owners(key)
		ok := len(owners) >= len(want)
		for j := range want {
			ok = ok && owners[j] == want[j]
		}
		if ok {
			return key
		}
	}
	t.Fatal("no key found with the requested owner order")
	return ""
}

func newTestFiller(t *testing.T, self string, peers []string, tweak func(*Config)) *Filler {
	t.Helper()
	cfg := Config{Self: self, Peers: peers, FetchTimeout: 2 * time.Second}
	if tweak != nil {
		tweak(&cfg)
	}
	f, err := NewFiller(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFillerValidation(t *testing.T) {
	if _, err := NewFiller(Config{Self: "http://a", Peers: []string{"http://b", "http://c"}}); err == nil {
		t.Error("self outside peer list accepted")
	}
	if _, err := NewFiller(Config{Self: "http://a", Peers: []string{"http://a"}}); err == nil {
		t.Error("single-replica cluster accepted")
	}
	if _, err := NewFiller(Config{Peers: []string{"http://a", "http://b"}}); err == nil {
		t.Error("empty self accepted")
	}
	// Trailing slashes normalize away.
	f, err := NewFiller(Config{Self: "http://a/", Peers: []string{"http://a", "http://b/"}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Self() != "http://a" {
		t.Errorf("self not normalized: %q", f.Self())
	}
}

func TestFillSelfOwned(t *testing.T) {
	self := "http://self:1"
	f := newTestFiller(t, self, []string{self, "http://other:2"}, nil)
	key := keyOwnedBy(t, f, self)
	if _, err := f.Fill(context.Background(), key, testRecipe()); !errors.Is(err, ErrSelfOwned) {
		t.Fatalf("Fill of self-owned key returned %v, want ErrSelfOwned", err)
	}
	if s := f.Metrics().Snapshot(); s.LocalOwned != 1 {
		t.Errorf("LocalOwned = %d, want 1", s.LocalOwned)
	}
}

func TestFillFromOwner(t *testing.T) {
	artifact := []byte(`{"p":4,"edges":[]}`)
	var gotToken string
	var gotRecipe pipeline.Recipe
	var gotPath string
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotToken = r.Header.Get(TokenHeader)
		gotPath = r.URL.Path
		if err := json.NewDecoder(r.Body).Decode(&gotRecipe); err != nil {
			t.Errorf("decoding recipe: %v", err)
		}
		w.Write(artifact)
	}))
	defer owner.Close()

	self := "http://self:1"
	f := newTestFiller(t, self, []string{self, owner.URL}, func(c *Config) { c.Token = "s3cret" })
	key := keyOwnedBy(t, f, owner.URL)
	data, err := f.Fill(context.Background(), key, testRecipe())
	if err != nil {
		t.Fatalf("Fill: %v", err)
	}
	if string(data) != string(artifact) {
		t.Errorf("Fill returned %q, want %q", data, artifact)
	}
	if gotToken != "s3cret" {
		t.Errorf("token header %q, want s3cret", gotToken)
	}
	if want := ArtifactPathPrefix + string(key); gotPath != want {
		t.Errorf("request path %q, want %q", gotPath, want)
	}
	if gotRecipe.Stage != pipeline.StageGraph || gotRecipe.Spec == nil || gotRecipe.Spec.App != "fft" {
		t.Errorf("recipe did not round-trip: %+v", gotRecipe)
	}
	s := f.Metrics().Snapshot()
	if s.PeerHits != 1 || s.FillBytes != uint64(len(artifact)) {
		t.Errorf("PeerHits=%d FillBytes=%d, want 1 and %d", s.PeerHits, s.FillBytes, len(artifact))
	}
}

func TestFillPeerMiss(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no spec", http.StatusNotFound)
	}))
	defer owner.Close()
	self := "http://self:1"
	f := newTestFiller(t, self, []string{self, owner.URL}, nil)
	key := keyOwnedBy(t, f, owner.URL)
	if _, err := f.Fill(context.Background(), key, testRecipe()); !errors.Is(err, ErrPeerMiss) {
		t.Fatalf("Fill returned %v, want ErrPeerMiss", err)
	}
	s := f.Metrics().Snapshot()
	if s.PeerMisses != 1 || s.FallbackBuilds != 1 {
		t.Errorf("PeerMisses=%d FallbackBuilds=%d, want 1/1", s.PeerMisses, s.FallbackBuilds)
	}
}

func TestFillPeerDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on
	self := "http://self:1"
	f := newTestFiller(t, self, []string{self, deadURL}, nil)
	key := keyOwnedBy(t, f, deadURL)
	if _, err := f.Fill(context.Background(), key, testRecipe()); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("Fill returned %v, want ErrPeerUnavailable", err)
	}
	s := f.Metrics().Snapshot()
	if s.PeerErrors != 1 || s.FallbackBuilds != 1 {
		t.Errorf("PeerErrors=%d FallbackBuilds=%d, want 1/1", s.PeerErrors, s.FallbackBuilds)
	}
}

func TestFillDeadline(t *testing.T) {
	stall := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	// LIFO: unblock the stalled handler before Close reaps connections.
	defer close(stall)
	self := "http://self:1"
	f := newTestFiller(t, self, []string{self, slow.URL}, func(c *Config) {
		c.FetchTimeout = 50 * time.Millisecond
	})
	key := keyOwnedBy(t, f, slow.URL)
	if _, err := f.Fill(context.Background(), key, testRecipe()); !errors.Is(err, ErrPeerDeadline) {
		t.Fatalf("Fill returned %v, want ErrPeerDeadline", err)
	}
}

// TestFillHedge stalls the preferred owner past the hedge delay and
// has the second candidate answer: the fill must succeed via the hedge
// without waiting out the first fetch's deadline.
func TestFillHedge(t *testing.T) {
	stall := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	// LIFO: unblock the stalled handler before Close reaps connections.
	defer close(stall)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("artifact-bytes"))
	}))
	defer fast.Close()

	self := "http://self:1"
	f := newTestFiller(t, self, []string{self, slow.URL, fast.URL}, func(c *Config) {
		c.FetchTimeout = time.Second // the hedge fires after a quarter of it
	})
	key := keyOwnedBy(t, f, slow.URL, fast.URL)
	start := time.Now()
	data, err := f.Fill(context.Background(), key, testRecipe())
	if err != nil {
		t.Fatalf("Fill: %v", err)
	}
	if string(data) != "artifact-bytes" {
		t.Errorf("Fill returned %q", data)
	}
	if elapsed := time.Since(start); elapsed >= f.cfg.FetchTimeout {
		t.Errorf("hedged fill took %v, should beat the %v fetch timeout", elapsed, f.cfg.FetchTimeout)
	}
	if s := f.Metrics().Snapshot(); s.HedgedFetches == 0 {
		t.Error("hedge fired but HedgedFetches is 0")
	}
}

func TestMetricsPrometheus(t *testing.T) {
	f := newTestFiller(t, "http://a", []string{"http://a", "http://b", "http://c"}, nil)
	f.Metrics().addPeerHit(1024, 0.25)
	f.Metrics().addFillFailure(true)
	f.Metrics().AddServed()
	var sb strings.Builder
	f.Metrics().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"hfastd_cluster_peer_hits_total 1",
		"hfastd_cluster_peer_misses_total 1",
		"hfastd_cluster_fallback_builds_total 1",
		"hfastd_cluster_artifacts_served_total 1",
		"hfastd_cluster_fill_bytes_total 1024",
		"hfastd_cluster_peers 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}
