package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
	"github.com/hfast-sim/hfast/internal/trace"
)

// foldChain folds a delta slice through the pipeline starting from the
// seed, reporting the outcomes observed at each link.
func foldChain(t *testing.T, pl *Pipeline, seed FoldSeed, ds []*ipm.Delta) (*trace.StreamState, Key, []Outcome) {
	t.Helper()
	ctx := context.Background()
	st, key, how, err := pl.FoldInit(ctx, seed)
	if err != nil {
		t.Fatalf("fold init: %v", err)
	}
	outcomes := []Outcome{how}
	for _, d := range ds {
		st, key, how, err = pl.FoldDelta(ctx, key, st, d)
		if err != nil {
			t.Fatalf("fold delta %d: %v", d.Seq, err)
		}
		outcomes = append(outcomes, how)
	}
	return st, key, outcomes
}

// TestFoldWarmPrefix pins the delta-chain keying contract: replaying the
// same stream serves every link from cache, and a stream sharing only a
// prefix re-folds just its divergent suffix.
func TestFoldWarmPrefix(t *testing.T) {
	p, err := apps.ProfileRun("cactus", apps.Config{Procs: 16, Steps: 4})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(ds) < 4 {
		t.Fatalf("need at least 4 deltas, got %d", len(ds))
	}
	pl := New(Options{})
	seed := FoldSeed{Procs: p.Procs}

	_, key1, cold := foldChain(t, pl, seed, ds)
	for i, how := range cold {
		if how != Miss {
			t.Fatalf("cold fold link %d outcome %v, want miss", i, how)
		}
	}

	st2, key2, warm := foldChain(t, pl, seed, ds)
	for i, how := range warm {
		if how != Hit {
			t.Fatalf("warm fold link %d outcome %v, want hit", i, how)
		}
	}
	if key1 != key2 {
		t.Fatalf("same stream folded to different keys %s vs %s", key1, key2)
	}
	if st2.Deltas != len(ds) {
		t.Fatalf("warm replay folded %d deltas, want %d", st2.Deltas, len(ds))
	}

	// A stream diverging after the first half shares the warm prefix and
	// misses only from the divergence point on.
	half := len(ds) / 2
	fork := make([]*ipm.Delta, len(ds))
	copy(fork, ds[:half])
	for i := half; i < len(ds); i++ {
		d := *ds[i]
		d.Ranks = append([]ipm.RankProfile(nil), d.Ranks...)
		d.Ranks[0].Spilled++ // perturb content, keep shape
		fork[i] = &d
	}
	_, _, mixed := foldChain(t, pl, seed, fork)
	for i := 0; i <= half; i++ { // init link + first half
		if mixed[i] != Hit {
			t.Fatalf("shared-prefix link %d outcome %v, want hit", i, mixed[i])
		}
	}
	for i := half + 1; i < len(mixed); i++ {
		if mixed[i] != Miss {
			t.Fatalf("divergent link %d outcome %v, want miss", i, mixed[i])
		}
	}
}

// TestFoldErrorNotCached pins the cache discipline on the fold stage: a
// delta that fails to fold is retryable — the error is returned but never
// stored, and the failed key stays absent.
func TestFoldErrorNotCached(t *testing.T) {
	pl := New(Options{})
	ctx := context.Background()
	st, key, _, err := pl.FoldInit(ctx, FoldSeed{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	bad := &ipm.Delta{Version: 2, App: "x", Procs: 4, Seq: 0, Window: "step000"} // procs mismatch
	if _, _, _, err := pl.FoldDelta(ctx, key, st, bad); err == nil {
		t.Fatal("expected fold error for procs mismatch")
	}
	before := pl.CachedArtifacts()
	if _, _, how, err := pl.FoldDelta(ctx, key, st, bad); err == nil {
		t.Fatal("expected fold error on retry")
	} else if how == Hit {
		t.Fatal("fold error was served from cache")
	}
	if pl.CachedArtifacts() != before {
		t.Fatalf("failed fold grew the cache from %d to %d entries", before, pl.CachedArtifacts())
	}

	// The same key folds fine once the delta is corrected: errors did not
	// poison the chain position.
	good := &ipm.Delta{Version: 2, App: "x", Procs: 8, Seq: 0, Window: "step000"}
	if _, _, how, err := pl.FoldDelta(ctx, key, st, good); err != nil {
		t.Fatalf("corrected delta failed: %v", err)
	} else if how != Miss {
		t.Fatalf("corrected delta outcome %v, want miss", how)
	}
}

// wireOf is a delta's canonical wire object: what WriteJSON emits, less
// the encoder's trailing newline.
func wireOf(t testing.TB, d *ipm.Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(buf.Bytes())
}

// streamArtifacts serializes what a client can fetch of a folded stream.
func streamArtifacts(t *testing.T, st *trace.StreamState) (windows, assignment []byte) {
	t.Helper()
	windows, err := json.Marshal(st.Windows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := hfast.Assign(st.Steady(), st.Cutoff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if assignment, err = EncodeArtifact(StageAssign, a); err != nil {
		t.Fatal(err)
	}
	return windows, assignment
}

// TestFoldOneChain pins that the struct and wire entry points are one
// path: FoldDelta names a delta by its canonical bytes, so FoldWire on
// those bytes is a hit on the same key and state, while another encoding
// of the same delta chains under its own key to an equal state.
func TestFoldOneChain(t *testing.T) {
	p, err := apps.ProfileRun("cactus", apps.Config{Procs: 16, Steps: 3})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	pl := New(Options{})
	ctx := context.Background()
	seed := FoldSeed{Procs: p.Procs}
	structSt, structKey, _ := foldChain(t, pl, seed, ds)

	st, key, _, err := pl.FoldInit(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	cst, ckey := st, key
	for _, d := range ds {
		var how Outcome
		if st, key, how, err = pl.FoldWire(ctx, key, st, wireOf(t, d)); err != nil {
			t.Fatalf("wire delta %d: %v", d.Seq, err)
		} else if how != Hit {
			t.Fatalf("canonical wire delta %d outcome %v after FoldDelta, want hit", d.Seq, how)
		}
		var legacy bytes.Buffer // the indented layout the wire had before it went compact
		if err := json.Indent(&legacy, bytes.TrimSpace(wireOf(t, d)), "", " "); err != nil {
			t.Fatal(err)
		}
		legacy.WriteByte('\n')
		if cst, ckey, how, err = pl.FoldWire(ctx, ckey, cst, legacy.Bytes()); err != nil {
			t.Fatalf("legacy delta %d: %v", d.Seq, err)
		} else if how != Miss {
			t.Fatalf("legacy delta %d outcome %v, want miss", d.Seq, how)
		}
		if ckey == key {
			t.Fatalf("delta %d: two encodings share key %s", d.Seq, key)
		}
	}
	if key != structKey || st != structSt {
		t.Fatalf("wire chain ended at %s (%p), struct chain at %s (%p)", key, st, structKey, structSt)
	}
	wantW, wantA := streamArtifacts(t, structSt)
	gotW, gotA := streamArtifacts(t, cst)
	if !bytes.Equal(gotW, wantW) || !bytes.Equal(gotA, wantA) {
		t.Fatal("legacy encoding folded to different windows/assignment artifacts")
	}
}

// TestFoldWireErrorNotCached is TestFoldErrorNotCached for bytes: what
// fails to decode, to validate or to fold is returned and never stored.
func TestFoldWireErrorNotCached(t *testing.T) {
	pl := New(Options{})
	ctx := context.Background()
	st, key, _, err := pl.FoldInit(ctx, FoldSeed{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	before := pl.CachedArtifacts()
	for name, raw := range map[string]string{
		"syntax":        `{"Version":2,"Procs":8,]}`,
		"validate":      `{"Version":2,"App":"x","Procs":8,"Seq":0,"Window":"step000","Ranks":[{"Rank":8}]}`,
		"fold mismatch": `{"Version":2,"App":"x","Procs":4,"Seq":0,"Window":"step000"}`,
	} {
		for try := 0; try < 2; try++ {
			if _, _, how, err := pl.FoldWire(ctx, key, st, []byte(raw)); err == nil {
				t.Fatalf("%s: expected an error", name)
			} else if how == Hit {
				t.Fatalf("%s: error served from cache", name)
			}
		}
	}
	if pl.CachedArtifacts() != before {
		t.Fatalf("failed folds grew the cache from %d to %d entries", before, pl.CachedArtifacts())
	}
	good := `{"Version":2,"App":"x","Procs":8,"Seq":0,"Window":"step000"}`
	if _, _, how, err := pl.FoldWire(ctx, key, st, []byte(good)); err != nil || how != Miss {
		t.Fatalf("valid delta after the failures: outcome %v, err %v; want a miss", how, err)
	}
}

// TestFoldWireWarmAllocs pins that a hit never decodes: looking up a
// P=256 delta allocates a small constant (the key and its inputs), where
// decoding it allocates tens of thousands of times.
func TestFoldWireWarmAllocs(t *testing.T) {
	p, err := apps.ProfileRun("cactus", apps.Config{Procs: 256, Steps: 1})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	pl := New(Options{})
	ctx := context.Background()
	st, key, _, err := pl.FoldInit(ctx, FoldSeed{Procs: 256})
	if err != nil {
		t.Fatal(err)
	}
	raw := wireOf(t, ds[0])
	if _, _, _, err := pl.FoldWire(ctx, key, st, raw); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, how, err := pl.FoldWire(ctx, key, st, raw); err != nil || how != Hit {
			t.Fatalf("warm fold: outcome %v, err %v", how, err)
		}
	})
	if allocs > 16 {
		t.Fatalf("warm FoldWire of a %d KB delta allocates %.0f times, want <= 16", len(raw)>>10, allocs)
	}
}

// TestFoldSeedKeying checks that analysis parameters participate in the
// chain key: the same deltas folded under different cutoffs or window
// prefixes never share artifacts.
func TestFoldSeedKeying(t *testing.T) {
	pl := New(Options{})
	ctx := context.Background()
	_, k1, _, err := pl.FoldInit(ctx, FoldSeed{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, k2, _, err := pl.FoldInit(ctx, FoldSeed{Procs: 8, Cutoff: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	_, k3, _, err := pl.FoldInit(ctx, FoldSeed{Procs: 8, Prefix: "iter"})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Fatalf("distinct seeds share keys: %s %s %s", k1, k2, k3)
	}
	// Defaults normalize: an explicit default-equivalent seed shares the
	// zero seed's chain.
	_, k4, how, err := pl.FoldInit(ctx, FoldSeed{Procs: 8, Prefix: "step"})
	if err != nil {
		t.Fatal(err)
	}
	if k4 != k1 || how != Hit {
		t.Fatalf("normalized seed key %s (outcome %v), want %s (hit)", k4, how, k1)
	}
}

// TestFoldMatchesBatchArtifacts is the pipeline-layer parity check: the
// windows a stream folds from its wire bytes, by the pair scan
// (FoldPairs), serialize byte-identically to those trace.Replay folds
// from the merged profile's decoded deltas (Fold).
func TestFoldMatchesBatchArtifacts(t *testing.T) {
	p, err := apps.ProfileRun("gtc", apps.Config{Procs: 16, Steps: 3})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	pl := New(Options{})
	ctx := context.Background()
	st, key, _, err := pl.FoldInit(ctx, FoldSeed{Procs: p.Procs})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if st, key, _, err = pl.FoldWire(ctx, key, st, wireOf(t, d)); err != nil {
			t.Fatalf("fold delta %d: %v", d.Seq, err)
		}
	}
	merged, err := ipm.MergeDeltas(ds)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := trace.Replay(merged, "step", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(batch.Windows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(st.Windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Windows) != 3 || !bytes.Equal(want, got) {
		t.Fatalf("%d windows folded off the wire differ from the replay's %d (%d vs %d bytes)",
			len(st.Windows), len(batch.Windows), len(got), len(want))
	}
}

// TestFoldWireConcurrentMisses folds distinct streams through one
// pipeline, a goroutine each, so that misses in concurrent flights share
// the recycled pair lists. Then every state of every stream is held to
// the deltas it has folded, merged: the window graphs trace.Replay folds
// from them and the Steady graph the batch pipeline builds.
func TestFoldWireConcurrentMisses(t *testing.T) {
	type stream struct {
		ds     []*ipm.Delta
		states []*trace.StreamState
		err    error
	}
	var streams []*stream
	for _, app := range []string{"cactus", "gtc", "amr"} {
		for _, procs := range []int{8, 16} {
			p, err := apps.ProfileRun(app, apps.Config{Procs: procs, Steps: 3})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := ipm.SplitDeltas(p)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, &stream{ds: ds})
		}
	}
	pl := New(Options{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, s := range streams {
		raws := make([][]byte, len(s.ds))
		for i, d := range s.ds {
			raws[i] = wireOf(t, d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, key, _, err := pl.FoldInit(ctx, FoldSeed{Procs: s.ds[0].Procs})
			for _, raw := range raws {
				if err != nil {
					break
				}
				st, key, _, err = pl.FoldWire(ctx, key, st, raw)
				s.states = append(s.states, st)
			}
			s.err = err
		}()
	}
	wg.Wait()

	batch := New(Options{})
	encode := func(g *topology.Graph) string {
		b, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, s := range streams {
		if s.err != nil {
			t.Fatal(s.err)
		}
		for k, st := range s.states {
			merged, err := ipm.MergeDeltas(s.ds[:k+1])
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Supplied(merged)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := trace.Replay(merged, "step", 0)
			if err != nil {
				t.Fatal(err)
			}
			ws := replayed.Windows
			g, _, err := batch.Graph(ctx, ref, Steady())
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s P=%d after %d deltas", merged.App, merged.Procs, k+1)
			if len(st.Windows) != len(ws) {
				t.Fatalf("%s: %d windows folded, %d replayed", what, len(st.Windows), len(ws))
			}
			for i, w := range ws {
				if got := st.Windows[i]; got.Region != w.Region || encode(got.Graph) != encode(w.Graph) {
					t.Fatalf("%s: window %q's graph differs from the replay's", what, w.Region)
				}
			}
			if encode(st.Steady()) != encode(g) {
				t.Fatalf("%s: the Steady graph differs from batch", what)
			}
		}
	}
}
