package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
	"github.com/hfast-sim/hfast/internal/trace"
)

// refFold is a fold miss with the pair scan taken out: every delta is
// decoded whole and folded by Fold, the path that words every error.
func refFold(prev *trace.StreamState, raw []byte) (*trace.StreamState, error) {
	d, err := ipm.DecodeDelta(raw)
	if err != nil {
		return nil, err
	}
	ns, err := prev.Fold(d)
	if err != nil {
		return nil, fmt.Errorf("pipeline: fold delta %d (%q): %w", d.Seq, d.Window, err)
	}
	return ns, nil
}

// agreeFold folds raw into prev through an empty pipeline's FoldWire and
// through refFold, and fails unless both return the same error or equal
// states. It returns FoldWire's error.
func agreeFold(t *testing.T, prev *trace.StreamState, raw []byte) error {
	t.Helper()
	pl := New(Options{})
	ctx := context.Background()
	_, key, _, err := pl.FoldInit(ctx, FoldSeed{Procs: prev.Procs})
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, gotErr := pl.FoldWire(ctx, key, prev, raw)
	want, wantErr := refFold(prev, raw)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("FoldWire error %v, decode-then-Fold's %v", gotErr, wantErr)
		}
		return gotErr
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("FoldWire and decode-then-Fold folded different states")
	}
	return nil
}

// TestFoldWireErrorParity edits one delta of a cactus stream at a time
// into each way a delta can fail: the error FoldWire returns is the one
// decoding the delta whole and folding it returns, whether the pair scan
// read it (scanned) or declined it. The legacy layout and "Ranks":null
// fold, by either path, to the same state.
func TestFoldWireErrorParity(t *testing.T) {
	p, err := apps.ProfileRun("cactus", apps.Config{Procs: 8, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2 // a step delta with one step folded before it
	if !strings.HasPrefix(ds[k].Window, "step") || !strings.HasPrefix(ds[k-1].Window, "step") {
		t.Fatalf("deltas %d and %d are %q and %q, want steps", k-1, k, ds[k-1].Window, ds[k].Window)
	}
	prev, err := trace.NewStreamState(p.Procs, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds[:k] {
		if prev, err = prev.Fold(d); err != nil {
			t.Fatal(err)
		}
	}
	g := string(wireOf(t, ds[k]))
	edit := func(old, new string) string {
		t.Helper()
		if !strings.Contains(g, old) {
			t.Fatalf("delta has no %q to edit", old)
		}
		return strings.Replace(g, old, new, 1)
	}
	var legacy bytes.Buffer
	if err := json.Indent(&legacy, []byte(g), "", " "); err != nil {
		t.Fatal(err)
	}
	ranksNull := g[:strings.Index(g, `"Ranks":`)] + `"Ranks":null}`
	window := fmt.Sprintf(`"Window":%q`, ds[k].Window)
	const scanned, declined, folds, fails = true, false, true, false
	for _, c := range []struct {
		name     string
		raw      string
		scan, ok bool
	}{
		{"canonical", g, scanned, folds},
		{"legacy layout", legacy.String(), scanned, folds},
		{"Ranks null", ranksNull, scanned, folds},
		{"version 3", edit(`"Version":2`, `"Version":3`), declined, fails},
		{"Procs 9", edit(`"Procs":8`, `"Procs":9`), declined, fails},
		{"Procs 7", edit(`"Procs":8`, `"Procs":7`), declined, fails},
		{"Procs 1<<40", edit(`"Procs":8`, `"Procs":1099511627776`), declined, fails},
		{"rank 8", edit(`{"Rank":7,`, `{"Rank":8,`), declined, fails},
		{"ranks unsorted", edit(`{"Rank":1,`, `{"Rank":5,`), declined, fails},
		{"rank repeated", edit(`{"Rank":2,`, `{"Rank":1,`), declined, fails},
		{"another app", edit(`"App":"cactus"`, `"App":"gtc"`), scanned, fails},
		{"seq gap", edit(fmt.Sprintf(`"Seq":%d`, k), fmt.Sprintf(`"Seq":%d`, k+1)), scanned, fails},
		{"step out of order", edit(window, fmt.Sprintf(`"Window":%q`, ds[k-1].Window)), scanned, fails},
		{"peer 8", strings.ReplaceAll(g, `"Peer":1,`, `"Peer":8,`), scanned, fails},
		{"Time 1e309", regexp.MustCompile(`"Time":[^}]*`).ReplaceAllString(g, `"Time":1e309`), declined, fails},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, _, ok := ipm.DecodeDeltaPairs([]byte(c.raw), prev.Procs, nil); ok != c.scan {
				t.Errorf("pair scan read it: %v, want %v", ok, c.scan)
			}
			if err := agreeFold(t, prev, []byte(c.raw)); (err == nil) != c.ok {
				t.Errorf("fold error %v, want success %v", err, c.ok)
			}
		})
	}
}

// TestFoldWireHostileGrowth folds a 1024-rank delta whose rank 0 sends to
// 20 000 peers outside the world: the fold allocates a bounded multiple of
// the delta, not its pair count times its rank count, before refusing it.
func TestFoldWireHostileGrowth(t *testing.T) {
	const procs, peers = 1024, 20000
	d := &ipm.Delta{Version: ipm.SchemaVersion, App: "x", Procs: procs, Window: "step000", Ranks: make([]ipm.RankProfile, procs)}
	for r := range d.Ranks {
		d.Ranks[r].Rank = r
	}
	d.Ranks[0].Entries = make([]ipm.Entry, peers)
	for k := range d.Ranks[0].Entries {
		d.Ranks[0].Entries[k] = ipm.Entry{
			Key:  ipm.Key{Call: mpi.CallSend, Bytes: 8, Peer: procs + k, Region: "step000"},
			Stat: ipm.Stat{Count: 1, TotalBytes: 8, MaxBytes: 8},
		}
	}
	raw := wireOf(t, d)
	pl := New(Options{})
	ctx := context.Background()
	st, key, _, err := pl.FoldInit(ctx, FoldSeed{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = pl.FoldWire(ctx, key, st, raw)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 32<<20 {
		t.Errorf("FoldWire allocated %d MB for a %d KB delta", n>>20, len(raw)>>10)
	}
	if err == nil || !strings.Contains(err.Error(), "topology: pair (0,1024) out of range") {
		t.Fatalf("FoldWire error %v, want pair (0,1024) out of range", err)
	}
	if _, want := refFold(st, raw); want == nil || err.Error() != want.Error() {
		t.Fatalf("FoldWire error %v, decode-then-Fold's %v", err, want)
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// foldMissBudget is what folding each stream through an empty pipeline
// may allocate: hashing, keys and cache entries, the pair scan, graphs,
// windows and the detector, every link a miss. Each ceiling is 1.1× what
// was measured when it was set (Go 1.24, linux/amd64), when a miss came
// to build its window graph in one exact block and recycle its pair
// list: kb in KB for the whole stream, objects per delta on average.
var foldMissBudget = []struct {
	app         string
	procs       int
	kb, objects uint64
}{
	{"cactus", 64, 285, 44},
	{"cactus", 256, 1205, 44},
	{"amr", 64, 552, 44},
}

// TestFoldMissAllocBudget holds the cold fold of a stream's wire bytes to
// committed byte and object ceilings: a clock-free gate on what a
// stream_ingest fold allocates, where the object count catches an
// allocation per rank that the bytes would hide. The chain is a function
// of the bytes, so its counts repeat; the test holds still what could
// move them anyway (one P, no collection, no race detector) and measures
// the second fold.
func TestFoldMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	for _, sh := range foldMissBudget {
		t.Run(fmt.Sprintf("%s/P%d", sh.app, sh.procs), func(t *testing.T) {
			p, err := apps.ProfileRun(sh.app, apps.Config{Procs: sh.procs})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := ipm.SplitDeltas(p)
			if err != nil {
				t.Fatal(err)
			}
			raws := make([][]byte, len(ds))
			for i, d := range ds {
				raws[i] = wireOf(t, d)
			}
			var alloc, objects uint64
			for i := 0; i < 2; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				pl := New(Options{})
				st, key, _, err := pl.FoldInit(ctx, FoldSeed{Procs: sh.procs})
				for _, raw := range raws {
					if err != nil {
						break
					}
					st, key, _, err = pl.FoldWire(ctx, key, st, raw)
				}
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				alloc, objects = after.TotalAlloc-before.TotalAlloc, (after.Mallocs-before.Mallocs)/uint64(len(raws))
			}
			t.Logf("%d KB and %d objects per delta for %d deltas (ceilings %d KB, %d objects)", alloc/1024, objects, len(raws), sh.kb, sh.objects)
			if alloc > sh.kb*1024 {
				t.Errorf("%s P=%d: a cold fold of the stream allocates %d KB, over its %d KB ceiling", sh.app, sh.procs, alloc/1024, sh.kb)
			}
			if objects > sh.objects {
				t.Errorf("%s P=%d: a cold fold allocates %d objects per delta, over its ceiling of %d", sh.app, sh.procs, objects, sh.objects)
			}
		})
	}
}
