package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
)

// foldAll folds a profile's delta decomposition through a fresh stream.
func foldAll(t *testing.T, p *ipm.Profile, det DetectorConfig) *StreamState {
	t.Helper()
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	s, err := NewStreamState(p.Procs, 0, "step", det)
	if err != nil {
		t.Fatalf("new stream: %v", err)
	}
	for _, d := range ds {
		if s, err = s.Fold(d); err != nil {
			t.Fatalf("fold %q: %v", d.Window, err)
		}
	}
	return s
}

// TestFoldMatchesBatch pins streaming parity at the trace layer: folding
// a profile's deltas yields the same window stream as the batch Windows
// extraction and the same steady-state graph as FromProfile, compared on
// canonical JSON.
func TestFoldMatchesBatch(t *testing.T) {
	for _, app := range []string{"cactus", "gtc", "amr"} {
		t.Run(app, func(t *testing.T) {
			p, err := apps.ProfileRun(app, apps.Config{Procs: 16, Steps: 4})
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			s := foldAll(t, p, DetectorConfig{})

			wantWs, err := Windows(p, "step", 0)
			if err != nil {
				t.Fatalf("batch windows: %v", err)
			}
			wantJSON, err := json.Marshal(wantWs)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(s.Windows)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("folded windows differ from batch extraction (%d vs %d bytes)", len(gotJSON), len(wantJSON))
			}

			wantG, err := topology.FromProfile(p, ipm.SteadyState)
			if err != nil {
				t.Fatalf("batch graph: %v", err)
			}
			wantGJ, _ := json.Marshal(wantG)
			gotGJ, _ := json.Marshal(s.Steady)
			if !bytes.Equal(wantGJ, gotGJ) {
				t.Fatalf("folded steady graph differs from FromProfile")
			}
		})
	}
}

// TestOpportunityPerSnapshot pins the memo to its snapshot: every prefix
// state of a stream answers with the analysis of its own windows — asked
// before and after its successor exists, from several goroutines at once
// for the race detector — and counts its phases as Phases() lists them.
func TestOpportunityPerSnapshot(t *testing.T) {
	p, err := apps.ProfileRun("amr", apps.Config{Procs: 16, Steps: 6})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamState(p.Procs, 0, "step", DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	states := []*StreamState{s}
	for _, d := range ds {
		if _, err := s.Opportunity(); err != nil { // the predecessor's memo is filled before Fold copies it
			t.Fatal(err)
		}
		if s, err = s.Fold(d); err != nil {
			t.Fatalf("fold %q: %v", d.Window, err)
		}
		states = append(states, s)
	}
	var wg sync.WaitGroup
	for k, s := range states {
		want, err := AnalyzeWindows(s.Procs, s.Windows, s.Cutoff)
		if err != nil {
			t.Fatal(err)
		}
		if want.Windows != len(s.Windows) || s.NumPhases() != len(s.Phases()) {
			t.Fatalf("state %d: %d windows analyzed of %d, NumPhases %d of %d", k, want.Windows, len(s.Windows), s.NumPhases(), len(s.Phases()))
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(k int, s *StreamState) {
				defer wg.Done()
				if got, err := s.Opportunity(); err != nil || got != want {
					t.Errorf("state %d: Opportunity() = %+v, %v; want %+v", k, got, err, want)
				}
			}(k, s)
		}
	}
	wg.Wait()
	if last := states[len(states)-1]; last.NumPhases() < 2 {
		t.Fatalf("amr stream closed %d phases; the test needs a boundary", last.NumPhases())
	}
}

// synthWindow builds a window whose above-cutoff partner edges are the
// given ring offsets over procs ranks.
func synthWindow(t *testing.T, region string, procs int, offsets []int) Window {
	t.Helper()
	g, err := topology.NewGraph(procs)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range offsets {
		for i := 0; i < procs; i++ {
			g.AddTraffic(i, (i+off)%procs, 1, 8192, 8192)
		}
	}
	return Window{Region: region, Graph: g, Stats: g.Stats(topology.DefaultCutoff)}
}

// TestDetectorHysteresis walks the detector through a phase change and a
// noise window: the boundary fires once on a large partner-set jump, the
// disarmed detector ignores an immediately following jump, and it re-arms
// only after the distance falls below the exit threshold.
func TestDetectorHysteresis(t *testing.T) {
	const procs = 32
	ws := []Window{
		synthWindow(t, "step000", procs, []int{2, 3}),         // opens phase 0
		synthWindow(t, "step001", procs, []int{2, 3}),         // identical: stays
		synthWindow(t, "step002", procs, []int{7, 9}),         // jump: boundary, disarms
		synthWindow(t, "step003", procs, []int{13, 15}),       // jump while disarmed: ignored
		synthWindow(t, "step004", procs, []int{7, 9, 13, 15}), // matches phase aggregate: re-arms
		synthWindow(t, "step005", procs, []int{4, 5}),         // jump: boundary
	}
	phases, err := DetectPhases(procs, ws, 0, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3: %+v", len(phases), phases)
	}
	wantStarts := []int{0, 2, 5}
	for i, ph := range phases {
		if ph.Start != wantStarts[i] {
			t.Fatalf("phase %d starts at window %d, want %d", i, ph.Start, wantStarts[i])
		}
	}
	// The disarmed jump at step003 must NOT have opened a phase: windows
	// 2-4 belong to one phase despite the partner change inside it.
	if phases[1].End != 5 {
		t.Fatalf("phase 1 ends at %d, want 5 (disarmed jump swallowed)", phases[1].End)
	}
}

// TestStreamFoldMatchesDetectPhases holds the two drivers of the phase
// automaton to each other: folding window deltas one at a time yields the
// phase list DetectPhases computes over the full slice.
func TestStreamFoldMatchesDetectPhases(t *testing.T) {
	p, err := apps.ProfileRun("amr", apps.Config{Procs: 32, Steps: 8})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	s := foldAll(t, p, DetectorConfig{})
	ws, err := Windows(p, "step", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DetectPhases(p.Procs, ws, 0, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Phases()
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if !bytes.Equal(wj, gj) {
		t.Fatalf("streamed phases differ from batch detection:\nbatch:  %s\nstream: %s", wj, gj)
	}
	if len(got) < 2 {
		t.Fatalf("amr run detected %d phases, want at least 2", len(got))
	}
}

// TestAMRPhasesPinned holds the automaton to absolute values: the two
// callers compared above share one step function, so their agreement says
// nothing about what it computes. amr at P=64 over 8 steps migrates its
// refined patch every two steps.
func TestAMRPhasesPinned(t *testing.T) {
	p, err := apps.ProfileRun("amr", apps.Config{Procs: 64, Steps: 8})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	type phase struct{ start, end, edges int }
	want := []phase{{0, 2, 352}, {2, 4, 400}, {4, 6, 400}, {6, 8, 304}}
	var got []phase
	for _, ph := range foldAll(t, p, DetectorConfig{}).Phases() {
		got = append(got, phase{ph.Start, ph.End, ph.Graph.EdgeCount()})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("amr/64 phases (start, end, edges) = %v, want %v", got, want)
	}
}

// TestFoldRejectsMismatches covers the stream's single-source-of-truth
// validation: procs mismatches, app mixing, and out-of-order deltas are
// errors, never silent truncation.
func TestFoldRejectsMismatches(t *testing.T) {
	s, err := NewStreamState(8, 0, "step", DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fold(&ipm.Delta{Version: 2, App: "x", Procs: 4, Seq: 0, Window: "step000"}); err == nil {
		t.Fatal("expected procs-mismatch error")
	}
	s, err = s.Fold(&ipm.Delta{Version: 2, App: "x", Procs: 8, Seq: 0, Window: "step000"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fold(&ipm.Delta{Version: 2, App: "y", Procs: 8, Seq: 1, Window: "step001"}); err == nil {
		t.Fatal("expected app-mixing error")
	}
	if _, err := s.Fold(&ipm.Delta{Version: 2, App: "x", Procs: 8, Seq: 5, Window: "step001"}); err == nil {
		t.Fatal("expected out-of-order seq error")
	}
	if _, err := s.Fold(&ipm.Delta{Version: 2, App: "x", Procs: 8, Seq: 1, Window: "step000"}); err == nil {
		t.Fatal("expected out-of-order window error")
	}
}

// TestAnalyzeWindowsProcsMismatch is the regression test for the old
// redundant-procs API hazard: callers passed procs alongside windows, and
// a mismatch silently produced nonsense. It is now an error.
func TestAnalyzeWindowsProcsMismatch(t *testing.T) {
	ws := []Window{synthWindow(t, "step000", 16, []int{2})}
	if _, err := AnalyzeWindows(16, ws, 0); err != nil {
		t.Fatalf("matching procs should analyze: %v", err)
	}
	if _, err := AnalyzeWindows(32, ws, 0); err == nil {
		t.Fatal("expected error when procs disagrees with the windows' rank count")
	}
}

// TestPhaseDeterminism pins the streaming analysis's run-to-run byte
// stability: two folds of the same profile, one at GOMAXPROCS=1 and one
// at 4, give identical windows, steady graph, and detected phases.
func TestPhaseDeterminism(t *testing.T) {
	run := func() []byte {
		p, err := apps.ProfileRun("amr", apps.Config{Procs: 64, Steps: 8})
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
		s := foldAll(t, p, DetectorConfig{})
		blob, err := json.Marshal(struct {
			Windows []Window
			Steady  *topology.Graph
			Phases  []Phase
			Last    FoldEvent
		}{s.Windows, s.Steady, s.Phases(), s.Last})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(4)
	four := run()
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(one, four) {
		t.Fatalf("phase analysis differs across GOMAXPROCS (%d vs %d bytes)", len(one), len(four))
	}
}

// TestLongRunKeepsProgramOrder runs past step999, where the step regions'
// three-digit padding ends and sorted names stop being program order
// ("step1000" < "step101"): the live stream must fold, the batch windows
// must come out step by step, and SplitDeltas must number the windows as
// the live run emitted them.
func TestLongRunKeepsProgramOrder(t *testing.T) {
	const steps = 1002
	cfg := apps.Config{Procs: 8, Steps: steps}
	var live []*ipm.Delta
	if _, err := apps.StreamRunContext(context.Background(), "cactus", cfg, func(d *ipm.Delta) { live = append(live, d) }); err != nil {
		t.Fatalf("stream run: %v", err)
	}
	s, err := NewStreamState(cfg.Procs, 0, "step", DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range live {
		if s, err = s.Fold(d); err != nil {
			t.Fatalf("folding the live stream: %v", err)
		}
	}
	if len(s.Windows) != steps {
		t.Fatalf("live stream folded %d step windows, want %d", len(s.Windows), steps)
	}

	p, err := apps.ProfileRun("cactus", cfg)
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	ws, err := Windows(p, "step", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != steps {
		t.Fatalf("batch extracted %d windows, want %d", len(ws), steps)
	}
	for i, w := range ws {
		if want := apps.StepRegion(i); w.Region != want {
			t.Fatalf("batch window %d is %q, want %q", i, w.Region, want)
		}
	}

	split, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(split) != len(live) {
		t.Fatalf("SplitDeltas cut %d deltas, the live run emitted %d", len(split), len(live))
	}
	for i, d := range split {
		if d.Seq != i || d.Window != live[i].Window {
			t.Fatalf("split delta %d is seq %d window %q; the live run emitted %q there", i, d.Seq, d.Window, live[i].Window)
		}
	}
}
