package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
)

// replay folds a profile's delta decomposition through a fresh stream.
func replay(t *testing.T, p *ipm.Profile) *StreamState {
	t.Helper()
	s, err := Replay(p, "step", 0)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return s
}

// stepWindows is the batch oracle for a replay's windows: one window per
// "step" region of the profile, its graph built by FromProfile from that
// region alone, in program order.
func stepWindows(t *testing.T, p *ipm.Profile) []Window {
	t.Helper()
	seen := map[string]bool{}
	var names []string
	p.Visit(ipm.AllRegions, func(_ int, e ipm.Entry) {
		if r := e.Key.Region; strings.HasPrefix(r, "step") && !seen[r] {
			seen[r] = true
			names = append(names, r)
		}
	})
	slices.SortFunc(names, ipm.CompareRegions)
	ws := make([]Window, len(names))
	for i, name := range names {
		g, err := topology.FromProfile(p, ipm.Region(name))
		if err != nil {
			t.Fatalf("batch window %q: %v", name, err)
		}
		ws[i] = Window{Region: name, Graph: g, Stats: g.Stats(topology.DefaultCutoff)}
	}
	return ws
}

// TestFoldMatchesBatch pins streaming parity at the trace layer for every
// skeleton: folding a profile's deltas yields the window stream a
// per-region batch extraction builds and the steady-state graph
// FromProfile builds, compared on canonical JSON.
func TestFoldMatchesBatch(t *testing.T) {
	for _, app := range append(apps.Names(), "amr") {
		t.Run(app, func(t *testing.T) {
			p, err := apps.ProfileRun(app, apps.Config{Procs: 16, Steps: 4})
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			s := replay(t, p)

			wantJSON, err := json.Marshal(stepWindows(t, p))
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
			gotGJ, _ := json.Marshal(s.Steady())
			if !bytes.Equal(wantGJ, gotGJ) {
				t.Fatalf("folded steady graph differs from FromProfile")
			}
		})
	}
}

// TestReplayRefusesMalformedProfiles: a profile with no ranks to fold
// over, or with a rank outside its proc count, is an error, not a stream.
func TestReplayRefusesMalformedProfiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *ipm.Profile
		want string
	}{
		{"no procs", &ipm.Profile{App: "x"}, "non-positive proc count 0"},
		{"rank out of range", &ipm.Profile{App: "x", Procs: 4, Ranks: []ipm.RankProfile{{Rank: 7}}}, "rank 7 out of range"},
	} {
		if s, err := Replay(tc.p, "step", 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: replay %v, error %v; want one naming %q", tc.name, s, err, tc.want)
		}
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
	s, err := NewStreamState(p.Procs, 0, "step")
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

// TestSteadyOncePerSnapshot pins Steady's memo to its snapshot: one graph
// however many ask, concurrently or not; a graph of its own for the
// successor, whose building leaves the predecessor's as it was; and for
// the empty state an empty graph over the stream's ranks.
func TestSteadyOncePerSnapshot(t *testing.T) {
	p, err := apps.ProfileRun("amr", apps.Config{Procs: 16, Steps: 4})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamState(p.Procs, 0, "step")
	if err != nil {
		t.Fatal(err)
	}
	if g := s.Steady(); g == nil || g.P != p.Procs || g.EdgeCount() != 0 {
		t.Fatalf("the empty state's steady graph is %+v, want no edges over %d ranks", g, p.Procs)
	}
	for _, d := range ds[:len(ds)-1] {
		if s, err = s.Fold(d); err != nil {
			t.Fatalf("fold %q: %v", d.Window, err)
		}
	}
	start := make(chan struct{})
	got := make([]*topology.Graph, 4)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[k] = s.Steady()
		}()
	}
	close(start)
	wg.Wait()
	one := s.Steady()
	if s.Steady() != one {
		t.Fatal("two calls on one snapshot built two graphs")
	}
	for k, g := range got {
		if g != one {
			t.Fatalf("goroutine %d got another graph than the snapshot's", k)
		}
	}
	before, _ := json.Marshal(one)
	next, err := s.Fold(ds[len(ds)-1])
	if err != nil {
		t.Fatal(err)
	}
	if next.Steady() == one {
		t.Fatal("the successor shares its predecessor's steady graph")
	}
	if after, _ := json.Marshal(one); !bytes.Equal(before, after) || one.TotalBytes() >= next.Steady().TotalBytes() {
		t.Fatalf("the successor's union changed its predecessor's, or added nothing to it")
	}
}

// TestFoldAllocsIndependentOfSteady: a fold pays for its own window — the
// graph FromProfile builds and the open phase's copy the detector makes —
// and a few kilobytes of bookkeeping, not for a copy of everything folded
// before it.
func TestFoldAllocsIndependentOfSteady(t *testing.T) {
	p, err := apps.ProfileRun("amr", apps.Config{Procs: 64})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	last := ds[len(ds)-1]
	if !strings.HasPrefix(last.Window, "step") {
		t.Fatalf("the last delta is window %q, want a step", last.Window)
	}
	s, err := NewStreamState(p.Procs, 0, "step")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds[:len(ds)-1] {
		if s, err = s.Fold(d); err != nil {
			t.Fatalf("fold %q: %v", d.Window, err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var next *StreamState
	var window, clone *topology.Graph
	fold := allocated(func() { next, err = s.Fold(last) })
	if err != nil {
		t.Fatal(err)
	}
	build := allocated(func() { window, err = topology.FromProfile(last.AsProfile(), ipm.Region(last.Window)) })
	if err != nil {
		t.Fatal(err)
	}
	copied := allocated(func() { clone = next.CurrentPhaseGraph().Clone() })
	const slack = 4 << 10
	t.Logf("window %q: Fold %d B, FromProfile %d B, open-phase copy %d B", last.Window, fold, build, copied)
	if fold > build+copied+slack {
		t.Fatalf("Fold allocated %d B for window %q; its graph takes %d B, the open phase's copy %d B, slack %d B",
			fold, last.Window, build, copied, slack)
	}
	if window.EdgeCount() == 0 || clone.EdgeCount() == 0 || s.Steady().EdgeCount() <= window.EdgeCount() {
		t.Fatal("the test needs a window with traffic and a steady union larger than it")
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
	var d detector
	for k, w := range ws {
		d, _, _ = d.step(k, w.Graph, topology.DefaultCutoff)
	}
	phases := d.phases(len(ws))
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

// TestReplayPhasesMatchDetector holds a replay's phases to the automaton
// driven directly over the batch windows: folding the run's deltas one at
// a time yields the phase list the detector's steps compute over windows
// built region by region.
func TestReplayPhasesMatchDetector(t *testing.T) {
	p, err := apps.ProfileRun("amr", apps.Config{Procs: 32, Steps: 8})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ws := stepWindows(t, p)
	var d detector
	for k, w := range ws {
		d, _, _ = d.step(k, w.Graph, topology.DefaultCutoff)
	}
	want := d.phases(len(ws))
	got := replay(t, p).Phases()
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
	for _, ph := range replay(t, p).Phases() {
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
	s, err := NewStreamState(8, 0, "step")
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
		s := replay(t, p)
		blob, err := json.Marshal(struct {
			Windows []Window
			Steady  *topology.Graph
			Phases  []Phase
			Last    FoldEvent
		}{s.Windows, s.Steady(), s.Phases(), s.Last})
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
// ("step1000" < "step101"): SplitDeltas must cut the run into deltas whose
// step windows come in program order, so that the stream folds, and the
// folded windows must come out step by step.
func TestLongRunKeepsProgramOrder(t *testing.T) {
	const steps = 1002
	cfg := apps.Config{Procs: 8, Steps: steps}
	p, err := apps.ProfileRun("cactus", cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	split, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	for i, d := range split {
		if d.Seq != i {
			t.Fatalf("split delta %d carries seq %d", i, d.Seq)
		}
		if strings.HasPrefix(d.Window, "step") {
			if want := fmt.Sprintf("step%03d", step); d.Window != want {
				t.Fatalf("split delta %d is window %q, want %q", i, d.Window, want)
			}
			step++
		}
	}
	s, err := NewStreamState(cfg.Procs, 0, "step")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range split {
		if s, err = s.Fold(d); err != nil {
			t.Fatalf("folding the split stream: %v", err)
		}
	}
	if step != steps || len(s.Windows) != steps {
		t.Fatalf("split %d step windows and folded %d, want %d", step, len(s.Windows), steps)
	}
	for i, w := range s.Windows {
		if want := fmt.Sprintf("step%03d", i); w.Region != want {
			t.Fatalf("folded window %d is %q, want %q", i, w.Region, want)
		}
	}
}
