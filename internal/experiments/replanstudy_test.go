package experiments

import (
	"reflect"
	"testing"

	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/pipeline"
)

// TestReplayPhasedApp replays amr, whose refined patch migrates every
// quarter of the run: the replay splits its eight windows into four
// phases, each provisioning other partner lists than the one before, and
// it reads the cached profile alone, never the steady-state graph stage.
func TestReplayPhasedApp(t *testing.T) {
	r := NewRunner(8)
	for range 2 {
		st, err := r.Replay("amr", 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Windows) != 8 {
			t.Fatalf("replayed %d windows, want 8", len(st.Windows))
		}
		for _, w := range st.Windows {
			if w.Stats.Max == 0 {
				t.Errorf("window %q has no partners above the cutoff", w.Region)
			}
		}
		var prev *hfast.Assignment
		for k, ph := range st.Phases() {
			if ph.Start != 2*k || ph.End != 2*k+2 {
				t.Fatalf("phase %d spans windows [%d,%d), want [%d,%d)", k, ph.Start, ph.End, 2*k, 2*k+2)
			}
			a, err := hfast.Assign(ph.Graph, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && reflect.DeepEqual(prev.Partners, a.Partners) {
				t.Errorf("phase %d provisions the partner lists of phase %d", k, k-1)
			}
			prev = a
		}
		if st.NumPhases() != 4 {
			t.Fatalf("replay detected %d phases, want 4", st.NumPhases())
		}
	}
	m := r.Pipeline().Metrics()
	if prof := m.Stage(pipeline.StageProfile); prof.Misses != 1 || prof.Hits != 1 {
		t.Errorf("two replays: %d profile misses and %d hits, want 1 and 1", prof.Misses, prof.Hits)
	}
	if g := m.Stage(pipeline.StageGraph); g.Misses+g.Hits != 0 {
		t.Errorf("a replay asked the graph stage %d times", g.Misses+g.Hits)
	}
}

// TestReplanReplaysEachInputOnce pins the replan study at P=64 as
// -t replan runs it, clock-free: each app's replays resolve through the
// store by (plan, window), so the build count is the number of distinct
// inputs, not two per window. Five one-phase apps repeat one window on
// one plan (their static and phase plans encode the same bytes);
// superlu has eight distinct windows on its one plan; amr's sixteen
// replays over four phases hold eight distinct inputs. A regression to
// per-call replays fails here by name.
func TestReplanReplaysEachInputOnce(t *testing.T) {
	r := NewRunner(0)
	names := append(append([]string{}, PaperApps...), "amr")
	wantBuilds := map[string]uint64{
		"cactus": 1, "lbmhd": 1, "gtc": 1, "superlu": 8, "pmemd": 1, "paratec": 1, "amr": 8,
	}
	for _, app := range names {
		before := r.Pipeline().Metrics().Stage("replan-replay").Builds
		rows, err := ReplanRows(r, []string{app}, 64, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		row := rows[0]
		if got := r.Pipeline().Metrics().Stage("replan-replay").Builds - before; got != wantBuilds[app] {
			t.Errorf("%s: %d replay builds, want %d", app, got, wantBuilds[app])
		}
		if app == "amr" {
			if row.Phases != 4 || row.StaticBlocks != 64 || row.StaticDropped != 343 || row.PortMoves != 2784 {
				t.Errorf("amr: phases %d, static blocks %d, dropped %d, port moves %d; want 4, 64, 343, 2784",
					row.Phases, row.StaticBlocks, row.StaticDropped, row.PortMoves)
			}
			continue
		}
		if row.Phases != 1 {
			t.Errorf("%s: %d phases, want 1", app, row.Phases)
		}
		if row.StaticMakespan != row.ReplanMakespan {
			t.Errorf("%s: static makespan %v, replanned %v: one phase must replay identically",
				app, row.StaticMakespan, row.ReplanMakespan)
		}
	}
}
