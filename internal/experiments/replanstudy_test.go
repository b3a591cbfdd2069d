package experiments

import "testing"

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
