package apps

import (
	"bytes"
	"testing"

	"github.com/hfast-sim/hfast/internal/ipm"
)

// TestStreamRunMatchesBatch pins the stream a client sends for a real
// skeleton run against the batch profile: SplitDeltas of the run, each
// delta through the wire and back, merges with MergeDeltas into the batch
// profile byte for byte. deltaTestProfile pins the same round trip on a
// synthetic profile; these are the region-per-step shapes hfastd sees.
func TestStreamRunMatchesBatch(t *testing.T) {
	for _, app := range []string{"cactus", "amr"} {
		t.Run(app, func(t *testing.T) {
			batch, err := ProfileRun(app, Config{Procs: 16, Steps: 4})
			if err != nil {
				t.Fatal(err)
			}
			deltas, err := ipm.SplitDeltas(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range deltas {
				var wire bytes.Buffer
				if err := d.WriteJSON(&wire); err != nil {
					t.Fatal(err)
				}
				if deltas[i], err = ipm.DecodeDelta(wire.Bytes()); err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
				if deltas[i].Seq != i {
					t.Fatalf("delta %d carries seq %d", i, deltas[i].Seq)
				}
			}
			merged, err := ipm.MergeDeltas(deltas)
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			var want, got bytes.Buffer
			if err := batch.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if err := merged.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("merged stream differs from batch profile (%d vs %d bytes)", got.Len(), want.Len())
			}
		})
	}
}

// TestStreamEmitsWindowsInProgramOrder checks the ordering contract of the
// stream a region-per-timestep skeleton sends: SplitDeltas of the run
// yields "init" first, then the steps in program order, each window once.
// The outside-region remainder, if the run has one, is the only other
// window.
func TestStreamEmitsWindowsInProgramOrder(t *testing.T) {
	p, err := ProfileRun("cactus", Config{Procs: 8, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	var windows, regions []string
	for _, d := range deltas {
		windows = append(windows, d.Window)
		if d.Window != "" {
			regions = append(regions, d.Window)
		}
	}
	want := []string{"init", "step000", "step001", "step002"}
	if len(regions) != len(want) {
		t.Fatalf("got region windows %v, want %v (full order %q)", regions, want, windows)
	}
	for i, w := range want {
		if regions[i] != w {
			t.Fatalf("region window %d = %q, want %q (full order %q)", i, regions[i], w, windows)
		}
	}
	if extra := len(windows) - len(regions); extra > 1 {
		t.Fatalf("%d outside-region windows, want at most one (full order %q)", extra, windows)
	}
}

// TestAMRPartnersMigrate pins the adaptive skeleton's defining property:
// consecutive phases share only the mesh backbone, so the fine-level
// partner sets of different phases are disjoint.
func TestAMRPartnersMigrate(t *testing.T) {
	p := 32
	seen := map[int]int{} // offset class → first phase
	for ph := 0; ph < 4; ph++ {
		offs := amrOffsets(p, ph, 0)
		if len(offs) != 4 {
			t.Fatalf("phase %d: got %d offsets, want 4", ph, len(offs))
		}
		for _, off := range offs {
			if off < 2 || off > p-2 {
				t.Fatalf("phase %d: offset %d outside [2,%d]", ph, off, p-2)
			}
			class := off
			if p-off < class {
				class = p - off
			}
			if prev, ok := seen[class]; ok && prev == ph-1 {
				t.Fatalf("phase %d reuses offset class %d from phase %d", ph, class, prev)
			}
			seen[class] = ph
		}
	}
}
