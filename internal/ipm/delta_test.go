package ipm

import (
	"bytes"
	"testing"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// deltaTestProfile builds a small multi-region profile exercising every
// wire feature: several ranks, several regions (init, two steps, and
// outside-region traffic), spill counts, and an idle rank.
func deltaTestProfile() *Profile {
	entry := func(region string, peer, bytes int) Entry {
		return Entry{
			Key:  Key{Call: mpi.CallIsend, Bytes: bytes, Peer: peer, Region: region},
			Stat: Stat{Count: 2, TotalBytes: int64(2 * bytes), MaxBytes: bytes, Time: 0.5},
		}
	}
	return &Profile{
		App:    "synthetic",
		Procs:  3,
		Params: map[string]int{"steps": 2, "scale": 5},
		Ranks: []RankProfile{
			{Rank: 0, Entries: []Entry{
				entry("", 1, 64),
				entry("init", 1, 256),
				entry("step000", 1, 4096),
				entry("step001", 2, 4096),
			}, Spilled: 2},
			{Rank: 1, Entries: []Entry{
				entry("init", 0, 256),
				entry("step000", 0, 4096),
				entry("step001", 2, 8192),
			}},
			{Rank: 2},
		},
	}
}

// TestDeltaGoldenWireFormat pins the v2 Delta wire format the same way
// the profile goldens pin v1: the committed golden deltas, legacy and
// compact, must decode and re-encode to the compact one byte for byte.
func TestDeltaGoldenWireFormat(t *testing.T) {
	old, canon := goldenPair(t, "delta_v2.golden.json", "delta_v2.compact.golden.json")
	for _, golden := range [][]byte{old, canon} {
		d, err := ReadDeltaJSON(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("decoding golden: %v", err)
		}
		if d.Version != 2 {
			t.Fatalf("golden version = %d, want 2", d.Version)
		}
		if d.App != "synthetic" || d.Window != "step000" {
			t.Fatalf("golden header = %s/%q, want synthetic/step000", d.App, d.Window)
		}
		var out bytes.Buffer
		if err := d.WriteJSON(&out); err != nil {
			t.Fatalf("re-encoding golden: %v", err)
		}
		if !bytes.Equal(out.Bytes(), canon) {
			t.Fatalf("delta wire format drifted: re-encoded golden differs (%d vs %d bytes)", out.Len(), len(canon))
		}
	}
}

// TestSplitMergeRoundtrip pins the streaming path's source-of-truth
// claim: decomposing a batch profile into deltas and folding them back
// reproduces the profile byte-for-byte.
func TestSplitMergeRoundtrip(t *testing.T) {
	p := deltaTestProfile()
	var want bytes.Buffer
	if err := p.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	ds, err := SplitDeltas(p)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(ds) != 4 { // "", init, step000, step001 in sorted order
		t.Fatalf("got %d deltas, want 4", len(ds))
	}
	for i, d := range ds {
		if d.Seq != i {
			t.Fatalf("delta %d has seq %d", i, d.Seq)
		}
		if len(d.Ranks) != p.Procs {
			t.Fatalf("delta %q carries %d ranks, want %d", d.Window, len(d.Ranks), p.Procs)
		}
	}
	if ds[0].Window != "" || ds[1].Window != "init" || ds[2].Window != "step000" || ds[3].Window != "step001" {
		t.Fatalf("windows out of order: %q %q %q %q", ds[0].Window, ds[1].Window, ds[2].Window, ds[3].Window)
	}
	merged, err := MergeDeltas(ds)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var got bytes.Buffer
	if err := merged.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("split+merge not identity:\nwant: %s\ngot:  %s", want.String(), got.String())
	}
}

// TestDeltaRoundTripStable checks encode → decode → re-encode is
// byte-identical for every delta of the synthetic profile.
func TestDeltaRoundTripStable(t *testing.T) {
	ds, err := SplitDeltas(deltaTestProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		var first bytes.Buffer
		if err := d.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDeltaJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("window %q: %v", d.Window, err)
		}
		var second bytes.Buffer
		if err := got.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("window %q round trip not byte-identical", d.Window)
		}
	}
}

// TestReadDeltaRejectsNewerVersion mirrors the profile check: deltas from
// a future schema fail loudly.
func TestReadDeltaRejectsNewerVersion(t *testing.T) {
	in := []byte(`{"Version": 99, "App": "x", "Procs": 1, "Seq": 0, "Window": "step000"}`)
	if _, err := ReadDeltaJSON(bytes.NewReader(in)); err == nil {
		t.Fatal("expected error for delta wire format v99")
	}
}

// TestDeltaValidate covers the structural invariants folders rely on.
func TestDeltaValidate(t *testing.T) {
	cases := []struct {
		name string
		d    Delta
	}{
		{"zero procs", Delta{Version: 2, Procs: 0}},
		{"rank out of range", Delta{Version: 2, Procs: 2, Ranks: []RankProfile{{Rank: 2}}}},
		{"unsorted ranks", Delta{Version: 2, Procs: 3, Ranks: []RankProfile{{Rank: 1}, {Rank: 0}}}},
		{"duplicate ranks", Delta{Version: 2, Procs: 3, Ranks: []RankProfile{{Rank: 1}, {Rank: 1}}}},
	}
	for _, tc := range cases {
		if err := tc.d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// TestMergeDeltasRejectsMixedStreams ensures a folder cannot silently
// combine deltas of different runs or replay a window.
func TestMergeDeltasRejectsMixedStreams(t *testing.T) {
	ds, err := SplitDeltas(deltaTestProfile())
	if err != nil {
		t.Fatal(err)
	}
	other := *ds[1]
	other.App = "different"
	if _, err := MergeDeltas([]*Delta{ds[0], &other}); err == nil {
		t.Fatal("expected error merging deltas of different apps")
	}
	if _, err := MergeDeltas([]*Delta{ds[0], ds[0]}); err == nil {
		t.Fatal("expected error merging a repeated window")
	}
}
