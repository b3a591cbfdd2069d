package ipm

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// goldenPair reads a legacy golden, in the indented layout WriteJSON
// wrote before the wire went compact, and the compact golden beside it,
// and checks that they are one value in two layouts: json.Indent of the
// compact bytes, one space a level, plus a newline is the legacy file.
func goldenPair(t *testing.T, legacy, compact string) (old, canon []byte) {
	t.Helper()
	old, canon = readTestdata(t, legacy), readTestdata(t, compact)
	var indented bytes.Buffer
	if err := json.Indent(&indented, bytes.TrimSuffix(canon, []byte("\n")), "", " "); err != nil {
		t.Fatal(err)
	}
	if indented.WriteByte('\n'); !bytes.Equal(indented.Bytes(), old) {
		t.Fatalf("%s indented is not %s", compact, legacy)
	}
	return old, canon
}

// TestGoldenWireFormat pins the service wire format: the committed golden
// profiles, legacy and compact, must decode and re-encode to the compact
// one byte for byte. Any change to field names, ordering, spacing, or
// number formatting fails here instead of silently breaking hfastd
// clients and stored profiles. The golden is a schema v1 profile — v2
// added the Delta envelope without touching the Profile field set, so v1
// profiles must keep decoding unchanged.
func TestGoldenWireFormat(t *testing.T) {
	old, canon := goldenPair(t, "profile_v1.golden.json", "profile_v1.compact.golden.json")
	for _, golden := range [][]byte{old, canon} {
		p, err := ReadJSON(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("decoding golden: %v", err)
		}
		if p.Version != 1 {
			t.Fatalf("golden version = %d, want 1 (pinned old-schema compatibility)", p.Version)
		}
		if p.App != "cactus" || p.Procs != 8 {
			t.Fatalf("golden header = %s/%d, want cactus/8", p.App, p.Procs)
		}
		var out bytes.Buffer
		if err := p.WriteJSON(&out); err != nil {
			t.Fatalf("re-encoding golden: %v", err)
		}
		if !bytes.Equal(out.Bytes(), canon) {
			t.Fatalf("wire format drifted: re-encoded golden differs (%d vs %d bytes)", out.Len(), len(canon))
		}
	}
}

// TestWireFormatRoundTripStable checks encode → decode → re-encode is
// byte-identical for a profile built in-process (not just the golden).
func TestWireFormatRoundTripStable(t *testing.T) {
	p := &Profile{
		App:    "synthetic",
		Procs:  3,
		Params: map[string]int{"steps": 4, "scale": 7},
		Ranks: []RankProfile{
			{Rank: 0, Entries: []Entry{
				{Key: Key{Call: mpi.CallSend, Bytes: 1024, Peer: 1, Region: "step0"},
					Stat: Stat{Count: 2, TotalBytes: 2048, MaxBytes: 1024, Time: 0.25}},
			}},
			{Rank: 1, Spilled: 3},
			{Rank: 2},
		},
	}
	var first bytes.Buffer
	if err := p.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := got.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical:\nfirst:  %s\nsecond: %s", first.String(), second.String())
	}
}

// TestReadJSONRejectsNewerVersion ensures consumers fail loudly on
// profiles from a future schema rather than misreading them.
func TestReadJSONRejectsNewerVersion(t *testing.T) {
	in := []byte(`{"Version": 99, "App": "x", "Procs": 1}`)
	if _, err := ReadJSON(bytes.NewReader(in)); err == nil {
		t.Fatal("expected error for wire format v99")
	}
}
