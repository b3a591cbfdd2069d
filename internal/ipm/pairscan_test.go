package ipm_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// agreePairs holds DecodeDeltaPairs(raw, procs, dst) to DecodeDelta: it
// accepts only what DecodeDelta accepts over procs ranks, and all of
// that which the value scanner reads, returning the same header and dst
// with the pairs Profile.Pairs folds from the decoded delta's window
// appended, dst's own pair untouched though it sorts after them; and
// nothing it returns aliases raw.
func agreePairs(t *testing.T, raw []byte, procs int) {
	t.Helper()
	want, err := ipm.DecodeDelta(raw)
	_, scanned := ipm.ScanDelta(raw)
	buf := bytes.Clone(raw)
	kept := ipm.PairTraffic{Src: math.MaxInt, Msgs: 7}
	d, pairs, ok := ipm.DecodeDeltaPairs(buf, procs, []ipm.PairTraffic{kept})
	if !bytes.Equal(buf, raw) {
		t.Fatal("pair scan wrote to its input")
	}
	for i := range buf {
		buf[i] = 'x'
	}
	accept := err == nil && want.Procs == procs
	switch {
	case ok && !accept:
		t.Fatalf("pair scan accepted bytes DecodeDelta refuses over %d procs (%v)", procs, err)
	case !ok && accept && scanned:
		t.Fatalf("pair scan declined a canonical delta over %d procs", procs)
	case !ok:
		return
	}
	if d.Ranks != nil {
		t.Fatalf("pair scan built %d ranks", len(d.Ranks))
	}
	header := *want
	header.Ranks = nil
	if !reflect.DeepEqual(d, &header) {
		t.Fatalf("pair scan header %+v, DecodeDelta's %+v", d, &header)
	}
	if len(pairs) == 0 || pairs[0] != kept {
		t.Fatalf("pair scan did not append to the slice it was passed: %v", pairs)
	}
	if wantPairs := want.AsProfile().Pairs(ipm.Region(want.Window)); !reflect.DeepEqual(pairs[1:], wantPairs) {
		t.Fatalf("pair scan folded %v, Profile.Pairs %v", pairs[1:], wantPairs)
	}
}

// FuzzDeltaPairs holds the pair scan to DecodeDelta on arbitrary bytes,
// over the header's Procs and its two neighbours: what it accepts
// DecodeDelta accepts, to the same header and pairs; whatever DecodeDelta
// or Validate refuses it declines; nothing it returns aliases the input;
// never a panic. procs is a stream's, which sizes the scan's row and is
// bounded before a stream opens (hfastd's MaxProcs), so a header past
// 1<<16 is scanned over 1<<16 ranks, where it no longer matches.
func FuzzDeltaPairs(f *testing.F) {
	for _, c := range deltaCases(f) {
		f.Add([]byte(c.raw), int8(0))
	}
	_, deltas := encodedRun(f, "amr", 4)
	for _, raw := range deltas {
		f.Add(raw, int8(0))
	}
	for _, seed := range ipm.FramingSeeds([]byte(readGolden(f, "delta_v2.compact.golden.json"))) {
		f.Add(seed, int8(1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, near int8) {
		procs, _ := ipm.PeekDeltaProcs(raw)
		agreePairs(t, raw, min(procs, 1<<16)+int(near%2))
	})
}

// TestDeltaPairsCases walks the scanner's give-up boundary, over the
// golden's Procs and either side of it.
func TestDeltaPairsCases(t *testing.T) {
	for _, c := range deltaCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for _, procs := range []int{2, 3, 4} {
				agreePairs(t, []byte(c.raw), procs)
			}
		})
	}
}

// TestDeltaPairsTimeBoundary: the pair scan converts a Time only when it
// may be past float64's range, and accepts exactly the tokens
// encoding/json accepts as a float64.
func TestDeltaPairsTimeBoundary(t *testing.T) {
	g := readGolden(t, "delta_v2.compact.golden.json")
	for _, tok := range []string{
		"1e308", "1.7976931348623157e308", "1.8e308", "17976931348623157e292",
		"0.1e310", "1e309", "-1e309", "1" + strings.Repeat("0", 308), strings.Repeat("9", 309),
		"1e-400", "123e-5000", "1E+308", "1e0000000000000000000308",
	} {
		var f float64
		want := json.Unmarshal([]byte(tok), &f) == nil
		raw := []byte(edit(t, g, `"Time":0.5`, `"Time":`+tok))
		if _, _, ok := ipm.DecodeDeltaPairs(raw, 3, nil); ok != want {
			t.Errorf("Time %.30s: pair scan accepted %v, encoding/json %v", tok, ok, want)
		}
		agreePairs(t, raw, 3)
	}
}

// TestDeltaPairsRealStreams: every delta the skeletons emit is read by the
// pair scan, to the pairs the decoded delta folds.
func TestDeltaPairsRealStreams(t *testing.T) {
	for _, app := range []string{"cactus", "amr", "gtc"} {
		_, deltas := encodedRun(t, app, 16)
		for _, raw := range deltas {
			if _, _, ok := ipm.DecodeDeltaPairs(raw, 16, nil); !ok {
				t.Fatalf("%s: pair scan declined a delta the writer wrote", app)
			}
			agreePairs(t, raw, 16)
		}
	}
}

// hostileDelta is a delta over 1024 ranks, all listed, whose rank 0 sends
// to 20 000 peers that are not world ranks: a pair count that a folder
// guessing every rank's from rank 0's would multiply by 1023.
func hostileDelta() *ipm.Delta {
	const procs, peers = 1024, 20000
	d := &ipm.Delta{Version: ipm.SchemaVersion, App: "x", Procs: procs, Window: "step000", Ranks: make([]ipm.RankProfile, procs)}
	for r := range d.Ranks {
		d.Ranks[r].Rank = r
	}
	es := make([]ipm.Entry, peers)
	for k := range es {
		es[k] = ipm.Entry{
			Key:  ipm.Key{Call: mpi.CallSend, Bytes: 8, Peer: procs + k, Region: "step000"},
			Stat: ipm.Stat{Count: 1, TotalBytes: 8, MaxBytes: 8},
		}
	}
	d.Ranks[0].Entries = es
	return d
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPairsHostileGrowth: the folder's growth guess is held to what the
// input can still add, on the struct path and off the wire.
func TestPairsHostileGrowth(t *testing.T) {
	d := hostileDelta()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const ceiling = 32 << 20
	var pairs, scanned []ipm.PairTraffic
	if n := allocated(func() { pairs = d.AsProfile().Pairs(ipm.Region(d.Window)) }); n > ceiling {
		t.Errorf("Profile.Pairs allocated %d MB for a %d KB delta", n>>20, len(raw)>>10)
	}
	var ok bool
	if n := allocated(func() { _, scanned, ok = ipm.DecodeDeltaPairs(raw, d.Procs, nil) }); n > ceiling {
		t.Errorf("DecodeDeltaPairs allocated %d MB for a %d KB delta", n>>20, len(raw)>>10)
	}
	if len(pairs) != 20000 || !ok || !reflect.DeepEqual(scanned, pairs) {
		t.Fatalf("folded %d pairs, scanned %d (ok %v), want 20000 each", len(pairs), len(scanned), ok)
	}
}
