package ipm_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
)

// refDecodeDelta is DecodeDelta as it stood before the scanner —
// encoding/json and Validate, nothing else — kept as the oracle every
// test in this file holds DecodeDelta to.
func refDecodeDelta(raw []byte) (*ipm.Delta, error) {
	var d ipm.Delta
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%w: %w", ipm.ErrDeltaDecode, err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// refDecodeProfile is the oracle for DecodeProfile.
func refDecodeProfile(raw []byte) (*ipm.Profile, error) {
	var p ipm.Profile
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("ipm: decoding profile: %w", err)
	}
	if p.Version > ipm.SchemaVersion {
		return nil, fmt.Errorf("ipm: profile wire format v%d is newer than supported v%d", p.Version, ipm.SchemaVersion)
	}
	return &p, nil
}

// agree decodes raw with a decoder and with its oracle and fails unless
// they said the same of it: the same error text or, on success, values
// that are DeepEqual and re-encode to the same bytes (which, unlike
// DeepEqual, tells -0 from 0). It returns the oracle's error.
func agree[T interface{ WriteJSON(io.Writer) error }](t *testing.T, raw []byte, decode, oracle func([]byte) (T, error)) error {
	t.Helper()
	pristine := bytes.Clone(raw)
	got, gotErr := decode(raw)
	if !bytes.Equal(raw, pristine) {
		t.Fatal("decoder wrote to its input")
	}
	want, wantErr := oracle(raw)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("decoder error %v, encoding/json's %v", gotErr, wantErr)
		}
		return wantErr
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoder built %+v, encoding/json %+v", got, want)
	}
	var gotEnc, wantEnc bytes.Buffer
	if err := got.WriteJSON(&gotEnc); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&wantEnc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc.Bytes(), wantEnc.Bytes()) {
		t.Fatalf("re-encodings differ:\ndecoder:       %s\nencoding/json: %s", gotEnc.Bytes(), wantEnc.Bytes())
	}
	return nil
}

func agreeDelta(t *testing.T, raw []byte) error {
	t.Helper()
	return agree(t, raw, ipm.DecodeDelta, refDecodeDelta)
}

func agreeProfile(t *testing.T, raw []byte) error {
	t.Helper()
	return agree(t, raw, ipm.DecodeProfile, refDecodeProfile)
}

// wireTypes lets a test say something once of both decoders. golden is
// the canonical encoding, legacy the same value in the indented layout
// WriteJSON wrote before the wire went compact.
var wireTypes = []struct {
	name           string
	golden, legacy string
	cases          func(testing.TB) []wireCase
	scanned        func(raw []byte) bool // whether the scanner, not encoding/json, decodes raw
	agree          func(*testing.T, []byte) error
}{
	{"delta", "delta_v2.compact.golden.json", "delta_v2.golden.json", deltaCases,
		func(raw []byte) bool { _, ok := ipm.ScanDelta(raw); return ok }, agreeDelta},
	{"profile", "profile_v1.compact.golden.json", "profile_v1.golden.json", profileCases,
		func(raw []byte) bool { _, ok := ipm.ScanProfile(raw); return ok }, agreeProfile},
}

func readGolden(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wireCase is one input on or near the give-up boundary: whether the
// scanner decodes it (otherwise encoding/json does) and whether it
// decodes at all.
type wireCase struct {
	name     string
	raw      string
	scan, ok bool
}

// edit replaces the first occurrence of old in s, which must have one.
func edit(t testing.TB, s, old, new string) string {
	t.Helper()
	if !strings.Contains(s, old) {
		t.Fatalf("golden has no %q to edit", old)
	}
	return strings.Replace(s, old, new, 1)
}

func compact(t testing.TB, s string) string {
	t.Helper()
	var out bytes.Buffer
	if err := json.Compact(&out, []byte(s)); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// deltaCases edits the golden delta one step off canonical at a time.
func deltaCases(t testing.TB) []wireCase {
	g := readGolden(t, "delta_v2.compact.golden.json")
	legacy := readGolden(t, "delta_v2.golden.json")
	params := `{"scale":5,"steps":2}`
	ranksAt := strings.Index(g, `"Ranks":`) + len(`"Ranks":`)
	const scan, fallback, ok, rejected = true, false, true, false
	return append([]wireCase{
		{"golden", g, scan, ok},
		{"legacy", legacy, scan, ok},
		{"compact", compact(t, legacy), scan, ok},
		{"CRLF", strings.ReplaceAll(legacy, "\n", "\r\n"), scan, ok},
		{"tabs and leading whitespace", " \n\t" + strings.ReplaceAll(legacy, "\n ", "\n\t"), scan, ok},
		{"no trailing newline", strings.TrimSpace(g), scan, ok},
		{"Entries []", edit(t, g, `"Entries":null`, `"Entries":[]`), scan, ok},
		{"Params null", edit(t, g, params, "null"), scan, ok},
		{"Params {}", edit(t, g, params, "{}"), scan, ok},
		{"Params repeats a name", edit(t, g, `"scale":5,`, `"scale":4, "scale":5,`), scan, ok},
		{"Ranks null", g[:ranksAt] + "null}\n", scan, ok},
		{"Ranks []", g[:ranksAt] + "[]}", scan, ok},
		{"Time 1e-3", edit(t, g, `"Time":0.5`, `"Time":1e-3`), scan, ok},
		{"Time -0", edit(t, g, `"Time":0.5`, `"Time":-0`), scan, ok},
		{"Time 17 digits", edit(t, g, `"Time":0.5`, `"Time":1.9999999999999978E+07`), scan, ok},
		{"Peer -1", edit(t, g, `"Peer":1`, `"Peer":-1`), scan, ok},
		{"Count 18 digits", edit(t, g, `"Count":2`, `"Count":999999999999999999`), scan, ok},
		{"Procs 0 fails Validate", edit(t, g, `"Procs":3`, `"Procs":0`), scan, rejected},
		{"newer schema", edit(t, g, `"Version":2`, `"Version":99`), scan, rejected},

		{"fields reordered", edit(t, g, `"App":"synthetic","Procs":3,`, `"Procs":3,"App":"synthetic",`), fallback, ok},
		{"procs lower-cased", edit(t, g, `"Procs"`, `"procs"`), fallback, ok},
		{"Procs twice", edit(t, g, `"Procs":3,`, `"Procs":7,"Procs":3,`), fallback, ok},
		{"unknown field", edit(t, g, `"Seq":2,`, `"Extra":[1,{"a":null}],"Seq":2,`), fallback, ok},
		{"Window missing", edit(t, g, `"Window":"step000",`, ""), fallback, ok},
		{"a profile", readGolden(t, "profile_v1.compact.golden.json"), fallback, ok},
		{"escaped string", edit(t, g, `"Region":"step000"`, `"Region":"\u0073tep000"`), fallback, ok},
		{"UTF-8 window", edit(t, g, `"Window":"step000"`, `"Window":"stép000"`), fallback, ok},
		{"invalid UTF-8 window", edit(t, g, `"Window":"step000"`, "\"Window\":\"st\xffp000\""), fallback, ok},
		{"DEL in a string", edit(t, g, `"Window":"step000"`, "\"Window\":\"st\x7fp000\""), fallback, ok},
		{"control byte in a string", edit(t, g, `"Window":"step000"`, "\"Window\":\"st\np000\""), fallback, rejected},
		{"Spilled null", edit(t, g, `"Spilled":0`, `"Spilled":null`), fallback, ok},
		{"Count 19 digits", edit(t, g, `"Count":2`, `"Count":1000000000000000000`), fallback, ok},
		{"Count overflows", edit(t, g, `"Count":2`, `"Count":9223372036854775808`), fallback, rejected},
		{"Bytes 1.0", edit(t, g, `"Bytes":4096`, `"Bytes":1.0`), fallback, rejected},
		{"Bytes 1e3", edit(t, g, `"Bytes":4096`, `"Bytes":1e3`), fallback, rejected},
		{"Seq 01", edit(t, g, `"Seq":2`, `"Seq":01`), fallback, rejected},
		{"Seq -", edit(t, g, `"Seq":2`, `"Seq":-`), fallback, rejected},
		{"Time 1E400", edit(t, g, `"Time":0.5`, `"Time":1E400`), fallback, rejected},
		{"Time 1.", edit(t, g, `"Time":0.5`, `"Time":1.`), fallback, rejected},
		{"Time .5", edit(t, g, `"Time":0.5`, `"Time":.5`), fallback, rejected},
		{"Time 1e", edit(t, g, `"Time":0.5`, `"Time":1e`), fallback, rejected},
		{"Time 0x1p-2", edit(t, g, `"Time":0.5`, `"Time":0x1p-2`), fallback, rejected},
		{"Time Inf", edit(t, g, `"Time":0.5`, `"Time":Inf`), fallback, rejected},
		{"Entries nul", edit(t, g, `"Entries":null`, `"Entries":nul`), fallback, rejected},
		{"trailing comma", edit(t, g, `"Spilled":0`, `"Spilled":0,`), fallback, rejected},
		{"trailing }", g + "}", fallback, rejected},
		{"trailing garbage", g + "x", fallback, rejected},
		{"trailing NUL", g + "\x00", fallback, rejected},
		{"two deltas", g + g, fallback, rejected},
		{"empty", "", fallback, rejected},
		{"null", "null", fallback, rejected},
	}, gapCases(t, g)...)
}

// gapCases respaces the golden delta at one gap of the writer's table at
// a time, leaving every other byte canonical: a line break and a tab, or
// CRLF, before each field name and closer, or a space before ':' or ','.
// The scanner's comparison misses there and its byte walk must take the
// gap. Each gap is respaced where it first follows the gap before it, so
// the one-byte gap "}" is the end of a rank and not of Params.
func gapCases(t testing.TB, g string) []wireCase {
	respace := []struct {
		name string
		re   *regexp.Regexp
		new  string
	}{
		{"tab indent", regexp.MustCompile(`("[A-Za-z]+"|\})`), "\n\t$1"},
		{"CRLF", regexp.MustCompile(`("[A-Za-z]+"|\})`), "\r\n$1"},
		{"space before ':'", regexp.MustCompile(`:`), " :"},
		{"space before ','", regexp.MustCompile(`,`), " ,"},
	}
	var cases []wireCase
	at := 0
	for k, gap := range ipm.WireGaps {
		i := strings.Index(g[at:], gap)
		if i < 0 {
			t.Fatalf("golden has no %q after byte %d", gap, at)
		}
		at += i
		var fits []int // the respacings that change this gap
		for r := range respace {
			if respace[r].re.MatchString(gap) {
				fits = append(fits, r)
			}
		}
		rs := respace[fits[k%len(fits)]]
		spaced := rs.re.ReplaceAllString(gap, rs.new)
		raw := g[:at] + spaced + g[at+len(gap):]
		cases = append(cases, wireCase{fmt.Sprintf("gap %s, %s", gap, rs.name), raw, true, true})
	}
	return cases
}

// profileCases is the shorter list for DecodeProfile: the grammar below
// the header is the one routine deltaCases already walks.
func profileCases(t testing.TB) []wireCase {
	g := readGolden(t, "profile_v1.compact.golden.json")
	legacy := readGolden(t, "profile_v1.golden.json")
	const scan, fallback, ok, rejected = true, false, true, false
	return []wireCase{
		{"golden", g, scan, ok},
		{"legacy", legacy, scan, ok},
		{"compact", compact(t, legacy), scan, ok},
		{"CRLF", strings.ReplaceAll(legacy, "\n", "\r\n"), scan, ok},
		{"newer schema", edit(t, g, `"Version":1`, `"Version":99`), scan, rejected},
		{"pre-versioning file", edit(t, g, `"Version":1,`, ""), fallback, ok},
		{"fields reordered", edit(t, g, `"App":"cactus","Procs":8,`, `"Procs":8,"App":"cactus",`), fallback, ok},
		{"a delta", readGolden(t, "delta_v2.compact.golden.json"), fallback, ok},
		{"trailing garbage", g + "x", fallback, rejected},
		{"two profiles", g + g, fallback, rejected},
	}
}

// TestScannerGiveUpBoundary walks the edge of the canonical grammar: each
// case is decoded by the path it names, and by either path to exactly
// what encoding/json makes of the same bytes.
func TestScannerGiveUpBoundary(t *testing.T) {
	for _, w := range wireTypes {
		for _, c := range w.cases(t) {
			t.Run(w.name+"/"+c.name, func(t *testing.T) {
				if scanned := w.scanned([]byte(c.raw)); scanned != c.scan {
					t.Errorf("scanner decoded it: %v, want %v", scanned, c.scan)
				}
				if err := w.agree(t, []byte(c.raw)); (err == nil) != c.ok {
					t.Errorf("decode error %v, want success %v", err, c.ok)
				}
			})
		}
	}
}

// TestScannerTruncatedInput cuts the golden delta, compact and legacy, at
// every byte offset (and the golden profile, about 45 times its size, at
// every 37th): the scanner gives up on each proper prefix without reading
// past it, and the error is encoding/json's.
func TestScannerTruncatedInput(t *testing.T) {
	for _, w := range wireTypes {
		stride := 1
		if w.name == "profile" {
			stride = 37
		}
		for _, name := range []string{w.golden, w.legacy} {
			golden := strings.TrimSpace(readGolden(t, name))
			for n := 0; n < len(golden); n += stride {
				raw := []byte(golden[:n])
				if w.scanned(raw) {
					t.Fatalf("scanner decoded %s cut at byte %d", name, n)
				}
				if err := w.agree(t, raw); err == nil {
					t.Fatalf("%s cut at byte %d decodes", name, n)
				}
			}
		}
	}
}

// TestDecodeDoesNotAliasInput: the stream endpoint decodes out of a
// buffer it reuses for the next request, so a decoded value must survive
// its input being overwritten.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	overwritten := func(raw []byte) []byte {
		for i := range raw {
			raw[i] = 'x'
		}
		return raw
	}
	golden := []byte(readGolden(t, "delta_v2.compact.golden.json"))
	want, err := refDecodeDelta(golden)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Clone(golden)
	d, err := ipm.DecodeDelta(buf)
	if err != nil {
		t.Fatal(err)
	}
	if overwritten(buf); !reflect.DeepEqual(d, want) {
		t.Fatalf("delta changed with its input's buffer: %+v", d)
	}

	golden = []byte(readGolden(t, "profile_v1.compact.golden.json"))
	wantP, err := refDecodeProfile(golden)
	if err != nil {
		t.Fatal(err)
	}
	buf = bytes.Clone(golden)
	p, err := ipm.DecodeProfile(buf)
	if err != nil {
		t.Fatal(err)
	}
	if overwritten(buf); !reflect.DeepEqual(p, wantP) {
		t.Fatalf("profile changed with its input's buffer: %+v", p)
	}
}

// TestReadersRejectTrailingBytes: the io.Reader forms decode one value
// and refuse a second, as the in-memory forms always did. json.Decoder,
// which they used to be, stopped after the first value and dropped the rest.
func TestReadersRejectTrailingBytes(t *testing.T) {
	delta := readGolden(t, "delta_v2.compact.golden.json")
	if _, err := ipm.ReadDeltaJSON(strings.NewReader(delta + " \n\t\r\n")); err != nil {
		t.Fatalf("trailing whitespace refused: %v", err)
	}
	for _, tail := range []string{delta, "x", "}"} {
		if _, err := ipm.ReadDeltaJSON(strings.NewReader(delta + tail)); err == nil || !strings.HasPrefix(err.Error(), "ipm: decoding delta") {
			t.Errorf("delta followed by %.10q: error %v, want ipm: decoding delta", tail, err)
		}
	}
	profile := readGolden(t, "profile_v1.compact.golden.json")
	if _, err := ipm.ReadJSON(strings.NewReader(profile + " \n\t\r\n")); err != nil {
		t.Fatalf("trailing whitespace refused: %v", err)
	}
	for _, tail := range []string{profile, "x", "}"} {
		if _, err := ipm.ReadJSON(strings.NewReader(profile + tail)); err == nil || !strings.HasPrefix(err.Error(), "ipm: decoding profile") {
			t.Errorf("profile followed by %.10q: error %v, want ipm: decoding profile", tail, err)
		}
	}
}

// encodedRun profiles app at procs ranks and returns the encoded profile
// and the encoded deltas of its stream.
func encodedRun(t testing.TB, app string, procs int) (profile []byte, deltas [][]byte) {
	t.Helper()
	p, err := apps.ProfileRun(app, apps.Config{Procs: procs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		var b bytes.Buffer
		if err := d.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, b.Bytes())
	}
	return buf.Bytes(), deltas
}

// TestScannerDecodesRealStreams: everything the skeletons emit is
// canonical, so the fast path is the one the service actually runs — and
// writer and scanner are one grammar: what the scanner reads back,
// encoding/json encodes to the bytes the writer wrote.
func TestScannerDecodesRealStreams(t *testing.T) {
	for _, app := range apps.Names() {
		profile, deltas := encodedRun(t, app, 16)
		if p, scanned := ipm.ScanProfile(profile); !scanned {
			t.Errorf("%s: scanner gave up on the profile", app)
		} else if want, err := oracleEncode(p); err != nil || !bytes.Equal(profile, want) {
			t.Errorf("%s: WriteJSON's profile is not encoding/json's (%v)", app, err)
		}
		if err := agreeProfile(t, profile); err != nil {
			t.Errorf("%s profile: %v", app, err)
		}
		for i, raw := range deltas {
			if d, scanned := ipm.ScanDelta(raw); !scanned {
				t.Errorf("%s: scanner gave up on delta %d", app, i)
			} else if want, err := oracleEncode(d); err != nil || !bytes.Equal(raw, want) {
				t.Errorf("%s: WriteJSON's delta %d is not encoding/json's (%v)", app, i, err)
			}
			if err := agreeDelta(t, raw); err != nil {
				t.Errorf("%s delta %d: %v", app, i, err)
			}
		}
	}
}

// TestDecodeDeltaAllocBudget holds the decoder to one allocation per
// rank — its Entries — plus a constant for what a delta has one of: the
// Delta, App, Window, the Params map with its bucket and two names, the
// Ranks slice, and the doublings of the scanner's scratch rank (seven up
// to 64 entries). Not one per entry, let alone one per field.
func TestDecodeDeltaAllocBudget(t *testing.T) {
	_, deltas := encodedRun(t, "cactus", 64)
	raw := deltas[len(deltas)-1] // a step window
	d, err := ipm.DecodeDelta(raw)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, r := range d.Ranks {
		entries += len(r.Entries)
	}
	if len(d.Ranks) != 64 || entries < 4*64 {
		t.Fatalf("delta has %d ranks, %d entries; want a full cactus step", len(d.Ranks), entries)
	}
	const perDelta = 20
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ipm.DecodeDelta(raw); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(len(d.Ranks) + perDelta); allocs > budget {
		t.Fatalf("DecodeDelta: %.0f allocations for %d ranks and %d entries, budget %.0f", allocs, len(d.Ranks), entries, budget)
	}
}

// FuzzDecodeDelta holds DecodeDelta — scanner first, encoding/json on
// give-up — to encoding/json alone on arbitrary bytes: the same inputs
// accepted, the same error on the rest, the same value, the same
// re-encoding; never a panic.
func FuzzDecodeDelta(f *testing.F) {
	for _, c := range deltaCases(f) {
		f.Add([]byte(c.raw))
	}
	_, deltas := encodedRun(f, "amr", 4)
	for _, raw := range deltas {
		f.Add(raw)
	}
	for _, seed := range ipm.FramingSeeds([]byte(readGolden(f, "delta_v2.compact.golden.json"))) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) { agreeDelta(t, raw) })
}

// FuzzDecodeProfile is FuzzDecodeDelta for DecodeProfile.
func FuzzDecodeProfile(f *testing.F) {
	for _, c := range profileCases(f) {
		f.Add([]byte(c.raw))
	}
	profile, _ := encodedRun(f, "amr", 4)
	f.Add(profile)
	// The goldens are tens of kilobytes, where a mutation seldom lands
	// anywhere new; the golden delta seen as a profile is the small seed.
	d, err := ipm.DecodeDelta([]byte(readGolden(f, "delta_v2.compact.golden.json")))
	if err != nil {
		f.Fatal(err)
	}
	var small, indented bytes.Buffer
	if err := d.AsProfile().WriteJSON(&small); err != nil {
		f.Fatal(err)
	}
	if err := json.Indent(&indented, small.Bytes(), "", " "); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Add(indented.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) { agreeProfile(t, raw) })
}
