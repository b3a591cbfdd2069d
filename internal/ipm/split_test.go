package ipm

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

// splitAll drains a splitter, copying each object out of its buffer.
func splitAll(s *DeltaSplitter) ([][]byte, error) {
	var out [][]byte
	for {
		raw, err := s.Next()
		if err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, append([]byte(nil), raw...))
	}
}

// TestDeltaSplitterYieldsEncodedDeltas streams the synthetic profile's
// deltas as one body and checks each comes back byte for byte, whatever
// the read size and however the buffer was sized.
func TestDeltaSplitterYieldsEncodedDeltas(t *testing.T) {
	ds, err := SplitDeltas(deltaTestProfile())
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	var want [][]byte
	for _, d := range ds {
		at := body.Len()
		if err := d.WriteJSON(&body); err != nil {
			t.Fatal(err)
		}
		want = append(want, bytes.TrimSpace(body.Bytes()[at:]))
	}
	for name, s := range map[string]*DeltaSplitter{
		"bulk":     NewDeltaSplitter(bytes.NewReader(body.Bytes()), 0),
		"hinted":   NewDeltaSplitter(bytes.NewReader(body.Bytes()), body.Len()),
		"one byte": NewDeltaSplitter(iotest.OneByteReader(bytes.NewReader(body.Bytes())), 0),
		"short":    NewDeltaSplitter(iotest.DataErrReader(bytes.NewReader(body.Bytes())), 16),
	} {
		got, err := splitAll(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d objects, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: object %d differs:\n%s\nwant:\n%s", name, i, got[i], want[i])
			}
			if _, err := DecodeDelta(got[i]); err != nil {
				t.Fatalf("%s: object %d does not decode: %v", name, i, err)
			}
		}
	}
}

// TestDeltaSplitterReset reuses one splitter, zero value first, the way
// the stream endpoint's pool does: each stream splits as on a fresh
// splitter — also after a stream abandoned mid-object — and the buffer
// is replaced only when a hint outgrows it.
func TestDeltaSplitterReset(t *testing.T) {
	var s DeltaSplitter
	split := func(body string, hint int, want ...string) {
		t.Helper()
		s.Reset(strings.NewReader(body), hint)
		got, err := splitAll(&s)
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d objects, want %d", body, len(got), len(want))
		}
		for i := range want {
			if string(got[i]) != want[i] {
				t.Fatalf("%q: object %d = %q, want %q", body, i, got[i], want[i])
			}
		}
	}
	split(`{"a":1} {"b":2}`, 64, `{"a":1}`, `{"b":2}`)
	buf := &s.buf[0]
	s.Reset(strings.NewReader(`{"cut":`), 0)
	if _, err := s.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("cut object: %v, want io.ErrUnexpectedEOF", err)
	}
	split(`{"c":3}`, -1, `{"c":3}`)
	split(``, 64)
	if &s.buf[0] != buf {
		t.Fatal("a hint the buffer already holds replaced the buffer")
	}
	big := `{"d":"` + strings.Repeat("x", 200) + `"}`
	split(big+big, 2*len(big), big, big)
	if len(s.buf) != 2*len(big)+1 {
		t.Fatalf("buffer is %d bytes after a hint of %d", len(s.buf), 2*len(big))
	}
}

// TestDeltaSplitterLexing pins the brace matching: braces and quotes
// inside strings, escaped quotes and backslashes do not move the depth.
func TestDeltaSplitterLexing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
		err  string // what the stream's final error mentions; "" for a clean end
	}{
		{in: "", want: nil},
		{in: " \n\t\r ", want: nil},
		{in: `{}{}`, want: []string{`{}`, `{}`}},
		{in: ` {"a":{"b":{}}} `, want: []string{`{"a":{"b":{}}}`}},
		{in: `{"a":"}{"}{"b":"\"}"}`, want: []string{`{"a":"}{"}`, `{"b":"\"}"}`}},
		{in: `{"a":"\\"}{"b":"\\\""}`, want: []string{`{"a":"\\"}`, `{"b":"\\\""}`}},
		{in: `{"a":[{"b":1},{"c":"]"}]}`, want: []string{`{"a":[{"b":1},{"c":"]"}]}`}},
		{in: `{"a":1}{"b":`, want: []string{`{"a":1}`}, err: "unexpected EOF"},
		{in: `{"a":"\`, err: "unexpected EOF"},
		{in: `{"a":1} x`, want: []string{`{"a":1}`}, err: "want '{'"},
		{in: `[1]`, err: "want '{'"},
		{in: `42`, err: "want '{'"},
		{in: `}`, err: "want '{'"},
	} {
		for _, r := range []io.Reader{strings.NewReader(tc.in), iotest.OneByteReader(strings.NewReader(tc.in))} {
			got, err := splitAll(NewDeltaSplitter(r, 0))
			if len(got) != len(tc.want) {
				t.Fatalf("%q: %d objects, want %d", tc.in, len(got), len(tc.want))
			}
			for i := range got {
				if string(got[i]) != tc.want[i] {
					t.Fatalf("%q: object %d = %q, want %q", tc.in, i, got[i], tc.want[i])
				}
			}
			if (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("%q: ended with %v, want %q", tc.in, err, tc.err)
			}
		}
	}
}

// stuckReader reads nothing and never says why.
type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

// TestDeltaSplitterReadError passes a failing reader's error through and
// gives up on one that makes no progress.
func TestDeltaSplitterReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		tail io.Reader
		want error
	}{{iotest.ErrReader(boom), boom}, {stuckReader{}, io.ErrNoProgress}} {
		r := io.MultiReader(strings.NewReader(`{"a":1}{"b"`), tc.tail)
		got, err := splitAll(NewDeltaSplitter(r, 0))
		if len(got) != 1 || !errors.Is(err, tc.want) {
			t.Fatalf("got %d objects and %v, want 1 and %v", len(got), err, tc.want)
		}
	}
}

func TestPeekDeltaProcs(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "delta_v2.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in   string
		want int
		bad  bool
	}{
		{in: string(golden), want: 3},
		{in: `{"procs":7}`, want: 7}, // encoding/json matches names case-insensitively
		{in: `{"Params":{"Procs":9},"Procs":4}`, want: 4},
		{in: `{"Procs":4,"Procs":8}`, want: 4},
		{in: `{"Procs":null}`, want: 0},
		{in: `{"App":"x"}`, want: 0},
		{in: `{"Procs":"4"}`, bad: true},
		{in: `{"Procs":4.5}`, bad: true},
		{in: `{"App":nope,"Procs":4}`, bad: true},
		{in: `{"App"`, bad: true},
		{in: `[4]`, bad: true},
	} {
		got, err := PeekDeltaProcs([]byte(tc.in))
		if tc.bad {
			if !errors.Is(err, ErrDeltaDecode) {
				t.Errorf("%.40q: error %v, want ErrDeltaDecode", tc.in, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%.40q: got %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

// FuzzDeltaSplit holds the splitter to encoding/json on arbitrary
// bodies: wherever json.Decoder yields an object the splitter yields the
// same bytes, it ends where the decoder ends, and nothing it yields
// beyond that point decodes as a delta — so a server that splits, hashes
// and decodes on a miss accepts exactly what one decoding the body
// accepts.
func FuzzDeltaSplit(f *testing.F) {
	delta, err := os.ReadFile(filepath.Join("testdata", "delta_v2.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	profile, err := os.ReadFile(filepath.Join("testdata", "profile_v1.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, delta); err != nil {
		f.Fatal(err)
	}
	f.Add(delta)
	f.Add(profile)
	f.Add(compact.Bytes())
	f.Add(append(append([]byte(nil), delta...), delta...))
	f.Add(append(append([]byte(nil), compact.Bytes()...), delta...))
	f.Add(append(append([]byte(nil), delta...), "{not json"...))
	for _, s := range []string{``, `{`, `}`, `[1]`, `42 {}`, `{"a":"}"}`, `{"a":"\\"}{"b":"\""}`, `{"a":"\`, `{"Procs":1}{"Procs":1,]}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var r io.Reader = bytes.NewReader(body)
		if len(body)%2 == 1 {
			r = iotest.OneByteReader(r)
		}
		split := NewDeltaSplitter(r, len(body)%5)
		dec := json.NewDecoder(bytes.NewReader(body))
		for i := 0; ; i++ {
			var want json.RawMessage
			werr := dec.Decode(&want)
			got, gerr := split.Next()
			if werr == nil && want[0] == '{' {
				if gerr != nil || !bytes.Equal(got, want) {
					t.Fatalf("value %d: splitter gave %q, %v; json.Decoder gave %q", i, got, gerr, want)
				}
				continue
			}
			if werr == io.EOF && gerr != io.EOF {
				t.Fatalf("value %d: body ended, splitter gave %q, %v", i, got, gerr)
			}
			if gerr == nil {
				if _, err := DecodeDelta(got); err == nil {
					t.Fatalf("value %d: %q decodes as a delta, json.Decoder said %v", i, got, werr)
				}
			}
			return
		}
	})
}

// frameAll drains a splitter the way the stream endpoint does: the
// candidate first, kept only if verify takes it, the exact cut otherwise.
// It reports the cuts, how many of them were candidates, and the
// stream's final error.
func frameAll(s *DeltaSplitter, verify func([]byte) bool) (cuts [][]byte, guessed int, err error) {
	for {
		if cand := s.Candidate(); cand != nil && verify(cand) {
			cuts = append(cuts, append([]byte(nil), cand...))
			s.Accept()
			guessed++
			continue
		}
		raw, err := s.Next()
		if err == io.EOF {
			return cuts, guessed, nil
		} else if err != nil {
			return cuts, guessed, err
		}
		cuts = append(cuts, append([]byte(nil), raw...))
	}
}

// TestDeltaSplitterCandidate pins the guess: the bytes up to the first
// '}' that opens a line, right for every layout that indents nested
// closers and wrong, never harmful, for the rest — whatever the candidate
// was, Next cuts what it always cut.
func TestDeltaSplitterCandidate(t *testing.T) {
	for _, tc := range []struct {
		in   string
		cand string // what Candidate proposes first; "" for nothing
		want []string
		hits int // cuts that were verified candidates
		err  string
	}{
		{in: "", want: nil},
		{in: " \n ", want: nil},
		{in: `{"a":1}`, want: []string{`{"a":1}`}},
		{in: "{\n}", cand: "{\n}", want: []string{"{\n}"}, hits: 1},
		{in: " \r\n{\n \"a\": {\n  \"b\": 1\n }\n}\n", cand: "{\n \"a\": {\n  \"b\": 1\n }\n}", want: []string{"{\n \"a\": {\n  \"b\": 1\n }\n}"}, hits: 1},
		{in: "{\r\n\t\"a\": {\r\n\t}\r\n}", cand: "{\r\n\t\"a\": {\r\n\t}\r\n}", want: []string{"{\r\n\t\"a\": {\r\n\t}\r\n}"}, hits: 1},
		{in: "{\n\"a\":{\n}\n}", cand: "{\n\"a\":{\n}", want: []string{"{\n\"a\":{\n}\n}"}},
		{in: "{\n\"a\":1\n}{\n\"b\":2\n} {\"c\":3}", cand: "{\n\"a\":1\n}", want: []string{"{\n\"a\":1\n}", "{\n\"b\":2\n}", `{"c":3}`}, hits: 2},
		{in: "{\n\"a\":\"\n}\"}", cand: "{\n\"a\":\"\n}", want: []string{"{\n\"a\":\"\n}\"}"}},
		{in: "{\n\"a\":1}\n}", cand: "{\n\"a\":1}\n}", want: []string{"{\n\"a\":1}"}, err: "want '{'"},
		{in: "{\n\"a\":\"\n}", cand: "{\n\"a\":\"\n}", err: "unexpected EOF"},
		{in: "{\n\"a\":{\n", err: "unexpected EOF"},
		// No line break after the brace: not a layout worth searching.
		{in: "{\"a\":{\n}\n}", want: []string{"{\"a\":{\n}\n}"}},
		{in: "{\"a\":\"\n}\"}", want: []string{"{\"a\":\"\n}\"}"}},
		{in: "{}\n}", want: []string{"{}"}, err: "want '{'"},
		{in: "\n}", err: "want '{'"},
		{in: "[\n}", err: "want '{'"},
	} {
		for _, oneByte := range []bool{false, true} {
			var r io.Reader = strings.NewReader(tc.in)
			if oneByte {
				r = iotest.OneByteReader(r)
			}
			s := NewDeltaSplitter(r, 0)
			if got := string(s.Candidate()); got != tc.cand {
				t.Fatalf("%q: candidate %q, want %q", tc.in, got, tc.cand)
			}
			if again := string(s.Candidate()); again != tc.cand {
				t.Fatalf("%q: second candidate %q, want %q", tc.in, again, tc.cand)
			}
			got, hits, err := frameAll(s, json.Valid)
			if len(got) != len(tc.want) || hits != tc.hits {
				t.Fatalf("%q: %d objects, %d of them candidates; want %d and %d", tc.in, len(got), hits, len(tc.want), tc.hits)
			}
			for i := range got {
				if string(got[i]) != tc.want[i] {
					t.Fatalf("%q: object %d = %q, want %q", tc.in, i, got[i], tc.want[i])
				}
			}
			if (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("%q: ended with %v, want %q", tc.in, err, tc.err)
			}
		}
	}
}

// flakyReader fails once between its two halves.
type flakyReader struct {
	halves [2]string
	err    error
	calls  int
}

func (r *flakyReader) Read(p []byte) (int, error) {
	r.calls++
	switch r.calls {
	case 1:
		return copy(p, r.halves[0]), nil
	case 2:
		return 0, r.err
	case 3:
		return copy(p, r.halves[1]), nil
	}
	return 0, io.EOF
}

// TestDeltaSplitterCandidateKeepsReadError pins that looking for a
// candidate does not eat the error Next would have reported: a reader
// that fails is not asked again.
func TestDeltaSplitterCandidateKeepsReadError(t *testing.T) {
	boom := errors.New("boom")
	s := NewDeltaSplitter(&flakyReader{halves: [2]string{"{\n\"a\":1", "\n}"}, err: boom}, 0)
	if cand := s.Candidate(); cand != nil {
		t.Fatalf("candidate %q from a stream that failed before its closer", cand)
	}
	if raw, err := s.Next(); !errors.Is(err, boom) {
		t.Fatalf("Next after the candidate gave %q, %v; want the reader's error", raw, err)
	}
}

// FuzzDeltaFraming holds guess-and-verify framing to the brace matcher
// on arbitrary bodies: a candidate kept only when it is one JSON value
// yields the cuts and the final error of Next alone, through a bulk
// reader and one byte at a time (every fill relocating the buffer under
// the scan). The verifier is the weakest the argument allows — any valid
// JSON — and what DecodeDelta takes must be inside it, since the server
// trusts a candidate on DecodeDelta's word.
func FuzzDeltaFraming(f *testing.F) {
	delta, err := os.ReadFile(filepath.Join("testdata", "delta_v2.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	delta = bytes.TrimSpace(delta)
	var compact, flush, tabbed bytes.Buffer
	if err := json.Compact(&compact, delta); err != nil {
		f.Fatal(err)
	}
	// No indent: every closer opens a line, so every candidate is wrong.
	if err := json.Indent(&flush, delta, "", ""); err != nil {
		f.Fatal(err)
	}
	if err := json.Indent(&tabbed, delta, "", "\t"); err != nil {
		f.Fatal(err)
	}
	f.Add(delta)
	f.Add(compact.Bytes())
	f.Add(flush.Bytes())
	f.Add(tabbed.Bytes())
	f.Add(bytes.ReplaceAll(delta, []byte("\n"), []byte("\r\n")))
	for _, sep := range []string{"", " ", "\n"} {
		f.Add(bytes.Join([][]byte{delta, delta}, []byte(sep)))
		f.Add(bytes.Join([][]byte{delta, compact.Bytes(), delta}, []byte(sep)))
		f.Add(bytes.Join([][]byte{flush.Bytes(), delta, tabbed.Bytes()}, []byte(sep)))
	}
	for at := 0; ; {
		i := bytes.Index(flush.Bytes()[at:], []byte("\n}"))
		if i < 0 {
			break
		}
		at += i + 2
		f.Add(flush.Bytes()[:at:at])
	}
	for _, s := range []string{``, "{\n}", "{\n}\n}", "{\n\"a\":\"\n}\"}", "{\r\"a\":\"\\\n}", "{\n\"Params\":{\"a\":1\n},\"Procs\":4}", "{\"a\":{\n}\n}", "{\n}x", "[\n}"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := splitAll(NewDeltaSplitter(bytes.NewReader(body), 0))
		verify := func(cand []byte) bool {
			ok := json.Valid(cand)
			if _, err := DecodeDelta(cand); err == nil && !ok {
				t.Fatalf("DecodeDelta takes %q, which is not JSON", cand)
			}
			return ok
		}
		for _, r := range []io.Reader{bytes.NewReader(body), iotest.OneByteReader(bytes.NewReader(body))} {
			got, _, gerr := frameAll(NewDeltaSplitter(r, len(body)%5), verify)
			if len(got) != len(want) {
				t.Fatalf("%d cuts, Next alone makes %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("cut %d is %q, Next alone cuts %q", i, got[i], want[i])
				}
			}
			if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Fatalf("ended with %v, Next alone with %v", gerr, werr)
			}
		}
	})
}
