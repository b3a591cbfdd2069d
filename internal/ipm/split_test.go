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

// newDeltaSplitter is a fresh splitter on r, as the server's pool hands
// out: a zero DeltaSplitter Reset onto the stream.
func newDeltaSplitter(r io.Reader, sizeHint int) *DeltaSplitter {
	s := new(DeltaSplitter)
	s.Reset(r, sizeHint)
	return s
}

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

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// framingSeeds are the fuzz seeds one compact canonical body calls for:
// two of it with nothing, a space or a newline between them, and every
// prefix that ends inside its final "]}\n".
func framingSeeds(canon []byte) [][]byte {
	d := bytes.TrimSuffix(canon, []byte("\n"))
	var seeds [][]byte
	for _, sep := range []string{"", " ", "\n"} {
		seeds = append(seeds, bytes.Join([][]byte{d, d}, []byte(sep)))
	}
	for n := len(canon) - 3; n < len(canon); n++ {
		seeds = append(seeds, canon[:n:n], append(append([]byte(nil), canon...), canon[:n]...))
	}
	return seeds
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
		"bulk":     newDeltaSplitter(bytes.NewReader(body.Bytes()), 0),
		"hinted":   newDeltaSplitter(bytes.NewReader(body.Bytes()), body.Len()),
		"one byte": newDeltaSplitter(iotest.OneByteReader(bytes.NewReader(body.Bytes())), 0),
		"short":    newDeltaSplitter(iotest.DataErrReader(bytes.NewReader(body.Bytes())), 16),
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
			got, err := splitAll(newDeltaSplitter(r, 0))
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
		got, err := splitAll(newDeltaSplitter(r, 0))
		if len(got) != 1 || !errors.Is(err, tc.want) {
			t.Fatalf("got %d objects and %v, want 1 and %v", len(got), err, tc.want)
		}
	}
}

func TestPeekDeltaProcs(t *testing.T) {
	golden := readTestdata(t, "delta_v2.compact.golden.json")
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
	delta := readTestdata(f, "delta_v2.compact.golden.json")
	legacy := readTestdata(f, "delta_v2.golden.json")
	f.Add(delta)
	f.Add(legacy)
	f.Add(readTestdata(f, "profile_v1.compact.golden.json"))
	f.Add(append(append([]byte(nil), legacy...), delta...))
	f.Add(append(append([]byte(nil), delta...), "{not json"...))
	for _, seed := range framingSeeds(delta) {
		f.Add(seed)
	}
	for _, s := range []string{``, `{`, `}`, `[1]`, `42 {}`, `{"a":"}"}`, `{"a":"\\"}{"b":"\""}`, `{"a":"\`, `{"Procs":1}{"Procs":1,]}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var r io.Reader = bytes.NewReader(body)
		if len(body)%2 == 1 {
			r = iotest.OneByteReader(r)
		}
		split := newDeltaSplitter(r, len(body)%5)
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
// "]}" of an object that opens as the canonical layout does, right for
// every canonical delta and wrong, never harmful, for the rest — whatever
// the candidate was, Next cuts what it always cut.
func TestDeltaSplitterCandidate(t *testing.T) {
	canon := readTestdata(t, "delta_v2.compact.golden.json")
	d := string(bytes.TrimSuffix(canon, []byte("\n")))
	legacy := string(bytes.TrimSpace(readTestdata(t, "delta_v2.golden.json")))
	spelled := strings.Replace(d, `"Region":"step000"`, `"Region":"a]}"`, 1)
	for _, tc := range []struct {
		in   string
		cand string // what Candidate proposes first; "" for nothing
		want []string
		hits int // cuts that were verified candidates
		err  string
	}{
		{in: "", want: nil},
		{in: " \n ", want: nil},
		{in: d + "\n", cand: d, want: []string{d}, hits: 1},
		{in: d, cand: d, want: []string{d}, hits: 1},
		{in: " \r\n" + d, cand: d, want: []string{d}, hits: 1},
		{in: d + d, cand: d, want: []string{d, d}, hits: 2},
		{in: d + "\n" + d + "\n", cand: d, want: []string{d, d}, hits: 2},
		// A string that spells the closer: a wrong guess, cut right by Next.
		{in: spelled, cand: spelled[:strings.Index(spelled, "]}")+2], want: []string{spelled}},
		{in: spelled + d, cand: spelled[:strings.Index(spelled, "]}")+2], want: []string{spelled, d}, hits: 1},
		// Ranks null spells no closer: the search runs on to the next one.
		{in: `{"Version":2,"Ranks":null}`, want: []string{`{"Version":2,"Ranks":null}`}},
		{in: `{"Version":2,"Ranks":null}` + d, cand: `{"Version":2,"Ranks":null}` + d, want: []string{`{"Version":2,"Ranks":null}`, d}, hits: 1},
		{in: `{"Version":2,"Ranks":[]}`, cand: `{"Version":2,"Ranks":[]}`, want: []string{`{"Version":2,"Ranks":[]}`}, hits: 1},
		{in: `{"Version":2]}`, cand: `{"Version":2]}`, want: []string{`{"Version":2]}`}},
		{in: `{"Version":2,"Ranks":[]}]}`, cand: `{"Version":2,"Ranks":[]}`, want: []string{`{"Version":2,"Ranks":[]}`}, hits: 1, err: "want '{'"},
		{in: `{"Version":2,"Ranks":[]`, err: "unexpected EOF"},
		{in: `{"Vers`, err: "unexpected EOF"},
		// Any other opening: not searched.
		{in: `{"a":1}`, want: []string{`{"a":1}`}},
		{in: legacy, want: []string{legacy}},
		{in: "{\n}", want: []string{"{\n}"}},
		{in: `{"version":2,"Ranks":[]}`, want: []string{`{"version":2,"Ranks":[]}`}},
		{in: `{}]}`, want: []string{`{}`}, err: "want '{'"},
		{in: `]}`, err: "want '{'"},
		{in: `[{"Version":2]}`, err: "want '{'"},
	} {
		for _, oneByte := range []bool{false, true} {
			var r io.Reader = strings.NewReader(tc.in)
			if oneByte {
				r = iotest.OneByteReader(r)
			}
			s := newDeltaSplitter(r, 0)
			if got := string(s.Candidate()); got != tc.cand {
				t.Fatalf("%.60q: candidate %.60q, want %.60q", tc.in, got, tc.cand)
			}
			if again := string(s.Candidate()); again != tc.cand {
				t.Fatalf("%.60q: second candidate %.60q, want %.60q", tc.in, again, tc.cand)
			}
			got, hits, err := frameAll(s, json.Valid)
			if len(got) != len(tc.want) || hits != tc.hits {
				t.Fatalf("%.60q: %d objects, %d of them candidates; want %d and %d", tc.in, len(got), hits, len(tc.want), tc.hits)
			}
			for i := range got {
				if string(got[i]) != tc.want[i] {
					t.Fatalf("%.60q: object %d = %.60q, want %.60q", tc.in, i, got[i], tc.want[i])
				}
			}
			if (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("%.60q: ended with %v, want %q", tc.in, err, tc.err)
			}
		}
	}
}

// onceReader hands over its bytes and fails the test if it is read after
// the last of them: a live client that has sent one delta and waits.
type onceReader struct {
	t    *testing.T
	rest []byte
}

func (r *onceReader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		r.t.Fatal("read past the delta the client sent")
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

// TestDeltaSplitterCandidateReadsNoFurther: a canonical delta is proposed
// from its own bytes, so a client that sent one and waits is not read
// again — not for the newline after it, and not however small the reads.
func TestDeltaSplitterCandidateReadsNoFurther(t *testing.T) {
	canon := readTestdata(t, "delta_v2.compact.golden.json")
	d := bytes.TrimSuffix(canon, []byte("\n"))
	for _, oneByte := range []bool{false, true} {
		for _, hint := range []int{0, len(d)} {
			var r io.Reader = &onceReader{t, d}
			if oneByte {
				r = iotest.OneByteReader(r)
			}
			if cand := newDeltaSplitter(r, hint).Candidate(); !bytes.Equal(cand, d) {
				t.Fatalf("one byte %v, hint %d: candidate %.60q, want the delta", oneByte, hint, cand)
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
	s := newDeltaSplitter(&flakyReader{halves: [2]string{`{"Version":2,"Ranks":[`, `]}`}, err: boom}, 0)
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
	canon := readTestdata(f, "delta_v2.compact.golden.json")
	delta := bytes.TrimSpace(canon)
	legacy := bytes.TrimSpace(readTestdata(f, "delta_v2.golden.json"))
	var flush, tabbed bytes.Buffer
	if err := json.Indent(&flush, delta, "", ""); err != nil {
		f.Fatal(err)
	}
	if err := json.Indent(&tabbed, delta, "", "\t"); err != nil {
		f.Fatal(err)
	}
	f.Add(canon)
	f.Add(legacy)
	f.Add(flush.Bytes())
	f.Add(tabbed.Bytes())
	f.Add(bytes.ReplaceAll(legacy, []byte("\n"), []byte("\r\n")))
	f.Add(bytes.Replace(delta, []byte(`"Region":"step000"`), []byte(`"Region":"a]}"`), 1))
	for _, seed := range framingSeeds(canon) {
		f.Add(seed)
	}
	for _, sep := range []string{"", " ", "\n"} {
		f.Add(bytes.Join([][]byte{delta, legacy, delta}, []byte(sep)))
		f.Add(bytes.Join([][]byte{flush.Bytes(), delta, tabbed.Bytes()}, []byte(sep)))
	}
	for at := 0; ; { // the old layout's closers, each a cut Next must refuse
		i := bytes.Index(flush.Bytes()[at:], []byte("\n}"))
		if i < 0 {
			break
		}
		at += i + 2
		f.Add(flush.Bytes()[:at:at])
	}
	for _, s := range []string{``, `{"Version":`, `{"Version":2]}`, `{"Version":2,"Ranks":null}{"Version":2,"Ranks":[]}`,
		`{"Version":2,"a":"]}"}`, `{"Version":2,"a":"\]}"}`, `{"Version":2,"Ranks":[]}]}`, "{\n}", `{"a":[1]}`, `[{"Version":]}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := splitAll(newDeltaSplitter(bytes.NewReader(body), 0))
		verify := func(cand []byte) bool {
			ok := json.Valid(cand)
			if _, err := DecodeDelta(cand); err == nil && !ok {
				t.Fatalf("DecodeDelta takes %q, which is not JSON", cand)
			}
			return ok
		}
		for _, r := range []io.Reader{bytes.NewReader(body), iotest.OneByteReader(bytes.NewReader(body))} {
			got, _, gerr := frameAll(newDeltaSplitter(r, len(body)%5), verify)
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
