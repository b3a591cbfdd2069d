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
