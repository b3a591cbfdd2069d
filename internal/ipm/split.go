package ipm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// DeltaSplitter cuts a stream of concatenated JSON deltas into its
// top-level objects without decoding them, so a consumer that addresses
// deltas by content can hash the received bytes and decode only the ones
// it has not seen. Next matches braces outside string literals and checks
// nothing else: the bytes it yields are exactly what json.Decoder would
// consume for the same value when that value is valid JSON, and whatever
// else it lets through fails at decode. Candidate guesses the same cut
// from the canonical layout alone, for a consumer that can tell a delta
// from a wrong guess.
type DeltaSplitter struct {
	r          io.Reader
	buf        []byte
	start, end int   // buf[start:end] is read but not yet yielded
	cand       int   // length of the candidate Accept consumes
	err        error // what the reader ended with; fill repeats it
}

// Reset points the splitter, which may be a zero DeltaSplitter, at a new
// stream read from r, keeping the buffer it has unless sizeHint asks for
// a larger one: a positive sizeHint, such as a request's Content-Length,
// sizes the buffer so a stream of that many bytes is read without growing
// it. The bytes earlier calls to Next returned are overwritten from here
// on.
func (s *DeltaSplitter) Reset(r io.Reader, sizeHint int) {
	s.r, s.start, s.end, s.cand, s.err = r, 0, 0, 0, nil
	if sizeHint > 0 && sizeHint >= len(s.buf) {
		s.buf = make([]byte, sizeHint+1) // +1: room to read the EOF without growing
	}
}

// Next returns the bytes of the next object, from its '{' to the
// matching '}'. The slice aliases the splitter's one buffer and is
// overwritten by the following call. A stream that ends between objects
// ends with io.EOF, one that ends inside an object with
// io.ErrUnexpectedEOF.
func (s *DeltaSplitter) Next() ([]byte, error) {
	for ; ; s.start++ {
		if s.start == s.end {
			if err := s.fill(); err != nil {
				return nil, err
			}
		}
		if c := s.buf[s.start]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			break
		}
	}
	if c := s.buf[s.start]; c != '{' {
		return nil, fmt.Errorf("ipm: delta stream: want '{' opening a delta, found %q", c)
	}
	// Nine bytes in ten are none of the four that matter, so the loop
	// spends its one well-predicted branch on dismissing them: this scan
	// is most of what a warm replay pays per delta. A backslash skips the
	// byte it escapes, which may carry i one past the end, so one fill
	// (at least a byte each) may not be enough to reach it.
	depth, inString := 0, false
	b := s.buf[:s.end]
	for i := s.start; ; i++ {
		for i >= len(b) {
			off := i - s.start
			if err := s.fill(); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
			i, b = s.start+off, s.buf[:s.end]
		}
		c := b[i]
		if !structural[c] {
			continue
		}
		switch {
		case c == '"':
			inString = !inString
		case inString:
			if c == '\\' {
				i++
			}
		case c == '{':
			depth++
		case c == '}':
			if depth--; depth == 0 {
				raw := b[s.start : i+1 : i+1]
				s.start = i + 1
				return raw, nil
			}
		}
	}
}

// Candidate proposes the next object without matching its braces: the
// unread bytes from their first '{' to the first "]}". WriteJSON's
// encoding closes Ranks and the value there and spells "]}" nowhere
// else, so for canonical bytes that is the object, found at the speed of
// a byte search; a string that spells "]}", or Ranks written as null,
// makes it a wrong guess. The caller decides: bytes that decode as one
// JSON value are the cut Next would make (a valid object is its own
// shortest brace-balanced prefix) and Accept consumes them; after
// anything else the caller calls Next, which cuts from the same '{' as
// if Candidate had not been called, so a cut of the candidate's length is
// the candidate. Only an object that opens as the canonical layout does,
// with gapVersion, is searched; any other is not read past its end for a
// "]}" that may never come. A stream with nothing to propose — it ended,
// failed, or opens with other bytes — yields nil and Next says why. The
// slice aliases the buffer like Next's.
func (s *DeltaSplitter) Candidate() []byte {
	s.cand = 0
	for ; ; s.start++ {
		if s.start == s.end && s.fill() != nil {
			return nil
		}
		if c := s.buf[s.start]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			break
		}
	}
	for off := 0; ; {
		b := s.buf[s.start:s.end]
		if n := min(len(b), len(gapVersion)); string(b[:n]) != gapVersion[:n] {
			return nil
		}
		if i := bytes.Index(b[off:], []byte("]}")); i >= 0 {
			s.cand = off + i + 2
			return b[:s.cand:s.cand]
		}
		off = len(b) - 1 // a ']' at the end may be the closer's first half
		if s.fill() != nil {
			return nil
		}
	}
}

// Accept consumes the bytes the last call to Candidate returned.
func (s *DeltaSplitter) Accept() {
	s.start += s.cand
	s.cand = 0
}

// structural marks the bytes that change the splitter's state.
var structural = [256]bool{'"': true, '\\': true, '{': true, '}': true}

// fill reads more of the stream behind buf[start:end], first moving the
// unread bytes to the front of the buffer, or to a larger one when they
// fill it. A failed read ends the stream: the reader is not asked again,
// so Next reports what a Candidate before it ran into.
func (s *DeltaSplitter) fill() error {
	if s.err != nil {
		return s.err
	}
	if s.start > 0 {
		s.end = copy(s.buf, s.buf[s.start:s.end])
		s.start = 0
	}
	if s.end == len(s.buf) {
		grown := make([]byte, 2*len(s.buf)+4096)
		copy(grown, s.buf[:s.end])
		s.buf = grown
	}
	for empty := 0; empty < 100; empty++ { // as bufio: a Reader may return 0, nil, but not forever
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if n > 0 {
			return nil
		}
		if err != nil {
			s.err = err
			return err
		}
	}
	s.err = io.ErrNoProgress
	return s.err
}

// PeekDeltaProcs reads the Procs field of an encoded delta token by
// token and stops there (canonical encodings put it third), so a
// consumer can size a stream's initial state before deciding whether the
// delta needs decoding at all. Field names match as encoding/json
// matches them, case-insensitively; a delta without the field reads 0.
// The value is a hint, not a verdict: only a full decode sees a repeated
// field or what follows it.
func PeekDeltaProcs(raw []byte) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	tok, err := dec.Token()
	if err == nil && tok != json.Delim('{') {
		err = fmt.Errorf("want a JSON object, found %v", tok)
	}
	for err == nil && dec.More() {
		var name json.Token
		if name, err = dec.Token(); err != nil {
			break
		}
		if key, _ := name.(string); strings.EqualFold(key, "Procs") {
			var procs int
			if err = dec.Decode(&procs); err != nil {
				break
			}
			return procs, nil
		}
		var skip json.RawMessage
		err = dec.Decode(&skip)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrDeltaDecode, err)
	}
	return 0, nil
}
