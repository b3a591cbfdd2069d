package ipm

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
)

// wireWriter is the one encoder of a Delta or Profile, and so the
// definition of "canonical": byte for byte what json.Encoder writes for
// these types — compact, fields in declaration order, null for a nil
// Params, Ranks or Entries and {} or [] for an empty one, Params names
// sorted, a newline after the value — appended by hand, without
// reflection. The scanner of wirescan.go reads the same grammar back;
// encoding/json is the oracle both are tested against.
//
// The value is read and never written. Whatever would make the encoder
// refuse it is found before the first byte goes out, so an error from the
// value leaves w untouched; after that, bytes leave in chunks of about
// wireChunk, and the only error is w's own.
type wireWriter struct {
	w   io.Writer
	buf []byte
}

// wireChunk is how much the writer gathers before handing it to w: a hash
// or a connection never sees the value whole.
const wireChunk = 64 << 10

// Rough encoded sizes, a little over what the skeletons' entries (≈ 140
// bytes each) and ranks take, so a buffer told to grow by their sum grows
// once.
const (
	wireEntrySize  = 160
	wireRankSize   = 48
	wireHeaderSize = 128
)

// The gaps: every fixed byte run the writer puts between two values, each
// named once here and written and read by these constants alone. The
// scanner consumes a gap by one comparison when the bytes are the
// writer's own, and byte by byte, skipping whitespace, otherwise
// (wireScanner.lit). A gap that follows an array's '[' or ',' starts at
// the member's '{'.
const (
	gapVersion  = `{"Version":`
	gapApp      = `,"App":`
	gapProcs    = `,"Procs":`
	gapParams   = `,"Params":`
	gapSeq      = `,"Seq":`
	gapWindow   = `,"Window":`
	gapRanks    = `,"Ranks":`
	gapRank     = `{"Rank":`
	gapEntries  = `,"Entries":`
	gapSpilled  = `,"Spilled":`
	gapRankEnd  = `}`
	gapCall     = `{"Key":{"Call":`
	gapBytes    = `,"Bytes":`
	gapPeer     = `,"Peer":`
	gapRegion   = `,"Region":`
	gapCount    = `},"Stat":{"Count":`
	gapTotal    = `,"TotalBytes":`
	gapMax      = `,"MaxBytes":`
	gapTime     = `,"Time":`
	gapEntryEnd = `}}`
)

// writeDelta writes d to w as WriteJSON promises.
func writeDelta(w io.Writer, d *Delta) error {
	ww, err := newWireWriter(w, len(d.Params), d.Ranks)
	if err != nil {
		return err
	}
	ww.header(d.Version, d.App, d.Procs, d.Params)
	b := append(ww.buf, gapSeq...)
	b = strconv.AppendInt(b, int64(d.Seq), 10)
	b = append(b, gapWindow...)
	ww.buf = appendWireString(b, d.Window)
	return ww.ranks(d.Ranks)
}

// writeProfile is writeDelta for a profile.
func writeProfile(w io.Writer, p *Profile) error {
	ww, err := newWireWriter(w, len(p.Params), p.Ranks)
	if err != nil {
		return err
	}
	ww.header(p.Version, p.App, p.Procs, p.Params)
	return ww.ranks(p.Ranks)
}

// newWireWriter checks that ranks can be encoded — a Time that is not
// finite is the one thing in either type that cannot — and sizes the
// buffer from the entry count. A w that can grow ahead of its writes (a
// bytes.Buffer) is told the size, and then takes the chunks without
// reallocating.
func newWireWriter(w io.Writer, params int, ranks []RankProfile) (wireWriter, error) {
	size := wireHeaderSize + 32*params + wireRankSize*len(ranks)
	for i := range ranks {
		es := ranks[i].Entries
		for j := range es {
			if f := es[j].Stat.Time; math.IsInf(f, 0) || math.IsNaN(f) {
				return wireWriter{}, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
		}
		size += wireEntrySize * len(es)
	}
	if g, ok := w.(interface{ Grow(n int) }); ok {
		g.Grow(size)
	}
	return wireWriter{w: w, buf: make([]byte, 0, min(size, wireChunk+wireEntrySize+wireRankSize))}, nil
}

// header writes the fields Delta and Profile open with, from '{' to the
// end of Params. A zero version is written as SchemaVersion.
func (ww *wireWriter) header(version int, app string, procs int, params map[string]int) {
	if version == 0 {
		version = SchemaVersion
	}
	b := append(ww.buf, gapVersion...)
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(b, gapApp...)
	b = appendWireString(b, app)
	b = append(b, gapProcs...)
	b = strconv.AppendInt(b, int64(procs), 10)
	b = append(b, gapParams...)
	switch {
	case params == nil:
		b = append(b, "null"...)
	case len(params) == 0:
		b = append(b, "{}"...)
	default:
		names := make([]string, 0, len(params))
		for name := range params {
			names = append(names, name)
		}
		slices.Sort(names) // by bytes, as encoding/json orders a map's keys
		for i, name := range names {
			b = appendWireString(member(b, i, '{'), name)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(params[name]), 10)
		}
		b = append(b, '}')
	}
	ww.buf = b
}

// ranks writes the Ranks field, the last of both types, the closing
// brace and the newline, and hands what is left to w.
func (ww *wireWriter) ranks(ranks []RankProfile) error {
	b := append(ww.buf, gapRanks...)
	switch {
	case ranks == nil:
		b = append(b, "null"...)
	case len(ranks) == 0:
		b = append(b, "[]"...)
	default:
		for i := range ranks {
			rp := &ranks[i]
			b = append(member(b, i, '['), gapRank...)
			b = strconv.AppendInt(b, int64(rp.Rank), 10)
			b = append(b, gapEntries...)
			ww.buf = b
			if err := ww.entries(rp.Entries); err != nil {
				return err
			}
			b = append(ww.buf, gapSpilled...)
			b = strconv.AppendInt(b, rp.Spilled, 10)
			b = append(b, gapRankEnd...)
		}
		b = append(b, ']')
	}
	b = append(b, "}\n"...)
	_, err := ww.w.Write(b)
	return err
}

// entries writes one rank's Entries value, handing the buffer to w each
// time it passes wireChunk.
func (ww *wireWriter) entries(es []Entry) error {
	b := ww.buf
	switch {
	case es == nil:
		b = append(b, "null"...)
	case len(es) == 0:
		b = append(b, "[]"...)
	default:
		for i := range es {
			e := &es[i]
			b = append(member(b, i, '['), gapCall...)
			b = strconv.AppendInt(b, int64(e.Key.Call), 10)
			b = append(b, gapBytes...)
			b = strconv.AppendInt(b, int64(e.Key.Bytes), 10)
			b = append(b, gapPeer...)
			b = strconv.AppendInt(b, int64(e.Key.Peer), 10)
			b = append(b, gapRegion...)
			b = appendWireString(b, e.Key.Region)
			b = append(b, gapCount...)
			b = strconv.AppendInt(b, e.Stat.Count, 10)
			b = append(b, gapTotal...)
			b = strconv.AppendInt(b, e.Stat.TotalBytes, 10)
			b = append(b, gapMax...)
			b = strconv.AppendInt(b, int64(e.Stat.MaxBytes), 10)
			b = append(b, gapTime...)
			b = appendWireFloat(b, e.Stat.Time)
			b = append(b, gapEntryEnd...)
			if len(b) >= wireChunk {
				if _, err := ww.w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
		b = append(b, ']')
	}
	ww.buf = b
	return nil
}

// member appends what comes before the i-th member of an object or
// array: the opening byte before the first, a comma before the others.
func member(b []byte, i int, opening byte) []byte {
	if i == 0 {
		return append(b, opening)
	}
	return append(b, ',')
}

// appendWireString appends s as a JSON string. Printable ASCII free of
// the bytes encoding/json escapes (the quote, the backslash and, for
// HTML's sake, <, > and &) is copied between quotes; any other string is
// encoding/json's to spell.
func appendWireString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendWireFloat appends a finite f in encoding/json's form: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and
// from 1e21, with a one-digit exponent written as one digit.
func appendWireFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b
}
