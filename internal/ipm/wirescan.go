package ipm

import (
	"strconv"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// wireScanner decodes the canonical encoding of a Delta or Profile — the
// bytes the writer of wirewrite.go emits, which is what "canonical"
// means, give or take JSON whitespace — without reflection. Writer and
// scanner are the two halves of one grammar, sharing one table of the
// bytes between values (the gaps of wirewrite.go), and it is fixed:
// every field present, spelled and ordered as the struct declares it
// (in any JSON whitespace); integers of at most 18 digits with
// no fraction or exponent; floats in JSON's number grammar, converted by
// the strconv.ParseFloat call encoding/json makes; strings of printable
// ASCII without escapes; null only where WriteJSON writes one (Params,
// Ranks, Entries). That is a strict subset of what encoding/json accepts
// for these types, and on it the scanner builds the value encoding/json
// builds. At the first byte outside the grammar it gives up — it never
// reports an error of its own — and the caller decodes the same bytes
// with encoding/json, so what is accepted, what is rejected and with
// which error do not depend on the scanner.
//
// The grammar has two consumers. scanDelta and scanProfile build the
// value. DecodeDeltaPairs builds a delta's header and folds each entry
// straight into its window's pair rows (pairRows, shared with
// Profile.Pairs), building no Entry, Region or Time; it also gives up
// where Validate would refuse, so what it accepts DecodeDelta accepts.
//
// Every string in the result is a copy: the value does not alias b.
type wireScanner struct {
	b   []byte
	i   int
	bad bool // gave up; i is parked at len(b), so every later read fails too

	region  string  // the last Region built, reused while entries repeat it
	scratch []Entry // the rank being read, copied out at its exact size

	pairs *pairRows // non-nil: the window's entries fold into it and are not built
}

// scanDelta decodes raw if it is a canonical delta; ok is false when the
// scanner gave up and d is to be discarded.
func scanDelta(raw []byte) (d *Delta, ok bool) {
	s := wireScanner{b: raw}
	d = s.deltaHeader()
	d.Ranks = s.ranks(d.Procs)
	return d, s.end()
}

// DecodeDeltaPairs is DecodeDelta for a fold that reads nothing of a
// delta but its header and its window's pair traffic. When raw is a
// canonical delta over procs ranks that Validate accepts, it returns the
// header — Ranks nil — and dst with exactly what
// d.AsProfile().Pairs(Region(d.Window)) returns for the delta DecodeDelta
// builds appended, without building an Entry, a Region string or a Time.
// A caller that recycles the list passes its storage as dst[:0]. ok is
// false for anything else: non-canonical bytes, a Procs other than procs,
// a delta Validate refuses. Those are DecodeDelta's to decode or refuse,
// and its error is the one to report. Nothing returned aliases raw.
func DecodeDeltaPairs(raw []byte, procs int, dst []PairTraffic) (d *Delta, pairs []PairTraffic, ok bool) {
	s := wireScanner{b: raw}
	d = s.deltaHeader()
	// Procs is checked before it sizes anything.
	if s.bad || d.Version > SchemaVersion || procs <= 0 || d.Procs != procs {
		return nil, nil, false
	}
	rows := newPairRows(procs, dst)
	s.pairs = &rows
	s.ranks(procs)
	if !s.end() {
		return nil, nil, false
	}
	return d, rows.done(), true
}

// scanProfile is scanDelta for a profile.
func scanProfile(raw []byte) (p *Profile, ok bool) {
	s := wireScanner{b: raw}
	p = new(Profile)
	s.header(&p.Version, &p.App, &p.Procs, &p.Params)
	p.Ranks = s.ranks(p.Procs)
	return p, s.end()
}

// deltaHeader reads a delta's fields up to Ranks.
func (s *wireScanner) deltaHeader() *Delta {
	d := new(Delta)
	s.header(&d.Version, &d.App, &d.Procs, &d.Params)
	s.lit(gapSeq)
	d.Seq = s.int()
	s.lit(gapWindow)
	d.Window = s.str("")
	s.region = d.Window // every entry of a window carries its name
	return d
}

// header reads the fields Delta and Profile open with, from '{' to the
// end of Params.
func (s *wireScanner) header(version *int, app *string, procs *int, params *map[string]int) {
	s.lit(gapVersion)
	*version = s.int()
	s.lit(gapApp)
	*app = s.str("")
	s.lit(gapProcs)
	*procs = s.int()
	s.lit(gapParams)
	if !s.null() {
		*params = make(map[string]int)
		for more := s.open('{', '}'); more; more = s.sep('}') {
			name := s.str("")
			s.tok(':')
			(*params)[name] = s.int() // a repeated name: the last wins, as in encoding/json
		}
	}
}

// ranks reads the Ranks field, the last of both types. procs, which the
// input also chose, is only a hint for the slice's capacity and is held
// to the number of ranks the remaining bytes could spell. Folding into
// pairs, it builds no slice, and procs is the stream's: a rank Validate
// would refuse gives up.
func (s *wireScanner) ranks(procs int) []RankProfile {
	s.lit(gapRanks)
	if s.null() {
		return nil
	}
	const minRank = len(`{"Rank":0,"Entries":[],"Spilled":0},`)
	const minEntry = len(gapCall + "0" + gapBytes + "0" + gapPeer + "0" + gapRegion + `""` +
		gapCount + "0" + gapTotal + "0" + gapMax + "0" + gapTime + "0" + gapEntryEnd + ",")
	var out []RankProfile
	if s.pairs == nil {
		out = make([]RankProfile, 0, max(0, min(procs, (len(s.b)-s.i)/minRank+1)))
	}
	for more := s.open('[', ']'); more; more = s.sep(']') {
		var rp RankProfile
		s.lit(gapRank)
		rp.Rank = s.int()
		if f := s.pairs; f != nil {
			if uint(rp.Rank) >= uint(procs) || (f.n > 0 && rp.Rank <= f.src) {
				s.fail()
			}
			f.begin(rp.Rank)
		}
		s.lit(gapEntries)
		rp.Entries = s.entries()
		s.lit(gapSpilled)
		rp.Spilled = s.int64()
		s.lit(gapRankEnd)
		if s.pairs == nil {
			out = append(out, rp)
			continue
		}
		// Ranks ascend below procs, and every entry left spells at least
		// minEntry bytes.
		s.pairs.end(procs-1-rp.Rank, (len(s.b)-s.i)/minEntry)
	}
	return out
}

// entries reads one rank's Entries value. Folding into pairs, it folds
// each entry of the window's region and returns nil.
func (s *wireScanner) entries() []Entry {
	if s.null() {
		return nil
	}
	s.scratch = s.scratch[:0]
	var one Entry // the entry being folded into pairs
	for more := s.open('[', ']'); more; more = s.sep(']') {
		e := &one
		if s.pairs == nil {
			s.scratch = append(s.scratch, Entry{})
			e = &s.scratch[len(s.scratch)-1]
		}
		s.lit(gapCall)
		e.Key.Call = mpi.Call(s.int())
		s.lit(gapBytes)
		e.Key.Bytes = s.int()
		s.lit(gapPeer)
		e.Key.Peer = s.int()
		s.lit(gapRegion)
		inRegion := true
		if s.pairs == nil {
			s.region = s.str(s.region)
			e.Key.Region = s.region
		} else {
			inRegion = string(s.strToken()) == s.region
		}
		s.lit(gapCount)
		e.Stat.Count = s.int64()
		s.lit(gapTotal)
		e.Stat.TotalBytes = s.int64()
		s.lit(gapMax)
		e.Stat.MaxBytes = s.int()
		s.lit(gapTime)
		if s.pairs == nil {
			e.Stat.Time = s.float()
		} else {
			s.skipFloat()
		}
		s.lit(gapEntryEnd)
		if s.pairs != nil && inRegion {
			s.pairs.add(e)
		}
	}
	if s.pairs != nil {
		return nil
	}
	return append(make([]Entry, 0, len(s.scratch)), s.scratch...)
}

// end reads the closing brace of the top-level object and reports
// whether the whole of b was canonical: nothing but whitespace may follow.
func (s *wireScanner) end() bool {
	s.tok('}')
	s.peek()
	return !s.bad && s.i == len(s.b)
}

func (s *wireScanner) fail() {
	s.bad, s.i = true, len(s.b)
}

// peek skips whitespace and returns the byte under the cursor, 0 at the
// end of input.
func (s *wireScanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c > ' ' || (c != ' ' && c != '\n' && c != '\r' && c != '\t') {
			return c
		}
	}
	return 0
}

// tok consumes the structural byte c.
func (s *wireScanner) tok(c byte) {
	if s.peek() != c {
		s.fail()
		return
	}
	s.i++
}

// skip consumes lit if the bytes under the cursor spell it.
func (s *wireScanner) skip(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// lit consumes gap, one of the writer's fixed byte runs (wirewrite.go).
// The writer's own bytes match in one comparison. Any other spacing — the
// indented layout, tabs, CRLF, a space before ':' — is matched byte by
// byte, with whitespace skipped before every byte of the gap outside a
// field name's quotes.
func (s *wireScanner) lit(gap string) {
	if s.skip(gap) {
		return
	}
	inName := false
	for j := 0; j < len(gap); j++ {
		if !inName {
			s.peek()
		}
		if s.i == len(s.b) || s.b[s.i] != gap[j] {
			s.fail()
			return
		}
		s.i++
		inName = inName != (gap[j] == '"')
	}
}

// null consumes a null if one is next.
func (s *wireScanner) null() bool {
	return s.peek() == 'n' && s.skip("null")
}

// open consumes the opening byte of an object or array and reports
// whether it has members; an empty one is consumed whole.
func (s *wireScanner) open(opening, closing byte) bool {
	s.tok(opening)
	if s.peek() != closing {
		return !s.bad
	}
	s.i++
	return false
}

// sep consumes what follows a member: a comma, reporting that another
// member follows, or the closing byte.
func (s *wireScanner) sep(closing byte) bool {
	if s.peek() == ',' {
		s.i++
		return true
	}
	s.tok(closing)
	return false
}

// int64 reads an integer: an optional minus, then 0 or a run of at most
// 18 digits not led by 0, which fits without an overflow check.
func (s *wireScanner) int64() int64 {
	s.peek()
	i, b := s.i, s.b
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	first := i
	var v int64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if n := i - first; n == 0 || n > 18 || (n > 1 && b[first] == '0') {
		s.fail()
		return 0
	}
	// A '.', 'e' or 'E' here makes this a float where an integer belongs,
	// which encoding/json rejects; every caller expects a ',' or '}' next.
	s.i = i
	if neg {
		v = -v
	}
	return v
}

func (s *wireScanner) int() int {
	v := s.int64()
	if int64(int(v)) != v { // a 32-bit int: the range error is encoding/json's to word
		s.fail()
		return 0
	}
	return int(v)
}

// number reads a number in JSON's grammar, which strconv.ParseFloat
// alone would not hold the token to. It returns the token and mag, a
// bound on its size: the number is below 10^mag in magnitude.
func (s *wireScanner) number() (tok []byte, mag int) {
	s.peek()
	b, first := s.b, s.i
	digits := func(i int) int { // the end of the digit run at i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i
	}
	i := first
	if i < len(b) && b[i] == '-' {
		i++
	}
	intEnd := digits(i)
	if intEnd == i || (intEnd > i+1 && b[i] == '0') {
		s.fail()
		return nil, 0
	}
	mag = intEnd - i // digits before the point: below 10^mag, also for "0"
	i = intEnd
	if i < len(b) && b[i] == '.' {
		if i = digits(i + 1); b[i-1] == '.' {
			s.fail()
			return nil, 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || neg) {
			i++
		}
		exp, expStart := 0, i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if exp < 1<<20 { // saturated far past any exponent that matters
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if i == expStart {
			s.fail()
			return nil, 0
		}
		if neg {
			exp = -exp
		}
		mag += exp
	}
	s.i = i
	return b[first:i], mag
}

// float reads a number and converts it as encoding/json does.
func (s *wireScanner) float() float64 {
	tok, _ := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil { // out of range: encoding/json's error
		s.fail()
		return 0
	}
	return f
}

// skipFloat reads a number as float does, accepting exactly the tokens
// float accepts, without converting it. In JSON's grammar the only error
// left to strconv.ParseFloat is a value out of float64's range, whose
// largest is 1.797…e308: below 10^308 none is, so only a token that may
// reach past 10^308 is converted, to find out.
func (s *wireScanner) skipFloat() {
	if tok, mag := s.number(); mag > 308 {
		if _, err := strconv.ParseFloat(string(tok), 64); err != nil {
			s.fail()
		}
	}
}

// strToken reads a string of printable ASCII with no escapes and returns
// the bytes between its quotes, which alias b.
func (s *wireScanner) strToken() []byte {
	if s.peek() != '"' {
		s.fail()
		return nil
	}
	i, b := s.i+1, s.b
	for ; i < len(b) && b[i] != '"'; i++ {
		if c := b[i]; c < ' ' || c > '~' || c == '\\' {
			s.fail()
			return nil
		}
	}
	if i == len(b) {
		s.fail()
		return nil
	}
	tok := b[s.i+1 : i]
	s.i = i + 1
	return tok
}

// str reads a string as strToken does and returns prev when it spells
// prev, a copy otherwise.
func (s *wireScanner) str(prev string) string {
	tok := s.strToken()
	if s.bad {
		return ""
	}
	if string(tok) == prev {
		return prev
	}
	return string(tok)
}
