package ipm

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// Entry is one (signature, statistics) pair in a rank's hash.
type Entry struct {
	Key  Key
	Stat Stat
}

// RankProfile is the collected hash of a single rank.
type RankProfile struct {
	// Rank is the world rank.
	Rank int
	// Entries are the hash contents, sorted by key.
	Entries []Entry
	// Spilled counts events folded into catch-all buckets.
	Spilled int64
}

// SchemaVersion is the current version of the wire format shared by
// Profile and Delta. It is bumped only on incompatible changes; ReadJSON
// rejects profiles from a newer version so consumers fail loudly instead
// of misreading fields. Version history:
//
//	1 — batch Profile only.
//	2 — adds the streaming Delta envelope (delta.go). The Profile field
//	    set is unchanged, so v1 profiles decode unmodified.
const SchemaVersion = 2

// Profile is the merged communication profile of one application run.
//
// The JSON serialization (WriteJSON/ReadJSON) is the service wire format:
// field set and ordering are stable, slices are sorted (Ranks by rank,
// Entries by key), and the writer of wirewrite.go sorts the Params names
// by bytes as it emits them (the order encoding/json gives a map), so
// encode → decode → re-encode is byte-identical. A golden-file test
// guards the format against silent drift.
type Profile struct {
	// Version is the wire-format version (SchemaVersion when written by
	// this package; 0 in pre-versioning files, still accepted).
	Version int
	// App is the application skeleton name (e.g. "cactus").
	App string
	// Procs is the number of ranks.
	Procs int
	// Params records the workload parameters the run used.
	Params map[string]int
	// Ranks holds the per-rank hashes, sorted by rank.
	Ranks []RankProfile
}

// RegionFilter selects entries by region when scanning a profile. Its
// value is its canonical name — "all", "steady" or "region:<name>" — so a
// filter is comparable and content-addresses the artifacts built under
// it. The zero value selects every region, as AllRegions does; a name of
// any other form selects none.
type RegionFilter string

const (
	// AllRegions matches every region including code outside regions.
	AllRegions RegionFilter = "all"
	// SteadyState matches everything except the conventional "init"
	// region, reproducing the paper's exclusion of initialization traffic.
	SteadyState RegionFilter = "steady"
)

// regionPrefix heads the name of a one-region filter.
const regionPrefix = "region:"

// Region matches exactly one region name.
func Region(name string) RegionFilter { return RegionFilter(regionPrefix + name) }

// Named reports whether f is one of the canonical names; the zero value
// is not.
func (f RegionFilter) Named() bool {
	return f == AllRegions || f == SteadyState || strings.HasPrefix(string(f), regionPrefix)
}

// Match reports whether entries of the region pass the filter.
func (f RegionFilter) Match(region string) bool {
	switch f {
	case "", AllRegions:
		return true
	case SteadyState:
		return region != "init"
	}
	name, ok := strings.CutPrefix(string(f), regionPrefix)
	return ok && name == region
}

// Visit walks every entry of every rank that passes the filter.
func (p *Profile) Visit(filter RegionFilter, fn func(rank int, e Entry)) {
	for i := range p.Ranks {
		rp := &p.Ranks[i]
		for _, e := range rp.Entries {
			if filter.Match(e.Key.Region) {
				fn(rp.Rank, e)
			}
		}
	}
}

// CallCounts aggregates call counts across ranks for entries passing the
// filter.
func (p *Profile) CallCounts(filter RegionFilter) map[mpi.Call]int64 {
	out := make(map[mpi.Call]int64)
	p.Visit(filter, func(_ int, e Entry) {
		out[e.Key.Call] += e.Stat.Count
	})
	return out
}

// SizeCount is one point of a buffer-size histogram.
type SizeCount struct {
	// Bytes is the buffer size.
	Bytes int
	// Count is how many calls used it.
	Count int64
}

// sizeHistogram accumulates per-size counts for calls matching pred.
func (p *Profile) sizeHistogram(filter RegionFilter, pred func(mpi.Call) bool) []SizeCount {
	acc := make(map[int]int64)
	p.Visit(filter, func(_ int, e Entry) {
		if pred(e.Key.Call) {
			acc[e.Key.Bytes] += e.Stat.Count
		}
	})
	out := make([]SizeCount, 0, len(acc))
	for b, c := range acc {
		out = append(out, SizeCount{Bytes: b, Count: c})
	}
	sortSizeCounts(out)
	return out
}

func sortSizeCounts(s []SizeCount) {
	sort.Slice(s, func(i, j int) bool { return s[i].Bytes < s[j].Bytes })
}

// PTPSizes returns the histogram of point-to-point send buffer sizes
// (MPI_Send, MPI_Isend, MPI_Sendrecv), the basis of the paper's Figure 4.
func (p *Profile) PTPSizes(filter RegionFilter) []SizeCount {
	return p.sizeHistogram(filter, mpi.Call.IsPointToPoint)
}

// CollectiveSizes returns the histogram of collective payload sizes, the
// basis of the paper's Figure 3.
func (p *Profile) CollectiveSizes(filter RegionFilter) []SizeCount {
	return p.sizeHistogram(filter, mpi.Call.IsCollective)
}

// PairTraffic describes the point-to-point traffic from one rank to one
// partner.
type PairTraffic struct {
	// Src and Dst are world ranks (Src is the sender).
	Src, Dst int
	// Msgs is the number of messages sent.
	Msgs int64
	// Bytes is the total payload.
	Bytes int64
	// MaxMsg is the largest single message.
	MaxMsg int
}

// fold adds o's traffic to pt.
func (pt *PairTraffic) fold(o PairTraffic) {
	pt.Msgs += o.Msgs
	pt.Bytes += o.Bytes
	pt.MaxMsg = max(pt.MaxMsg, o.MaxMsg)
}

// Pairs extracts directed point-to-point traffic for entries passing the
// filter, sorted by (Src, Dst). Catch-all entries (no peer) are skipped.
func (p *Profile) Pairs(filter RegionFilter) []PairTraffic {
	left := 0 // entries in the ranks not yet folded
	for i := range p.Ranks {
		left += len(p.Ranks[i].Entries)
	}
	f := newPairRows(p.Procs, []PairTraffic{})
	for i := range p.Ranks {
		rp := &p.Ranks[i]
		f.begin(rp.Rank)
		for j := range rp.Entries {
			if e := &rp.Entries[j]; filter.Match(e.Key.Region) {
				f.add(e)
			}
		}
		left -= len(rp.Entries)
		f.end(len(p.Ranks)-1-i, left)
	}
	return f.done()
}

// pairRows is the one fold of entries into directed pair traffic, fed a
// source rank at a time: by Profile.Pairs, and by the pair scan of
// wirescan.go straight off the wire. Ranks ascend and peers are world
// ranks, so a rank's row is folded in a dense array and emitted in order;
// anything else costs a sort at the end. The pairs are appended to the
// slice the fold starts from.
type pairRows struct {
	row     []PairTraffic
	owner   []int // owner[d] == n: row[d] belongs to the n-th rank begun
	n       int   // ranks begun
	src     int   // the rank being folded
	out     []PairTraffic
	base    int // out[:base] was there before the fold
	inOrder bool
}

func newPairRows(procs int, out []PairTraffic) pairRows {
	procs = max(procs, 0)
	return pairRows{row: make([]PairTraffic, procs), owner: make([]int, procs), out: out, base: len(out), inOrder: true}
}

// begin opens the row of rank src.
func (f *pairRows) begin(src int) {
	f.inOrder = f.inOrder && (f.n == 0 || f.src < src)
	f.n++
	f.src = src
}

// add folds one entry of the open rank that passed the region filter.
func (f *pairRows) add(e *Entry) {
	dst := e.Key.Peer
	if !e.Key.Call.IsPointToPoint() || dst == mpi.NoPeer {
		return
	}
	one := PairTraffic{Src: f.src, Dst: dst, Msgs: e.Stat.Count, Bytes: e.Stat.TotalBytes, MaxMsg: max(0, e.Key.Bytes, e.Stat.MaxBytes)}
	if uint(dst) >= uint(len(f.row)) { // not a world rank: appended as is, folded in done
		f.out, f.inOrder = append(f.out, one), false
	} else if f.owner[dst] != f.n {
		f.owner[dst], f.row[dst] = f.n, one
	} else {
		f.row[dst].fold(one)
	}
}

// end closes the open rank's row. After the first, whose pair count
// guesses every rank's — the ranks of one program have about as many
// partners each — the output grows once for the ranks still to come, but
// never past the entries the input has left: a guess the input inflates
// is held to what the input can still add.
func (f *pairRows) end(ranksLeft, entriesLeft int) {
	for dst, o := range f.owner {
		if o == f.n {
			f.out = append(f.out, f.row[dst])
		}
	}
	if f.n == 1 {
		f.out = slices.Grow(f.out, max(0, min((len(f.out)-f.base)*ranksLeft, entriesLeft)))
	}
}

// done returns the slice the fold started from with the folded pairs
// appended, sorted by (Src, Dst).
func (f *pairRows) done() []PairTraffic {
	if f.inOrder {
		return f.out
	}
	out := f.out[f.base:]
	slices.SortFunc(out, func(a, b PairTraffic) int { return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst)) })
	n := 0
	for _, pt := range out {
		if n > 0 && out[n-1].Src == pt.Src && out[n-1].Dst == pt.Dst {
			out[n-1].fold(pt)
			continue
		}
		out[n] = pt
		n++
	}
	return f.out[:f.base+n]
}

// TotalCalls returns the number of communication calls passing the filter.
func (p *Profile) TotalCalls(filter RegionFilter) int64 {
	var n int64
	p.Visit(filter, func(_ int, e Entry) { n += e.Stat.Count })
	return n
}

// CommTime returns the total modeled seconds spent in communication calls
// passing the filter, summed over ranks (0 when profiling ran without a
// cost model).
func (p *Profile) CommTime(filter RegionFilter) float64 {
	var t float64
	p.Visit(filter, func(_ int, e Entry) { t += e.Stat.Time })
	return t
}

// WriteJSON serializes the profile in the versioned wire format (see
// wirewrite.go). It does not modify p — a zero Version is written as
// SchemaVersion — so one profile may be written from several goroutines.
func (p *Profile) WriteJSON(w io.Writer) error {
	return writeProfile(w, p)
}

// ReadJSON reads r to its end and decodes it as the one profile WriteJSON
// wrote there (see DecodeProfile). Concatenated values are not a profile;
// streams are made of deltas, and DeltaSplitter cuts those.
func ReadJSON(r io.Reader) (*Profile, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ipm: decoding profile: %w", err)
	}
	return DecodeProfile(raw)
}

// DecodeProfile decodes one encoded profile, by the scanner of
// wirescan.go when raw is canonical and by encoding/json otherwise, as
// DecodeDelta does for deltas: nothing but whitespace may follow the
// object, and the profile does not alias raw. Profiles written by a newer
// schema than this package understands are rejected.
func DecodeProfile(raw []byte) (*Profile, error) {
	p, ok := scanProfile(raw)
	if !ok {
		p = new(Profile)
		if err := json.Unmarshal(raw, p); err != nil {
			return nil, fmt.Errorf("ipm: decoding profile: %w", err)
		}
	}
	if p.Version > SchemaVersion {
		return nil, fmt.Errorf("ipm: profile wire format v%d is newer than supported v%d", p.Version, SchemaVersion)
	}
	return p, nil
}
