package ipm

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// Delta is one time-windowed increment of a streaming profile: the
// per-rank entries observed inside a single code region (window), in the
// same versioned wire conventions as Profile — Ranks sorted by rank,
// Entries sorted by key, stable field set — so encode → decode →
// re-encode is byte-identical. Deltas appeared in schema v2; v1 readers
// never see them (they only exchange whole profiles), and v1 profiles
// decode unchanged under v2.
type Delta struct {
	// Version is the wire-format version (SchemaVersion when written by
	// this package).
	Version int
	// App and Procs identify the run the delta belongs to; every delta of
	// one stream carries the same values, and folders reject mismatches.
	App   string
	Procs int
	// Params records the workload parameters of the run (carried on every
	// delta so each is self-contained; MergeDeltas takes the first's).
	Params map[string]int
	// Seq is the delta's zero-based position in its stream. Folders use
	// it to detect gaps and reordering.
	Seq int
	// Window is the code region this delta covers ("" for traffic outside
	// any region).
	Window string
	// Ranks holds the window's per-rank entries, sorted by rank. Every
	// rank of the run appears, even when it saw no traffic in the window,
	// so Procs can be cross-checked. Spilled carries the catch-all fold
	// count attributed to this window (SplitDeltas attributes the whole
	// run's spill to the final delta, since the batch counter is global).
	Ranks []RankProfile
}

// WriteJSON serializes the delta in the versioned wire format (see
// wirewrite.go). Like Profile.WriteJSON it does not modify its receiver.
func (d *Delta) WriteJSON(w io.Writer) error {
	return writeDelta(w, d)
}

// ErrDeltaDecode marks bytes that do not decode as a Delta, as opposed
// to a decoded delta that fails Validate.
var ErrDeltaDecode = errors.New("ipm: decoding delta")

// ReadDeltaJSON reads r to its end and decodes it as the one delta
// WriteJSON wrote there (see DecodeDelta). A stream of concatenated
// deltas is DeltaSplitter's to cut.
func ReadDeltaJSON(r io.Reader) (*Delta, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDeltaDecode, err)
	}
	return DecodeDelta(raw)
}

// DecodeDelta decodes one encoded delta: raw holds a JSON object and
// nothing after it but whitespace. Canonical bytes — WriteJSON's own, in
// any whitespace — go through the scanner of wirescan.go; anything else
// is decoded, or refused, by encoding/json. Deltas that fail Validate,
// which includes those written by a newer schema than this package
// understands, are rejected. The delta does not alias raw.
func DecodeDelta(raw []byte) (*Delta, error) {
	d, ok := scanDelta(raw)
	if !ok {
		d = new(Delta)
		if err := json.Unmarshal(raw, d); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrDeltaDecode, err)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Validate checks the structural invariants a folder relies on.
func (d *Delta) Validate() error {
	if d.Version > SchemaVersion {
		return fmt.Errorf("ipm: delta wire format v%d is newer than supported v%d", d.Version, SchemaVersion)
	}
	if d.Procs <= 0 {
		return fmt.Errorf("ipm: delta %q seq %d has non-positive proc count %d", d.App, d.Seq, d.Procs)
	}
	for i := range d.Ranks {
		if r := d.Ranks[i].Rank; r < 0 || r >= d.Procs {
			return fmt.Errorf("ipm: delta %q seq %d: rank %d out of range [0,%d)", d.App, d.Seq, r, d.Procs)
		}
		if i > 0 && d.Ranks[i].Rank <= d.Ranks[i-1].Rank {
			return fmt.Errorf("ipm: delta %q seq %d: ranks not strictly sorted at index %d", d.App, d.Seq, i)
		}
	}
	return nil
}

// AsProfile views the delta as a single-window profile, the shape the
// topology and trace packages consume. The rank slices are shared with
// the delta; callers must not mutate them.
func (d *Delta) AsProfile() *Profile {
	return &Profile{
		Version: d.Version,
		App:     d.App,
		Procs:   d.Procs,
		Params:  d.Params,
		Ranks:   d.Ranks,
	}
}

// CompareRegions orders region names as the region-per-step skeletons
// enter them: a shorter name first, then lexicographically. Sorting the
// names alone would put "step1000" before "step101" — step numbers are
// padded to three digits, not to the run's width. "" and "init" precede
// every step either way. SplitDeltas and the program-order check of a
// stream fold both use this one order.
func CompareRegions(a, b string) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

// SplitDeltas decomposes a batch profile into its per-window delta
// stream, one delta per region in CompareRegions order (the program
// order of the skeletons: "init" precedes "step000" …). Folding
// the stream back with MergeDeltas reproduces the profile exactly, so
// the streaming and batch paths provably share one source of truth.
func SplitDeltas(p *Profile) ([]*Delta, error) {
	if p.Procs <= 0 {
		return nil, fmt.Errorf("ipm: profile %q has non-positive proc count %d", p.App, p.Procs)
	}
	// Counting pass: the regions in order of first appearance, and how many
	// entries each rank holds in each. Entries sort by call, then region,
	// so neighbours mostly share one and the map is seldom asked.
	type window struct {
		region string
		counts []int // per index into p.Ranks
	}
	var wins []window
	index := make(map[string]int)
	cur := -1
	lookup := func(region string) int {
		if cur >= 0 && wins[cur].region == region {
			return cur
		}
		k, ok := index[region]
		if !ok {
			k = len(wins)
			index[region] = k
			wins = append(wins, window{region, make([]int, len(p.Ranks))})
		}
		cur = k
		return k
	}
	for i := range p.Ranks {
		es := p.Ranks[i].Entries
		for j := range es {
			wins[lookup(es[j].Key.Region)].counts[i]++
		}
	}
	if len(wins) == 0 {
		lookup("") // empty profile still yields one (empty) delta
	}
	// Each delta's entries are one block, cut into per-rank slices that
	// cannot grow into a neighbour; a rank with none keeps a nil Entries.
	out := make([]*Delta, len(wins))
	for k, win := range wins {
		total := 0
		for _, c := range win.counts {
			total += c
		}
		block := make([]Entry, total)
		d := &Delta{
			Version: SchemaVersion,
			App:     p.App,
			Procs:   p.Procs,
			Params:  p.Params,
			Window:  win.region,
			Ranks:   make([]RankProfile, len(p.Ranks)),
		}
		for i, c := range win.counts {
			d.Ranks[i].Rank = p.Ranks[i].Rank
			if c > 0 {
				d.Ranks[i].Entries, block = block[:0:c], block[c:]
			}
		}
		out[k] = d
	}
	// Fill pass.
	for i := range p.Ranks {
		es := p.Ranks[i].Entries
		for j := range es {
			dr := &out[lookup(es[j].Key.Region)].Ranks[i]
			dr.Entries = append(dr.Entries, es[j])
		}
	}
	slices.SortFunc(out, func(a, b *Delta) int { return CompareRegions(a.Window, b.Window) })
	for seq, d := range out {
		d.Seq = seq
	}
	for i := range p.Ranks {
		out[len(out)-1].Ranks[i].Spilled = p.Ranks[i].Spilled
	}
	return out, nil
}

// MergeDeltas folds a complete delta stream back into a batch profile:
// per-rank entries are merge-sorted by key and spill counts summed. The
// deltas must agree on App/Procs; windows must be distinct.
func MergeDeltas(ds []*Delta) (*Profile, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("ipm: merging empty delta stream")
	}
	first := ds[0]
	windows := make(map[string]bool, len(ds))
	byRank := make(map[int]*RankProfile)
	for _, d := range ds {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if d.App != first.App || d.Procs != first.Procs {
			return nil, fmt.Errorf("ipm: delta stream mixes runs: %q/%d vs %q/%d", d.App, d.Procs, first.App, first.Procs)
		}
		if windows[d.Window] {
			return nil, fmt.Errorf("ipm: delta stream repeats window %q", d.Window)
		}
		windows[d.Window] = true
		for i := range d.Ranks {
			dr := &d.Ranks[i]
			rp, ok := byRank[dr.Rank]
			if !ok {
				rp = &RankProfile{Rank: dr.Rank}
				byRank[dr.Rank] = rp
			}
			rp.Entries = append(rp.Entries, dr.Entries...)
			rp.Spilled += dr.Spilled
		}
	}
	p := &Profile{
		Version: SchemaVersion,
		App:     first.App,
		Procs:   first.Procs,
		Params:  first.Params,
		Ranks:   make([]RankProfile, 0, len(byRank)),
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		rp := byRank[r]
		sortEntries(rp.Entries)
		p.Ranks = append(p.Ranks, *rp)
	}
	return p, nil
}
