package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/trace"
)

// StageFold is the incremental window-fold stage: one artifact per
// prefix of a delta stream.
const StageFold = "fold"

// FoldSeed identifies the empty state of a delta stream — the root of a
// fold chain. Zero Cutoff/Prefix select the usual defaults, and both
// participate in the key, so streams analyzed under different cutoffs or
// window prefixes never share state.
type FoldSeed struct {
	Procs  int    `json:"procs"`
	Cutoff int    `json:"cutoff"`
	Prefix string `json:"prefix"`
}

// Normalize is the one check of a seed, the one FoldInit makes: it
// refuses a negative cutoff and fills in the default cutoff and prefix.
func (s FoldSeed) Normalize() (FoldSeed, error) {
	if s.Cutoff < 0 {
		return s, fmt.Errorf("pipeline: negative cutoff %d", s.Cutoff)
	}
	s.Cutoff = normCutoff(s.Cutoff)
	if s.Prefix == "" {
		s.Prefix = "step"
	}
	return s, nil
}

type foldInputs struct {
	Prev  Key    `json:"prev"`
	Delta string `json:"delta"`
}

// FoldInit resolves the empty stream state for a seed and returns it
// with its chain key.
func (pl *Pipeline) FoldInit(ctx context.Context, seed FoldSeed) (*trace.StreamState, Key, Outcome, error) {
	seed, err := seed.Normalize()
	if err != nil {
		return nil, "", Miss, err
	}
	key := keyOf(StageFold, seed)
	v, how, err := pl.cache.do(ctx, StageFold, key, func(context.Context) (any, error) {
		return trace.NewStreamState(seed.Procs, seed.Cutoff, seed.Prefix)
	})
	if err != nil {
		return nil, "", how, err
	}
	return v.(*trace.StreamState), key, how, nil
}

// FoldWire folds one encoded delta — the bytes of its JSON object as
// received — into a stream state, returning the successor state and its
// chain key. The key derives from (previous state key, SHA-256 of raw),
// so replaying a stream whose warm prefix is cached is a chain of key
// lookups: the bytes are decoded, validated and folded only on a miss.
// A hit is sound because identical bytes already passed all of that
// against the identical predecessor, and a failure is never cached (the
// cache's usual discipline). Encodings of one delta that differ in a
// byte chain under their own keys.
//
// States are immutable snapshots; prev stays valid whatever the outcome.
// The fold runs detached from ctx and may still be reading raw when
// FoldWire returns an error, so the caller must not reuse raw's storage
// after one.
func (pl *Pipeline) FoldWire(ctx context.Context, prevKey Key, prev *trace.StreamState, raw []byte) (*trace.StreamState, Key, Outcome, error) {
	return pl.fold(ctx, prevKey, prev, raw, nil)
}

// FoldDelta is FoldWire for a caller holding the decoded delta: it names
// d by its canonical encoding, so struct callers and wire callers of
// canonical bytes share one chain, and folds d itself on a miss.
func (pl *Pipeline) FoldDelta(ctx context.Context, prevKey Key, prev *trace.StreamState, d *ipm.Delta) (*trace.StreamState, Key, Outcome, error) {
	var canon bytes.Buffer
	if err := d.WriteJSON(&canon); err != nil {
		return nil, "", Miss, fmt.Errorf("pipeline: encoding delta: %w", err)
	}
	// The encoder ends the value with a newline that is not part of it.
	return pl.fold(ctx, prevKey, prev, bytes.TrimSuffix(canon.Bytes(), []byte("\n")), d)
}

// fold resolves one link of a fold chain; d is nil until raw is decoded.
func (pl *Pipeline) fold(ctx context.Context, prevKey Key, prev *trace.StreamState, raw []byte, d *ipm.Delta) (*trace.StreamState, Key, Outcome, error) {
	if prev == nil {
		return nil, "", Miss, fmt.Errorf("pipeline: fold needs a previous state")
	}
	sum := sha256.Sum256(raw)
	key := keyOf(StageFold, foldInputs{Prev: prevKey, Delta: hex.EncodeToString(sum[:12])})
	v, how, err := pl.cache.do(ctx, StageFold, key, func(context.Context) (any, error) {
		return foldMiss(prev, raw, d)
	})
	if err != nil {
		return nil, "", how, err
	}
	return v.(*trace.StreamState), key, how, nil
}

// foldMiss folds a delta no link of the chain holds yet. Bytes the pair
// scan accepts are read for what the fold consumes, the header and the
// window's pair traffic; the scan declines everything else, which is
// decoded whole, so every error is DecodeDelta's or Fold's.
func foldMiss(prev *trace.StreamState, raw []byte, d *ipm.Delta) (*trace.StreamState, error) {
	var ns *trace.StreamState
	var err error
	if d != nil {
		ns, err = prev.Fold(d)
	} else if d, ns, err = foldScanned(prev, raw); d == nil {
		if d, err = ipm.DecodeDelta(raw); err != nil {
			return nil, err
		}
		ns, err = prev.Fold(d)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: fold delta %d (%q): %w", d.Seq, d.Window, err)
	}
	return ns, nil
}

// pairLists recycles the pair list a fold miss scans a window into. The
// list lives only until FoldPairs returns, because the graph copies what
// it keeps.
var pairLists = sync.Pool{New: func() any { return new([]ipm.PairTraffic) }}

// foldScanned folds raw by the pair scan, into a recycled pair list. d is
// nil when the scan declines raw.
func foldScanned(prev *trace.StreamState, raw []byte) (*ipm.Delta, *trace.StreamState, error) {
	buf := pairLists.Get().(*[]ipm.PairTraffic)
	defer pairLists.Put(buf)
	d, pairs, ok := ipm.DecodeDeltaPairs(raw, prev.Procs, (*buf)[:0])
	if !ok {
		return nil, nil, nil
	}
	*buf = pairs
	ns, err := prev.FoldPairs(d, pairs)
	return d, ns, err
}
