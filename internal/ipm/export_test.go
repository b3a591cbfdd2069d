package ipm

import (
	"fmt"
	"sync"
)

// The scanner's entry points, for the external tests that assert which
// path decoded an input.
var (
	ScanDelta   = scanDelta
	ScanProfile = scanProfile
)

// FramingSeeds is split_test.go's seed set for a compact canonical body,
// shared with the decoder's fuzz target.
var FramingSeeds = framingSeeds

// WireGaps is the writer's gap table, in the order a delta spells it.
var WireGaps = []string{
	gapVersion, gapApp, gapProcs, gapParams, gapSeq, gapWindow, gapRanks,
	gapRank, gapEntries, gapSpilled, gapRankEnd,
	gapCall, gapBytes, gapPeer, gapRegion, gapCount, gapTotal, gapMax, gapTime, gapEntryEnd,
}

// ResetScratchPool forgets every finished world's scratch: the state of a
// process that has profiled nothing yet.
func ResetScratchPool() { scratchPool = sync.Pool{New: scratchPool.New} }

// PooledScratch looks at the scratch the pool hands out next: how many
// collectors it carries, and what state a finished world left in one, if
// any did ("" when each is as good as new).
func PooledScratch() (collectors int, leak string) {
	sc := scratchPool.Get().(*worldScratch)
	defer scratchPool.Put(sc)
	for r, c := range sc.ranks {
		if c == nil {
			continue
		}
		collectors++
		if t := &c.tab; c.live || t.n != 0 || t.live != 0 || t.spilled != 0 || t.last != nil ||
			len(t.names) != 1 || len(t.ids) != 1 || t.region != "" || t.regionID != 0 {
			leak = fmt.Sprintf("rank %d: live %v, table %+v", r, c.live, *t)
		}
	}
	return collectors, leak
}
