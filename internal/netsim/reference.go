package netsim

import (
	"fmt"
	"math"
	"sort"
)

// simulateReference is the original progressive-filling engine: at every
// arrival or completion event it rebuilds the max-min water-filling
// solution over all links and all active flows, and scans every active
// flow for the next completion. It is O(events × (links·rounds + flows))
// and unusable at the P=1024 grid, but its output is the correctness
// contract: parity tests pin Simulate's incremental engine to this
// solver on every skeleton's traffic (see parity_test.go), and
// FuzzSimulate cross-checks the two on random fabrics.
//
// Two bookkeeping fixes over the seed version, mirrored in the new
// engine so the pair stays comparable:
//   - completion ties break by flow index (the seed scanned a map, so
//     simultaneous completions resolved in map order);
//   - a flow's rate entry is removed at retirement, so a retired flow
//     can never receive further remaining -= r*dt drains.
func simulateReference(net *Network, router Router, flows []Flow) (Result, error) {
	type state struct {
		idx       int
		flow      Flow
		path      []int
		latency   float64
		remaining float64
		active    bool
		done      bool
		finish    float64
	}
	states := make([]*state, len(flows))
	res := Result{Flows: make([]FlowResult, len(flows))}
	linkBytes := make([]float64, net.Links())

	var pending []*state
	for i, f := range flows {
		path, lat, ok := router.RouteAppend(nil, f.Src, f.Dst)
		if err := validateFlow(i, f, lat, ok); err != nil {
			return Result{}, err
		}
		st := &state{idx: i, flow: f, remaining: float64(f.Bytes)}
		states[i] = st
		if !ok {
			st.done = true
			st.finish = -1
			res.Unroutable++
			continue
		}
		for _, l := range path {
			if l < 0 || l >= net.Links() {
				return Result{}, fmt.Errorf("netsim: flow %d routed over unknown link %d", i, l)
			}
			linkBytes[l] += float64(f.Bytes)
		}
		st.path, st.latency = path, lat
		pending = append(pending, st)
	}
	sort.SliceStable(pending, func(a, b int) bool { return pending[a].flow.Start < pending[b].flow.Start })

	now := 0.0
	nextArrival := 0
	activeCount := 0
	rates := make(map[*state]float64)

	computeRates := func() {
		// Max-min fair water-filling over active flows.
		for st := range rates {
			delete(rates, st)
		}
		type linkState struct {
			cap   float64
			flows int
		}
		ls := make([]linkState, net.Links())
		var active []*state
		for _, st := range states {
			if st.active && !st.done {
				active = append(active, st)
				for _, l := range st.path {
					ls[l].flows++
				}
			}
		}
		for i := range ls {
			ls[i].cap = net.links[i].Bandwidth
		}
		unfixed := append([]*state(nil), active...)
		for len(unfixed) > 0 {
			// Bottleneck link: minimal fair share among links with flows.
			bottleShare := math.Inf(1)
			for l := range ls {
				if ls[l].flows > 0 {
					share := ls[l].cap / float64(ls[l].flows)
					if share < bottleShare {
						bottleShare = share
					}
				}
			}
			if math.IsInf(bottleShare, 1) {
				break
			}
			// Fix every flow crossing a bottleneck link at that share.
			var rest []*state
			progressed := false
			for _, st := range unfixed {
				isBottle := false
				for _, l := range st.path {
					if ls[l].flows > 0 && ls[l].cap/float64(ls[l].flows) <= bottleShare*(1+1e-12) {
						isBottle = true
						break
					}
				}
				if isBottle {
					rates[st] = bottleShare
					progressed = true
					for _, l := range st.path {
						ls[l].cap -= bottleShare
						if ls[l].cap < 0 {
							ls[l].cap = 0
						}
						ls[l].flows--
					}
				} else {
					rest = append(rest, st)
				}
			}
			if !progressed {
				// Numerical corner: give everyone the bottleneck share.
				for _, st := range rest {
					rates[st] = bottleShare
				}
				break
			}
			unfixed = rest
		}
	}

	maxEvents := 16*len(flows) + 4096
	for iter := 0; ; iter++ {
		if iter > maxEvents {
			return Result{}, fmt.Errorf("netsim: no progress after %d events (t=%.6g, %d active)",
				iter, now, activeCount)
		}
		// Advance to the next event: a pending arrival or the earliest
		// completion at current rates. Exact ties break by flow index so
		// repeated runs are byte-identical despite the map iteration.
		nextEvent := math.Inf(1)
		if nextArrival < len(pending) {
			t := pending[nextArrival].flow.Start
			if t < nextEvent {
				nextEvent = t
			}
		}
		var firstDone *state
		for st, r := range rates {
			if r <= 0 {
				continue
			}
			t := now + st.remaining/r
			if t < nextEvent || (t == nextEvent && firstDone != nil && st.idx < firstDone.idx) {
				nextEvent = t
				firstDone = st
			}
		}
		if math.IsInf(nextEvent, 1) {
			if activeCount > 0 {
				return Result{}, fmt.Errorf("netsim: %d flows stalled with zero rate", activeCount)
			}
			break
		}
		// Drain transferred bytes up to the event. Sub-byte residues are
		// rounding noise (a completion time quantized to the float ulp of
		// `now` can leave r·ulp ≫ 1e-9 bytes behind at GB/s rates), so
		// anything under a thousandth of a byte counts as finished.
		dt := nextEvent - now
		for st, r := range rates {
			st.remaining -= r * dt
			if st.remaining < completionEpsilon {
				st.remaining = 0
			}
		}
		now = nextEvent
		changed := false
		if firstDone != nil {
			// This event *is* firstDone's completion: retire it even if
			// float rounding left a residue.
			firstDone.remaining = 0
			firstDone.done = true
			firstDone.active = false
			firstDone.finish = now + firstDone.latency
			delete(rates, firstDone)
			activeCount--
			changed = true
		}
		// Also retire any flow that hit zero simultaneously, dropping its
		// rate entry so it cannot be drained again.
		for st := range rates {
			if !st.done && st.remaining == 0 {
				st.done = true
				st.active = false
				st.finish = now + st.latency
				delete(rates, st)
				activeCount--
				changed = true
			}
		}
		for nextArrival < len(pending) && pending[nextArrival].flow.Start <= now+1e-15 {
			st := pending[nextArrival]
			nextArrival++
			if st.flow.Bytes == 0 {
				st.done = true
				st.finish = st.flow.Start + st.latency
				continue
			}
			st.active = true
			activeCount++
			changed = true
		}
		if changed {
			computeRates()
		}
	}

	for i, st := range states {
		res.Flows[i] = FlowResult{Finish: st.finish, Routed: st.finish >= 0}
		if st.finish > res.Makespan {
			res.Makespan = st.finish
		}
	}
	for _, b := range linkBytes {
		if b > res.MaxLinkBytes {
			res.MaxLinkBytes = b
		}
	}
	return res, nil
}
