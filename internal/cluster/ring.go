// Package cluster lets N hfastd replicas share one logical artifact
// cache. A consistent-hash ring maps every stage key to an owning
// replica; on a local cache miss a non-owner fetches the serialized
// artifact from the owner over an authenticated /internal/artifact
// endpoint (bounded fan-out, per-fetch deadline, hedged retry) instead
// of rebuilding it. The fetch carries the stage's Recipe, so a cold
// owner builds through its own pipeline — its in-process singleflight
// becomes the cluster-wide one, and a hot cold key is built exactly
// once across all replicas. Every failure mode (owner down, peer miss,
// deadline, ring churn) falls back to a local build, so the cluster
// tier can only make requests faster, never fail them.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// DefaultVirtualNodes is the per-member virtual-node count. 64 points
// per member keeps the ownership split within a few percent of uniform
// for small static clusters.
const DefaultVirtualNodes = 64

// Replicas is the ring replication factor: how many distinct members
// are candidate owners for a key, and so the most peers one fill
// contacts.
const Replicas = 2

// Ring is an immutable consistent-hash ring over a static member list.
// Members are identified by their base URL; each contributes
// virtualNodes points, and a key is owned by the first members
// clockwise from its hash. Safe for concurrent use.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over the given members (order-insensitive;
// duplicates rejected) with virtualNodes points per member (0 selects
// DefaultVirtualNodes).
func NewRing(members []string, virtualNodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate ring member %q", sorted[i])
		}
	}
	r := &Ring{members: sorted, points: make([]ringPoint, 0, len(sorted)*virtualNodes)}
	for mi, m := range sorted {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{hashString(fmt.Sprintf("%s#%d", m, v)), mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.member < b.member
	})
	return r, nil
}

// Members returns the ring's member list in sorted order.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owners returns up to n distinct members that own key, in preference
// order: the first member clockwise from the key's hash, then the next
// distinct members around the ring. Fewer than n members yields all of
// them.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			owners = append(owners, r.members[p.member])
		}
	}
	return owners
}

func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// normalizeURL canonicalizes a replica base URL so that "-self" and
// "-peers" entries written with or without a trailing slash identify
// the same ring member.
func normalizeURL(u string) string { return strings.TrimRight(strings.TrimSpace(u), "/") }
