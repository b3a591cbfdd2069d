package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/hfast-sim/hfast/internal/pipeline"
)

// ArtifactPathPrefix is the peer-fill endpoint's URL prefix; the stage
// key follows it.
const ArtifactPathPrefix = "/internal/artifact/"

// TokenHeader carries the shared cluster secret on peer-fill requests.
const TokenHeader = "X-HFAST-Cluster-Token"

// Sentinel errors classifying why a peer fill did not produce an
// artifact. Every one of them makes the pipeline fall back to a local
// build; the distinction feeds metrics and the status mapping
// (deadline → 504, other remote failures → 502).
var (
	// ErrSelfOwned: this replica is the key's ring owner — resolve
	// locally, there is no cheaper peer.
	ErrSelfOwned = errors.New("key is owned by this replica")
	// ErrPeerMiss: the owner answered 404 — it cannot build the
	// artifact (e.g. a supplied-profile recipe).
	ErrPeerMiss = errors.New("peer does not have the artifact")
	// ErrPeerDeadline: the fetch (or the owner's build) exceeded its
	// deadline.
	ErrPeerDeadline = errors.New("peer fetch deadline exceeded")
	// ErrPeerUnavailable: transport failure or unexpected status.
	ErrPeerUnavailable = errors.New("peer unavailable")
)

// DefaultFetchTimeout bounds one peer fetch, including the owner's
// build time for artifacts downstream of an already-warm profile.
const DefaultFetchTimeout = 2 * time.Second

// maxArtifactBytes bounds one fetched artifact; anything past this is
// a protocol error, not a plausible stage artifact.
const maxArtifactBytes = 256 << 20

// Config describes one replica's view of the cluster. Membership is
// static: the full replica list (including this one) is supplied at
// startup via -peers.
type Config struct {
	// Self is this replica's own base URL as it appears in Peers.
	Self string
	// Peers lists every replica's base URL, including Self.
	Peers []string
	// Token, when non-empty, authenticates peer-fill requests; every
	// replica must share it.
	Token string
	// FetchTimeout bounds one peer fetch (default DefaultFetchTimeout). A
	// fill waits a quarter of it on the first candidate before launching
	// a hedged fetch to the next.
	FetchTimeout time.Duration
}

// Filler is the peer-fill coordinator: it implements pipeline.Filler by
// resolving a stage key to its ring owner and fetching the serialized
// artifact from it. Safe for concurrent use.
type Filler struct {
	cfg     Config
	ring    *Ring
	metrics *Metrics
}

// NewFiller validates the config and builds the ring. Self must appear
// in Peers (after URL normalization), and the cluster needs at least
// one other member for a filler to be useful.
func NewFiller(cfg Config) (*Filler, error) {
	cfg.Self = normalizeURL(cfg.Self)
	peers := make([]string, 0, len(cfg.Peers))
	self := false
	for _, p := range cfg.Peers {
		p = normalizeURL(p)
		if p == "" {
			continue
		}
		peers = append(peers, p)
		if p == cfg.Self {
			self = true
		}
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: self URL is required when peers are set")
	}
	if !self {
		return nil, fmt.Errorf("cluster: self URL %q is not in the peer list %v", cfg.Self, peers)
	}
	if len(peers) < 2 {
		return nil, fmt.Errorf("cluster: need at least two replicas, got %v", peers)
	}
	cfg.Peers = peers
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = DefaultFetchTimeout
	}
	ring, err := NewRing(peers, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	return &Filler{cfg: cfg, ring: ring, metrics: &Metrics{s: Snapshot{Peers: len(peers)}}}, nil
}

// Metrics exposes the cache-tier counters.
func (f *Filler) Metrics() *Metrics { return f.metrics }

// Peers returns the cluster's member URLs in sorted order.
func (f *Filler) Peers() []string { return f.ring.Members() }

// Self returns this replica's normalized base URL.
func (f *Filler) Self() string { return f.cfg.Self }

// Owners returns the key's candidate owners in preference order.
func (f *Filler) Owners(key pipeline.Key) []string {
	return f.ring.Owners(string(key), Replicas)
}

// Fill implements pipeline.Filler: fetch the artifact for key from its
// ring owner. Self-owned keys return ErrSelfOwned immediately (the
// local build IS the authoritative one); otherwise candidate owners
// are contacted with a hedged, deadline-bounded fetch. Any error makes
// the pipeline fall back to a local build.
func (f *Filler) Fill(ctx context.Context, key pipeline.Key, rec pipeline.Recipe) ([]byte, error) {
	owners := f.Owners(key)
	if len(owners) == 0 || owners[0] == f.cfg.Self {
		f.metrics.addLocalOwned()
		return nil, fmt.Errorf("cluster: %s: %w", key, ErrSelfOwned)
	}
	var candidates []string
	for _, o := range owners {
		if o != f.cfg.Self {
			candidates = append(candidates, o)
		}
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding recipe for %s: %w", key, err)
	}
	start := time.Now()
	data, err := f.hedgedFetch(ctx, key, body, candidates)
	if err != nil {
		f.metrics.addFillFailure(errors.Is(err, ErrPeerMiss))
		return nil, err
	}
	f.metrics.addPeerHit(len(data), time.Since(start).Seconds())
	return data, nil
}

// hedgedFetch races the candidate owners: the first is contacted
// immediately, each further one after FetchTimeout/4 — or right away when
// an earlier fetch fails. The first success wins and cancels the rest.
func (f *Filler) hedgedFetch(ctx context.Context, key pipeline.Key, body []byte, candidates []string) ([]byte, error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		data []byte
		err  error
	}
	// Buffered to len(candidates) so losing fetches never block.
	results := make(chan result, len(candidates))
	launched := 0
	launch := func(hedge bool) {
		peer := candidates[launched]
		launched++
		if hedge {
			f.metrics.addHedged()
		}
		go func() {
			data, err := f.fetchOne(fctx, peer, key, body)
			results <- result{data, err}
		}()
	}
	launch(false)
	hedge := time.NewTimer(f.cfg.FetchTimeout / 4)
	defer hedge.Stop()
	var miss, deadline bool
	for pending := 1; pending > 0; {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				return r.data, nil
			}
			miss = miss || errors.Is(r.err, ErrPeerMiss)
			deadline = deadline || errors.Is(r.err, ErrPeerDeadline)
			if launched < len(candidates) {
				launch(false)
				pending++
			}
		case <-hedge.C:
			if launched < len(candidates) {
				launch(true)
				pending++
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster: fetch %s: %w", key, ErrPeerDeadline)
		}
	}
	switch {
	case miss:
		// A 404 is authoritative: the owner cannot build this recipe.
		return nil, fmt.Errorf("cluster: fetch %s: %w", key, ErrPeerMiss)
	case deadline:
		return nil, fmt.Errorf("cluster: fetch %s: %w", key, ErrPeerDeadline)
	}
	return nil, fmt.Errorf("cluster: fetch %s: %w", key, ErrPeerUnavailable)
}

// fetchOne POSTs the recipe to one peer's artifact endpoint and returns
// the serialized artifact, classifying failures into the sentinels.
func (f *Filler) fetchOne(ctx context.Context, peer string, key pipeline.Key, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+ArtifactPathPrefix+string(key), bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: %v: %w", peer, err, ErrPeerUnavailable)
	}
	req.Header.Set("Content-Type", "application/json")
	if f.cfg.Token != "" {
		req.Header.Set(TokenHeader, f.cfg.Token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("cluster: peer %s: %w", peer, ErrPeerDeadline)
		}
		return nil, fmt.Errorf("cluster: peer %s: %v: %w", peer, err, ErrPeerUnavailable)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes+1))
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %s: reading artifact: %v: %w", peer, err, ErrPeerUnavailable)
		}
		if len(data) > maxArtifactBytes {
			return nil, fmt.Errorf("cluster: peer %s: artifact exceeds %d bytes: %w", peer, maxArtifactBytes, ErrPeerUnavailable)
		}
		return data, nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("cluster: peer %s: %w", peer, ErrPeerMiss)
	case http.StatusGatewayTimeout:
		return nil, fmt.Errorf("cluster: peer %s: %w", peer, ErrPeerDeadline)
	default:
		return nil, fmt.Errorf("cluster: peer %s: status %d: %w", peer, resp.StatusCode, ErrPeerUnavailable)
	}
}
