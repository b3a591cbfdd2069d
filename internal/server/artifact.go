package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/hfast-sim/hfast/internal/cluster"
	"github.com/hfast-sim/hfast/internal/pipeline"
)

// maxRecipeBytes caps a peer-fill request body; recipes are a few
// hundred bytes of stage parameters, never artifacts.
const maxRecipeBytes = 1 << 20

// handleArtifact serves the clustered tier's peer-fill endpoint:
// POST /internal/artifact/{key} with a pipeline.Recipe body returns the
// serialized stage artifact, building it through this replica's own
// pipeline on a cold cache — the in-process singleflight then acts as
// the cluster-wide one. Resolution runs under pipeline.LocalOnly so the
// requested key is never forwarded onward, keeping ring churn from
// creating fetch loops.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST", 0)
		return
	}
	if tok := s.cfg.ClusterToken; tok != "" {
		if subtle.ConstantTimeCompare([]byte(r.Header.Get(cluster.TokenHeader)), []byte(tok)) != 1 {
			s.writeError(w, http.StatusUnauthorized, "bad or missing cluster token", 0)
			return
		}
	}
	key := pipeline.Key(strings.TrimPrefix(r.URL.Path, cluster.ArtifactPathPrefix))
	if key == "" {
		s.writeError(w, http.StatusBadRequest, "missing artifact key", 0)
		return
	}
	var rec pipeline.Recipe
	r.Body = http.MaxBytesReader(w, r.Body, maxRecipeBytes)
	if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding recipe: %v", err), 0)
		return
	}
	if !rec.Fillable() {
		// Supplied-profile recipes only resolve on the uploading
		// replica; a 404 tells the peer to build locally.
		s.writeError(w, http.StatusNotFound, "recipe names no profile spec; not buildable here", 0)
		return
	}
	if err := s.checkSpec(*rec.Spec); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	derived, err := rec.Key()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if derived != key {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("recipe derives key %s, request names %s", derived, key), 0)
		return
	}

	ctx, cancel, err := s.requestContext(r, 0)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	defer cancel()
	v, how, err := s.pipe.Resolve(pipeline.LocalOnly(ctx), rec)
	if err != nil {
		s.writeArtifactError(w, err)
		return
	}
	data, err := pipeline.EncodeArtifact(rec.Stage, v)
	if err != nil {
		s.writeArtifactError(w, err)
		return
	}
	s.cluster.Metrics().AddServed()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-HFAST-Outcome", how.String())
	w.Write(data)
}

// writeArtifactError maps owner-side failures onto the peer-fill
// protocol's status contract: 429 saturated (the peer should build
// locally, not pile on), 504 deadline, 502 anything else. Never a
// generic 500 — the fetching replica classifies on status alone.
func (s *Server) writeArtifactError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrClosed):
		s.metrics.addRejected()
		s.writeError(w, http.StatusTooManyRequests, "all workers busy and queue full", s.retryAfterSeconds())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.metrics.addTimeout()
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the artifact was built", 0)
	default:
		s.writeError(w, http.StatusBadGateway, err.Error(), 0)
	}
}
