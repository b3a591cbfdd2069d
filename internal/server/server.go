package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/cluster"
	core "github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/icn"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/topology"
)

// Runner executes one profiling run; injectable so tests can count and
// pace pipeline executions.
type Runner = pipeline.Runner

// Config tunes the service. Zero values select the defaults.
type Config struct {
	// Workers bounds concurrent pipeline executions
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; beyond it
	// requests are shed with 429 (default: 4×Workers).
	QueueDepth int
	// CacheEntries is the artifact-cache capacity (default: 128).
	CacheEntries int
	// DefaultTimeout bounds requests that carry no timeout_ms
	// (default: 2m). MaxTimeout caps client-supplied deadlines
	// (default: 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxProcs rejects absurd world sizes before any work starts
	// (default: 1024).
	MaxProcs int
	// Runner overrides the profiling pipeline (default:
	// apps.ProfileRunContext).
	Runner Runner
	// Peers, when set, joins this replica to a clustered artifact tier:
	// the full list of replica base URLs, including this one. SelfURL
	// names this replica's own entry. Stage keys are consistent-hashed
	// across the peers; local misses fill from the key's owner instead
	// of rebuilding.
	Peers   []string
	SelfURL string
	// PeerTimeout bounds one peer fetch (default 2s). ClusterToken,
	// when non-empty, authenticates /internal/artifact requests.
	PeerTimeout  time.Duration
	ClusterToken string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 1024
	}
	if c.Runner == nil {
		c.Runner = apps.ProfileRunContext
	}
	return c
}

// Server is the hfastd HTTP service. Create with New, mount Handler, and
// call Shutdown to drain. All analysis artifacts — profiles, plans,
// comparisons — resolve through one internal/pipeline store: the server
// contributes request admission (worker pool, deadlines, draining) and
// wire formats, nothing else.
type Server struct {
	cfg      Config
	metrics  *Metrics
	pool     *pool
	pipe     *pipeline.Pipeline
	cluster  *cluster.Filler // nil when not clustered
	mux      *http.ServeMux
	streams  streams
	draining atomic.Bool
	inflight sync.WaitGroup
}

// New creates a Server with the given configuration. It fails only on
// an invalid cluster configuration (SelfURL missing from Peers, fewer
// than two replicas).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	p := newPool(cfg.Workers, cfg.QueueDepth)
	s := &Server{cfg: cfg, pool: p, mux: http.NewServeMux(), streams: streams{max: maxStreamSessions}}
	m := NewMetrics(p.queueDepth, s.streams.len)
	s.metrics = m
	opts := pipeline.Options{
		CacheEntries: cfg.CacheEntries,
		// A profile run, the one expensive stage, takes a worker slot; pool
		// errors come back %w-wrapped, so saturation still maps to 429.
		Runner: func(ctx context.Context, app string, c apps.Config) (*ipm.Profile, error) {
			if err := p.acquire(ctx); err != nil {
				return nil, err
			}
			defer p.release()
			m.addRun()
			return cfg.Runner(ctx, app, c)
		},
	}
	var filler *cluster.Filler
	if len(cfg.Peers) > 0 {
		var err error
		filler, err = cluster.NewFiller(cluster.Config{
			Self:         cfg.SelfURL,
			Peers:        cfg.Peers,
			Token:        cfg.ClusterToken,
			FetchTimeout: cfg.PeerTimeout,
		})
		if err != nil {
			return nil, err
		}
		opts.Filler = filler
	}
	s.pipe, s.cluster = pipeline.New(opts), filler
	s.mux.HandleFunc("/v1/apps", s.handleApps)
	s.mux.HandleFunc("/v1/profile", s.handleProfile)
	s.mux.HandleFunc("/v1/provision", s.handleProvision)
	s.mux.HandleFunc("/v1/compare", s.handleCompare)
	s.mux.HandleFunc("/v1/stream/", s.handleStream)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	if s.cluster != nil {
		s.mux.HandleFunc(cluster.ArtifactPathPrefix, s.handleArtifact)
	}
	return s, nil
}

// Metrics exposes the server's counters for tests and embedding.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Pipeline exposes the artifact store for tests and embedding.
func (s *Server) Pipeline() *pipeline.Pipeline { return s.pipe }

// Cluster exposes the peer-fill coordinator (nil when not clustered).
func (s *Server) Cluster() *cluster.Filler { return s.cluster }

// Handler returns the root handler: request accounting wrapped around the
// route mux.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serveHTTP) }

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.inflight.Add(1)
	s.metrics.inflight.Add(1)
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	path := routeLabel(r.URL.Path)
	// /readyz is exempt so it can report the drain itself (plain 503,
	// no Retry-After JSON) — that is its whole job.
	if s.draining.Load() && path != "/metrics" && path != "/healthz" && path != "/readyz" {
		s.writeError(rec, http.StatusServiceUnavailable, "server is draining", s.retryAfterSeconds())
	} else {
		s.mux.ServeHTTP(rec, r)
	}
	s.metrics.inflight.Add(-1)
	s.inflight.Done()
	s.metrics.ObserveRequest(path, rec.code, time.Since(start).Seconds())
}

// routeLabel bounds metric label cardinality to the known routes.
func routeLabel(p string) string {
	switch p {
	case "/v1/apps", "/v1/profile", "/v1/provision", "/v1/compare", "/metrics", "/healthz", "/readyz":
		return p
	}
	if strings.HasPrefix(p, "/v1/stream/") {
		return "/v1/stream"
	}
	if strings.HasPrefix(p, cluster.ArtifactPathPrefix) {
		return "/internal/artifact"
	}
	return "other"
}

// Shutdown drains the service: new requests are refused with 503 while
// in-flight handlers, queued work, and running pipeline flights complete.
// It returns ctx.Err() if the drain outlives ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.pipe.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.pool.close()
		return ctx.Err()
	}
	s.pool.close()
	return nil
}

// --- request plumbing ---

// requestContext applies the per-request deadline: timeout_ms from the
// query, else from the body (bodyMS), clamped to MaxTimeout; 0 or none
// means the server default. A malformed or negative timeout_ms is an
// error, which the caller answers with 400.
func (s *Server) requestContext(r *http.Request, bodyMS int64) (context.Context, context.CancelFunc, error) {
	ms := bodyMS
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("timeout_ms: %w", err)
		}
		ms = v
	}
	d := s.cfg.DefaultTimeout
	switch {
	case ms < 0:
		return nil, nil, fmt.Errorf("timeout_ms: %d is negative", ms)
	case ms > int64(s.cfg.MaxTimeout/time.Millisecond):
		d = s.cfg.MaxTimeout // also keeps ms × 1e6 from overflowing
	case ms > 0:
		d = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), min(d, s.cfg.MaxTimeout))
	return ctx, cancel, nil
}

// retryAfterSeconds estimates when shed load is worth retrying: one
// second per queued request, at least 1, at most 60.
func (s *Server) retryAfterSeconds() int {
	secs := 1 + s.pool.queueDepth()
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, fmt.Sprintf("encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	s.writeJSON(w, code, ErrorResponse{Error: msg, RetryAfterSeconds: retryAfter})
}

// writePipelineError maps pipeline failures to HTTP semantics: pool
// saturation → 429 + Retry-After, missed deadline → 504, bad input → 400.
// Pool and context errors travel through the pipeline unwrapped or
// %w-wrapped, so errors.Is sees them regardless of which stage failed.
func (s *Server) writePipelineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrClosed):
		s.metrics.addRejected()
		s.writeError(w, http.StatusTooManyRequests, "all workers busy and queue full; retry later", s.retryAfterSeconds())
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.addTimeout()
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the pipeline finished", 0)
	case errors.Is(err, context.Canceled):
		// The client went away; the code is for the access log only.
		s.writeError(w, http.StatusGatewayTimeout, "request canceled", 0)
	case errors.Is(err, cluster.ErrPeerDeadline):
		// Peer-fill errors normally fall back to a local build inside
		// the pipeline and never reach here; these cases are defensive,
		// so a leaked cluster failure reads as 504/502, never 500/400.
		s.metrics.addTimeout()
		s.writeError(w, http.StatusGatewayTimeout, "peer fetch deadline exceeded", 0)
	case errors.Is(err, cluster.ErrPeerUnavailable), errors.Is(err, cluster.ErrPeerMiss):
		s.writeError(w, http.StatusBadGateway, err.Error(), 0)
	default:
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
	}
}

// recordOutcome maps the TOP-LEVEL stage outcome of a request onto the
// request-facing counters. Nested stage resolutions inside a flight are
// accounted by the pipeline's own per-stage metrics, not here, so the
// request counters keep their original meaning (one outcome per request).
func (s *Server) recordOutcome(how pipeline.Outcome) {
	switch how {
	case pipeline.Hit:
		s.metrics.addCacheHit()
	case pipeline.Miss:
		s.metrics.addCacheMiss()
	case pipeline.Coalesced:
		s.metrics.addCoalesced()
	}
}

// checkSpec refuses a profile run this server will not make: an unknown
// app, or procs outside (0, MaxProcs]. Every request that names a spec,
// a peer's recipe included, passes it before anything resolves.
func (s *Server) checkSpec(spec pipeline.ProfileSpec) error {
	if spec.App == "" {
		return errors.New("missing \"app\"")
	}
	if _, err := apps.Lookup(spec.App); err != nil {
		return err
	}
	if spec.Procs <= 0 {
		return fmt.Errorf("\"procs\" must be positive, got %d", spec.Procs)
	}
	if spec.Procs > s.cfg.MaxProcs {
		return fmt.Errorf("\"procs\" %d exceeds the server limit %d", spec.Procs, s.cfg.MaxProcs)
	}
	return nil
}

// specOf is the cache identity of a profiling run (deadline excluded: it
// bounds the request, not the result).
func specOf(req ProfileRequest) pipeline.ProfileSpec {
	return pipeline.ProfileSpec{App: req.App, Procs: req.Procs, Steps: req.Steps, Scale: req.Scale, Seed: req.Seed}
}

// --- handlers ---

// handleHealthz is pure liveness: the process is up and serving. It
// stays 200 through a drain so orchestrators do not kill a draining
// replica that is still finishing work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is drain-aware readiness: it flips to 503 the moment
// Shutdown begins, so load balancers stop routing new work while
// in-flight requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET", 0)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
	s.pipe.Metrics().WritePrometheus(w)
	if s.cluster != nil {
		s.cluster.Metrics().WritePrometheus(w)
	}
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET", 0)
		return
	}
	all := apps.All()
	out := make([]AppResponse, 0, len(all))
	for _, in := range all {
		out = append(out, AppResponse{
			Name:         in.Name,
			Discipline:   in.Discipline,
			Problem:      in.Problem,
			Structure:    in.Structure,
			Case:         in.Case,
			PaperLines:   in.PaperLines,
			DefaultScale: in.DefaultScale,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST", 0)
		return
	}
	var req ProfileRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	spec := specOf(req)
	if err := s.checkSpec(spec); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	ctx, cancel, err := s.requestContext(r, req.TimeoutMS)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	defer cancel()
	prof, how, err := s.pipe.Profile(ctx, pipeline.Spec(spec))
	s.recordOutcome(how)
	if err != nil {
		s.writePipelineError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	prof.WriteJSON(w)
}

func (s *Server) handleProvision(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST", 0)
		return
	}
	var req ProvisionRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}

	var ref pipeline.ProfileRef
	switch {
	case req.Profile != nil:
		// Uploaded profile: content-addressed by its canonical encoding;
		// no worker slot needed, provisioning is cheap. The graph and
		// assign stages size themselves by its Procs, so it is held to
		// the bound a spec is.
		if p := req.Profile.Procs; p <= 0 || p > s.cfg.MaxProcs {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("profile procs %d outside (0,%d]", p, s.cfg.MaxProcs), 0)
			return
		}
		var err error
		if ref, err = pipeline.Supplied(req.Profile); err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error(), 0)
			return
		}
	default:
		spec := specOf(req.ProfileRequest)
		if err := s.checkSpec(spec); err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error(), 0)
			return
		}
		ref = pipeline.Spec(spec)
	}

	ctx, cancel, err := s.requestContext(r, req.TimeoutMS)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	defer cancel()
	plan, how, err := s.pipe.Plan(ctx, ref, pipeline.Steady(), req.Cutoff, req.BlockSize)
	s.recordOutcome(how)
	if err != nil {
		s.writePipelineError(w, err)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writePlanText(w, plan)
		return
	}
	resp := planResponse(plan)
	if r.URL.Query().Get("detail") == "full" {
		resp.Partners = plan.Assignment.Partners
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET", 0)
		return
	}
	q := r.URL.Query()
	req := ProfileRequest{App: q.Get("app")}
	var err error
	if req.Procs, err = intParam(q.Get("procs"), 64); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("procs: %v", err), 0)
		return
	}
	if req.Steps, err = intParam(q.Get("steps"), 0); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("steps: %v", err), 0)
		return
	}
	cutoff, err := intParam(q.Get("cutoff"), topology.DefaultCutoff)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("cutoff: %v", err), 0)
		return
	}
	blockSize, err := intParam(q.Get("blocksize"), core.DefaultBlockSize)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("blocksize: %v", err), 0)
		return
	}
	spec := specOf(req)
	if err := s.checkSpec(spec); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}

	ref := pipeline.Spec(spec)
	inputs := struct {
		Profile   pipeline.Key `json:"profile"`
		Cutoff    int          `json:"cutoff"`
		BlockSize int          `json:"block_size"`
	}{ref.Key(), cutoff, blockSize}
	ctx, cancel, err := s.requestContext(r, 0)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	defer cancel()
	v, how, err := s.pipe.Derived(ctx, "compare-response", inputs, func(fctx context.Context) (any, error) {
		return s.buildComparison(fctx, ref, cutoff, blockSize)
	})
	s.recordOutcome(how)
	if err != nil {
		s.writePipelineError(w, err)
		return
	}
	resp := v.(*CompareResponse)
	if q.Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeCompareText(w, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// --- response builders ---

func planResponse(p *pipeline.Plan) *ProvisionResponse {
	a := p.Assignment
	u, max := p.Summary.Ports, p.Summary.MaxRoute
	return &ProvisionResponse{
		App:           p.App,
		Procs:         p.Procs,
		Cutoff:        a.Cutoff,
		BlockSize:     a.BlockSize,
		TotalBlocks:   a.TotalBlocks,
		BlocksPerNode: float64(a.TotalBlocks) / float64(a.P),
		Ports: PortsResponse{
			Active:      u.ActivePorts,
			UsedActive:  u.UsedActivePorts,
			Passive:     u.PassivePorts,
			Utilization: u.Utilization(),
		},
		MaxRoute:    RouteResponse{SBHops: max.SBHops, Crossings: max.Crossings},
		SwitchPorts: p.Summary.SwitchPorts,
		LitPorts:    p.Summary.LitPorts,
		Circuits:    p.Summary.LitPorts / 2,
	}
}

// buildComparison composes the /v1/compare response from pipeline
// artifacts — the hfast-vs-fat-tree Comparison stage plus the mesh and
// ICN baselines the wire format also carries.
func (s *Server) buildComparison(ctx context.Context, ref pipeline.ProfileRef, cutoff, blockSize int) (*CompareResponse, error) {
	params := core.DefaultParams()
	params.BlockSize = blockSize
	// The comparison carries every parameter, so it resolves first: its
	// recipe check refuses a bad one before the skeleton runs.
	cmp, _, err := s.pipe.Comparison(ctx, ref, pipeline.Steady(), cutoff, params)
	if err != nil {
		return nil, err
	}
	prof, _, err := s.pipe.Profile(ctx, ref)
	if err != nil {
		return nil, err
	}
	g, _, err := s.pipe.Graph(ctx, ref, pipeline.Steady())
	if err != nil {
		return nil, err
	}
	a, _, err := s.pipe.Assignment(ctx, ref, pipeline.Steady(), cutoff, blockSize)
	if err != nil {
		return nil, err
	}
	mesh, err := meshtorus.Baseline(prof.Procs)
	if err != nil {
		return nil, fmt.Errorf("building mesh baseline: %w", err)
	}
	resp := &CompareResponse{
		App:       prof.App,
		Procs:     prof.Procs,
		Cutoff:    a.Cutoff,
		BlockSize: blockSize,
		Blocks:    cmp.Blocks,
		MaxRoute:  RouteResponse{SBHops: cmp.MaxRoute.SBHops, Crossings: cmp.MaxRoute.Crossings},
		HFAST: CostResponse{
			Active: cmp.HFAST.Active, Passive: cmp.HFAST.Passive,
			Collective: cmp.HFAST.Collective, NIC: cmp.HFAST.NIC, Total: cmp.HFAST.Total(),
		},
		FatTree: CostResponse{
			Active: cmp.FatTree.Active, Passive: cmp.FatTree.Passive,
			Collective: cmp.FatTree.Collective, NIC: cmp.FatTree.NIC, Total: cmp.FatTree.Total(),
		},
		Ratio:               cmp.Ratio(),
		FatTreeLayers:       cmp.Tree.Layers,
		FatTreePortsPerProc: cmp.Tree.PortsPerProc(),
		Mesh:                MeshResponse{Dims: mesh.Dims, Cost: mesh.Cost(params.ActivePortCost)},
		ICN:                 ICNResponse{K: blockSize},
	}
	if n, err := icn.Partition(g, a.Cutoff, blockSize); err != nil {
		resp.ICN.Error = err.Error()
	} else {
		c := n.Contract(g, a.Cutoff)
		resp.ICN = ICNResponse{
			K: blockSize, Fits: c.Fits,
			MaxContraction: c.Max, AvgContraction: c.Avg,
			OversubscribedEdges: c.OversubscribedEdges, WorstShare: c.WorstShare,
		}
	}
	return resp, nil
}

// --- helpers ---

// decodeBody parses a JSON request body with a size cap; uploaded P=256
// profiles run to a few tens of MB.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}
