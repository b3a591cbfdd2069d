package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	core "github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/trace"
)

// Streaming ingestion: POST /v1/stream/{session} accepts chunked profile
// deltas (a sequence of concatenated JSON ipm.Delta values), folds them
// online through the pipeline's incremental fold stage, runs the phase
// detector, and answers with the re-provisioning plans (circuit diffs)
// the detected boundaries produced. GET returns the stream's status (or,
// with ?artifact=windows|assignment, the folded windows as JSON — the
// bytes trace.Replay's windows of the whole run encode to — or the
// steady-state assignment in the pipeline's artifact encoding, so parity
// with a finished run is checkable on the wire). DELETE closes and
// removes the session. Plans and the assignment artifact are cached on
// the fold chain (see stagePlan), so a session replayed under a new id
// re-plans nothing.

// streamSession is one live delta stream.
type streamSession struct {
	mu    sync.Mutex
	id    string
	seed  pipeline.FoldSeed
	block int
	// last is when a POST last named the session, in Unix nanoseconds. It
	// is atomic, not under mu, so the table never waits on a session whose
	// POST is still reading its body.
	last atomic.Int64

	state  *trace.StreamState
	key    pipeline.Key
	assign *core.Assignment
	plans  []StreamPlan
	closed bool
}

// streamSessionTTL is how long a session may sit idle before a full
// table evicts it to admit a new one.
const streamSessionTTL = 10 * time.Minute

// maxStreamSessions bounds live delta-stream sessions; beyond it new
// streams are shed with 429.
const maxStreamSessions = 64

// streams is the server's session table.
type streams struct {
	mu  sync.Mutex
	m   map[string]*streamSession
	max int // maxStreamSessions; tests shrink it
}

// get returns the named session, creating it with the given seed when
// absent, and whether it did. A nil return means the table is full.
func (t *streams) get(id string, create func() *streamSession, now time.Time) (sess *streamSession, created bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]*streamSession)
	}
	if sess, ok := t.m[id]; ok {
		sess.last.Store(now.UnixNano())
		return sess, false
	}
	// Evict idle sessions before refusing a new one.
	for sid, sess := range t.m {
		if now.UnixNano()-sess.last.Load() > int64(streamSessionTTL) {
			delete(t.m, sid)
		}
	}
	if len(t.m) >= t.max {
		return nil, false
	}
	sess = create()
	sess.last.Store(now.UnixNano())
	t.m[id] = sess
	return sess, true
}

func (t *streams) lookup(id string) *streamSession {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[id]
}

func (t *streams) remove(id string) *streamSession {
	t.mu.Lock()
	defer t.mu.Unlock()
	sess := t.m[id]
	delete(t.m, id)
	return sess
}

// discard removes sess unless its id has since been deleted or reused.
func (t *streams) discard(sess *streamSession) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m[sess.id] == sess {
		delete(t.m, sess.id)
	}
}

func (t *streams) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// streamID validates the {session} path segment.
func streamID(path string) (string, error) {
	id := strings.TrimPrefix(path, "/v1/stream/")
	if id == "" || id == path {
		return "", errors.New("missing session id: POST /v1/stream/{session}")
	}
	if len(id) > 64 {
		return "", fmt.Errorf("session id longer than 64 bytes")
	}
	for _, c := range id {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.') {
			return "", fmt.Errorf("session id may use [a-zA-Z0-9._-] only")
		}
	}
	return id, nil
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id, err := streamID(r.URL.Path)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	switch r.Method {
	case http.MethodPost:
		s.handleStreamPost(w, r, id)
	case http.MethodGet:
		s.handleStreamGet(w, r, id)
	case http.MethodDelete:
		s.handleStreamDelete(w, r, id)
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "use POST, GET, or DELETE", 0)
	}
}

// streamSeed parses the session-creation parameters from the query.
func streamSeed(q map[string][]string) (pipeline.FoldSeed, int, error) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	// Bad values are refused before the session exists: a bad cutoff
	// would fail only at its first fold, a bad block size only at its
	// first assignment or phase boundary.
	var seed pipeline.FoldSeed
	var err error
	if seed.Cutoff, err = intParam(get("cutoff"), 0); err != nil {
		return seed, 0, fmt.Errorf("cutoff: %w", err)
	}
	seed.Prefix = get("prefix")
	if _, err = seed.Normalize(); err != nil {
		return seed, 0, err
	}
	// The block size is kept normalized: it keys what the session derives.
	block, err := intParam(get("blocksize"), 0)
	if err == nil {
		block, err = core.BlockSize(block)
	}
	if err != nil {
		return seed, 0, fmt.Errorf("blocksize: %w", err)
	}
	return seed, block, nil
}

// splitters recycles DeltaSplitters, and with them a body-sized buffer
// each, across stream POSTs.
var splitters = sync.Pool{New: func() any { return new(ipm.DeltaSplitter) }}

func (s *Server) handleStreamPost(w http.ResponseWriter, r *http.Request, id string) {
	q := r.URL.Query()
	seed, block, err := streamSeed(q)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	ctx, cancel, err := s.requestContext(r, 0)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	defer cancel()
	sess, created := s.streams.get(id, func() *streamSession {
		return &streamSession{id: id, seed: seed, block: block}
	}, time.Now())
	if sess == nil {
		s.metrics.addRejected()
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("stream session table full (%d live sessions); retry later", s.streams.max),
			s.retryAfterSeconds())
		return
	}

	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		s.writeError(w, http.StatusConflict, fmt.Sprintf("stream session %q is closed", id), 0)
		return
	}
	// A declared length sizes the splitter's buffer up front, within a
	// bound a client cannot inflate; chunked bodies (-1) grow on demand.
	split := splitters.Get().(*ipm.DeltaSplitter)
	split.Reset(http.MaxBytesReader(w, r.Body, 64<<20), int(min(r.ContentLength, 4<<20)))
	folded, newPlans, err := s.foldBody(ctx, sess, split)
	if err != nil {
		// A request that opened the session and folded nothing into it
		// leaves nothing worth a table slot. The session (open, or this
		// request had not got here) is closed first: a POST already
		// waiting on its lock must not fold into it.
		orphan := created && folded == 0
		sess.closed = orphan
		sess.mu.Unlock()
		if orphan {
			s.streams.discard(sess)
		}
		s.writePipelineError(w, err)
		return
	}
	defer sess.mu.Unlock()
	// Only a body that folded without an error gives its buffer back: after
	// an error a detached fold may still be reading it (FoldWire's
	// contract), so that splitter is left to the collector, never reused.
	// The pooled splitter keeps its buffer, not this request's body.
	split.Reset(nil, 0)
	splitters.Put(split)
	if q.Get("close") == "1" {
		sess.closed = true
	}
	s.writeJSON(w, http.StatusOK, s.streamResponseLocked(sess, folded, newPlans))
}

// foldBody folds a body of concatenated deltas into the session (whose
// lock is held) one value at a time as its bytes arrive, holding no more
// than one delta in memory. It reports how many it folded and the plans
// they produced; on an error, the deltas folded before it stay folded.
// Bytes that are not a delta, whether the splitter or the decode on a
// fold miss finds that out, are reported by their index in the body.
//
// Each delta is framed by guess and verify. The splitter's candidate —
// the bytes up to the first "]}", all of a canonical delta — is folded
// as it stands, and a fold that succeeds proves the guess: a chain hit
// says these bytes were cut and decoded before, a miss decoded them as
// one JSON value, and a valid object is exactly the
// cut the brace matcher makes. A candidate that fails proves nothing, so
// its error is kept only if the exact cut turns out to be the same
// bytes; any other cut is folded in its place. Every body thus ends as
// if each delta had been cut exactly; only canonical ones skip the scan.
func (s *Server) foldBody(ctx context.Context, sess *streamSession, split *ipm.DeltaSplitter) (int, []StreamPlan, error) {
	folded := 0
	var plans []StreamPlan
	fold := func(raw []byte) (*StreamPlan, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return s.foldOne(ctx, sess, raw)
	}
	for {
		var plan *StreamPlan
		var err error
		cand := split.Candidate()
		if cand != nil {
			// The fold stage may still be reading cand, which is the
			// splitter's buffer, once the context has ended: nothing
			// touches the splitter again then.
			if plan, err = fold(cand); err != nil && ctx.Err() != nil {
				return folded, plans, ctx.Err()
			}
		}
		if cand != nil && err == nil {
			split.Accept()
			s.metrics.addFrameCandidate()
		} else {
			raw, serr := split.Next()
			if serr == io.EOF {
				return folded, plans, nil
			} else if serr != nil {
				return folded, plans, fmt.Errorf("decoding delta %d: %w", folded, serr)
			}
			s.metrics.addFrameExact()
			if len(raw) != len(cand) {
				plan, err = fold(raw)
			}
		}
		if errors.Is(err, ipm.ErrDeltaDecode) {
			return folded, plans, fmt.Errorf("decoding delta %d: %w", folded, err)
		} else if err != nil {
			return folded, plans, err
		}
		folded++
		s.metrics.addStreamDelta()
		if plan != nil {
			plans = append(plans, *plan)
			if plan.Phase > 0 {
				s.metrics.addStreamPhase()
			}
			s.metrics.addStreamCircuitMoves(int64(plan.Setup + plan.Teardown))
		}
	}
}

// A stream session derives two things from its fold chain, each
// resolved through Pipeline.Derived so a session replayed under a new id
// is served by key lookups alone: the plan at each phase boundary, and
// the assignment artifact GET serves. Each is a function of its key.
// The chain key names every delta folded so far under the seed (procs,
// cutoff, prefix); the block size is the one other input a plan or an
// assignment reads. A boundary's plan also reads the session's previous
// assignment, which is the plan of the chain's previous boundary (or
// none) because foldOne commits a fold and its plan together.
const (
	stagePlan       = "stream-plan"
	stageAssignment = "stream-assignment"
)

// streamKey is the input a derived stream artifact is keyed by.
type streamKey struct {
	Chain     pipeline.Key `json:"chain"`
	BlockSize int          `json:"block_size"`
}

// boundary is what a phase boundary derives: the assignment the new
// phase runs on and the plan that reaches it from the previous one.
type boundary struct {
	assign *core.Assignment
	plan   StreamPlan
}

// foldOne folds one encoded delta into the session (whose lock is held)
// and returns the re-provisioning plan if the fold opened a new phase.
// The session moves to the folded state only with its plan: a boundary
// whose plan fails leaves the session where it was.
func (s *Server) foldOne(ctx context.Context, sess *streamSession, raw []byte) (*StreamPlan, error) {
	state, key := sess.state, sess.key
	if state == nil {
		// A new stream is sized by its first delta's Procs, peeked so
		// that a replayed first delta is not decoded either. A peek that
		// disagrees with the decoded delta is caught on the miss path by
		// Fold's procs check, and the session stays unseeded.
		procs, err := ipm.PeekDeltaProcs(raw)
		if err != nil {
			return nil, err
		}
		if procs <= 0 || procs > s.cfg.MaxProcs {
			return nil, fmt.Errorf("delta procs %d outside (0,%d]", procs, s.cfg.MaxProcs)
		}
		seed := sess.seed
		seed.Procs = procs
		if state, key, _, err = s.pipe.FoldInit(ctx, seed); err != nil {
			return nil, err
		}
	}
	ns, key, _, err := s.pipe.FoldWire(ctx, key, state, raw)
	if err != nil {
		return nil, err
	}
	if !ns.Last.Boundary {
		sess.state, sess.key = ns, key
		return nil, nil
	}
	// The delta is folded: its plan resolves whatever becomes of the
	// request, so the session never holds a boundary without one.
	prev, block := sess.assign, sess.block
	v, _, err := s.pipe.Derived(context.WithoutCancel(ctx), stagePlan, streamKey{key, block}, func(context.Context) (any, error) {
		next, diff, err := core.PlanDiff(prev, ns.CurrentPhaseGraph(), ns.Cutoff, block)
		if err != nil {
			return nil, fmt.Errorf("planning phase %d: %w", ns.Last.Phase, err)
		}
		return &boundary{assign: next, plan: StreamPlan{
			Phase:       ns.Last.Phase,
			StartWindow: ns.Last.Window.Region,
			Setup:       len(diff.Setup),
			Teardown:    len(diff.Teardown),
			Kept:        diff.Kept,
			BlocksDelta: diff.BlocksDelta,
			TotalBlocks: next.TotalBlocks,
			PortMoves:   diff.PortMoves,
			FullMoves:   diff.FullMoves,
			Saved:       diff.Saved(),
			SettleMS:    float64(diff.Settle) / float64(time.Millisecond),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	b := v.(*boundary)
	sess.state, sess.key, sess.assign = ns, key, b.assign
	sess.plans = append(sess.plans, b.plan)
	plan := b.plan
	return &plan, nil
}

// streamResponseLocked summarizes the session (lock held). plans nil
// means "report every plan so far" (GET/DELETE).
func (s *Server) streamResponseLocked(sess *streamSession, folded int, plans []StreamPlan) *StreamResponse {
	resp := &StreamResponse{
		Session:      sess.id,
		DeltasFolded: folded,
		Closed:       sess.closed,
		Plans:        plans,
	}
	if plans == nil {
		resp.Plans = append([]StreamPlan(nil), sess.plans...)
	}
	if st := sess.state; st != nil {
		resp.App = st.App
		resp.Procs = st.Procs
		resp.TotalDeltas = st.Deltas
		resp.Windows = len(st.Windows)
		resp.Phases = st.NumPhases()
		if sess.closed {
			if op, err := st.Opportunity(); err != nil {
				log.Printf("hfastd: stream %q: opportunity analysis: %v", sess.id, err)
			} else {
				resp.Opportunity = &OpportunityResponse{
					Windows:            op.Windows,
					MaxWindowTDC:       op.MaxWindowTDC,
					UnionTDC:           op.UnionTDC,
					MeanChurn:          op.MeanChurn,
					ReconfigurableGain: op.ReconfigurableGain,
				}
			}
		}
	}
	return resp
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request, id string) {
	ctx, cancel, err := s.requestContext(r, 0)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	defer cancel()
	sess := s.streams.lookup(id)
	if sess == nil {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("no stream session %q", id), 0)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	switch artifact := r.URL.Query().Get("artifact"); artifact {
	case "":
		s.writeJSON(w, http.StatusOK, s.streamResponseLocked(sess, 0, nil))
	case "windows", "assignment":
		if sess.state == nil {
			s.writeError(w, http.StatusConflict, "stream has no folded deltas yet", 0)
			return
		}
		var data []byte
		if artifact == "windows" {
			data, err = json.Marshal(sess.state.Windows)
		} else if data, err = s.streamAssignment(ctx, sess); err != nil && ctx.Err() != nil {
			// The request ended while the artifact was in flight.
			s.writePipelineError(w, err)
			return
		}
		if err != nil {
			// The state is the server's own fold: failing on it is a fault.
			s.writeError(w, http.StatusInternalServerError, err.Error(), 0)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	default:
		s.writeError(w, http.StatusBadRequest, "artifact must be \"windows\" or \"assignment\"", 0)
	}
}

// streamAssignment is the session's steady-state assignment in the
// pipeline's artifact encoding, derived once per chain and block size.
func (s *Server) streamAssignment(ctx context.Context, sess *streamSession) ([]byte, error) {
	state, block := sess.state, sess.block
	v, _, err := s.pipe.Derived(ctx, stageAssignment, streamKey{sess.key, block}, func(context.Context) (any, error) {
		a, err := core.Assign(state.Steady(), state.Cutoff, block)
		if err != nil {
			return nil, err
		}
		return pipeline.EncodeArtifact(pipeline.StageAssign, a)
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request, id string) {
	sess := s.streams.remove(id)
	if sess == nil {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("no stream session %q", id), 0)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.closed = true
	s.writeJSON(w, http.StatusOK, s.streamResponseLocked(sess, 0, nil))
}
