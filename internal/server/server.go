// Package server exposes the transport-neutral serving core of
// internal/protocol to the network. It is deliberately thin: every serving
// semantic — batch coalescing, the bounded queue, checkpointing, observer
// reads, the metrics subscription — lives in protocol.Service; this
// package only translates between the Service's typed surface and the wire
// formats of package wire, over two transports:
//
//   - the JSON-over-HTTP API (byte-compatible with its pre-protocol-layer
//     form): POST /step feeds a request batch and blocks for its step's
//     outcome, a full queue answers 429 + Retry-After, GET /metrics,
//     GET /state, and GET /snapshot serve the live snapshots;
//   - the persistent streaming API: POST /stream upgrades the connection
//     to pipelined binary frames (see stream.go) so one client can submit
//     step batches without per-request HTTP overhead, and
//     GET /metrics/stream pushes one server-sent event per executed step.
//
// Create a Server with New or Resume (NewSharded/ResumeSharded for router
// mode), mount Handler on an http.Server, and Close it to drain the queue
// and write the final checkpoint.
package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Backend is the session shape the server drives; it lives in
// internal/protocol now (the serving core is transport-neutral), and the
// alias keeps this package's surface complete.
type Backend = protocol.Backend

// Options configures the serving core; see protocol.Options.
type Options = protocol.Options

// DefaultQueueLimit is the queue bound used when Options.QueueLimit is 0.
const DefaultQueueLimit = protocol.DefaultQueueLimit

// Server adapts one protocol.Service to HTTP.
type Server struct {
	cfg core.Config
	svc *protocol.Service
}

// New starts a server around a fresh session.
func New(cfg core.Config, starts []geom.Point, alg core.FleetAlgorithm, opts Options) (*Server, error) {
	svc, err := protocol.New(cfg, starts, alg, opts)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, svc: svc}, nil
}

// Resume starts a server around a session restored from checkpoint bytes;
// see protocol.Resume.
func Resume(cfg core.Config, alg core.FleetAlgorithm, snapshot []byte, opts Options) (*Server, error) {
	svc, err := protocol.Resume(cfg, alg, snapshot, opts)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, svc: svc}, nil
}

// NewSharded starts a server in router mode; see protocol.NewSharded.
func NewSharded(cfg core.Config, starts [][]geom.Point, newAlg func() core.FleetAlgorithm, opts Options) (*Server, error) {
	svc, err := protocol.NewSharded(cfg, starts, newAlg, opts)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, svc: svc}, nil
}

// ResumeSharded starts a router-mode server from a sharded checkpoint; see
// protocol.ResumeSharded.
func ResumeSharded(cfg core.Config, newAlg func() core.FleetAlgorithm, snapshot []byte, opts Options) (*Server, error) {
	svc, err := protocol.ResumeSharded(cfg, newAlg, snapshot, opts)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, svc: svc}, nil
}

// NewFromService adapts an already-running service to the HTTP API — the
// hook the cluster layer uses to mount its coordinator-backed service
// (protocol.NewFromBackend) on the same endpoints the local modes serve.
func NewFromService(cfg core.Config, svc *protocol.Service) *Server {
	return &Server{cfg: cfg, svc: svc}
}

// Service returns the underlying transport-neutral serving core, for
// callers that want the typed surface (Submit/Watch/...) next to the HTTP
// one.
func (s *Server) Service() *protocol.Service { return s.svc }

// T returns the session's current step count.
func (s *Server) T() int { return s.svc.T() }

// Algorithm returns the backend's reported name (in router mode the
// per-shard algorithm tagged with the shard count, e.g. "MtC-k×4").
func (s *Server) Algorithm() string { return s.svc.Algorithm() }

// Close stops accepting traffic, drains the already-queued batches through
// the session, writes a final checkpoint (when configured), and waits for
// the step loop to exit. It returns the final checkpoint error, if any.
func (s *Server) Close() error { return s.svc.Close() }

// Finish closes the underlying session and returns its accumulated result.
// Call it after Close; a finished session cannot be snapshotted or resumed.
func (s *Server) Finish() *engine.Result { return s.svc.Finish() }

// Handler returns the full HTTP API: the per-request endpoints
// (POST /step, GET /metrics, GET /state, GET /snapshot) plus the streaming
// transports (POST /stream, GET /metrics/stream). Use HandlerWith(false)
// to serve the per-request endpoints only.
func (s *Server) Handler() http.Handler { return s.HandlerWith(true) }

// HandlerWith returns the HTTP API, with the streaming endpoints
// (POST /stream, GET /metrics/stream) mounted only when stream is true.
func (s *Server) HandlerWith(stream bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /step", s.handleStep)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /state", s.handleState)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	if stream {
		mux.HandleFunc("POST /stream", s.handleStream)
		mux.HandleFunc("GET /metrics/stream", s.handleMetricsStream)
	}
	return mux
}

// maxBodyBytes bounds a POST /step body; a batch larger than this is a
// client error, not a reason to exhaust server memory. (Stream frames are
// bounded by wire.DefaultMaxFrame.)
const maxBodyBytes = 8 << 20

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	if s.svc.Closing() {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	req, err := wire.DecodeStepRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad step body: "+err.Error())
		return
	}
	// Validate before enqueueing: a malformed batch must not poison the
	// valid batches it would be coalesced with.
	reqs, err := wire.ToPoints(req.Requests, s.cfg.Dim)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ack, err := s.svc.Submit(reqs)
	if err != nil {
		s.writeStepError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ackResponse(ack))
	// ackResponse shares the ack's pooled position storage; the encoder is
	// done with it once writeJSON returns.
	ack.Release()
}

// writeStepError maps the protocol layer's typed errors onto the HTTP
// status-code signaling the per-request API has always used.
func (s *Server) writeStepError(w http.ResponseWriter, err error) {
	var oe *protocol.OverloadError
	var de *protocol.DurabilityError
	var ue *protocol.UnreachableError
	switch {
	case errors.As(err, &oe):
		sec := (oe.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		writeJSON(w, http.StatusTooManyRequests, wire.ErrorResponse{
			Error:         err.Error(),
			RetryAfterSec: sec,
			RetryAfterMs:  oe.RetryAfterMS,
		})
	case errors.As(err, &de):
		// The step ran (it is in /metrics and the session advanced) but
		// its checkpoint did not land: answer 507 carrying the executed
		// step index so clients know not to resend.
		t := de.ExecutedT
		writeJSON(w, http.StatusInsufficientStorage, wire.ErrorResponse{Error: err.Error(), ExecutedT: &t})
	case errors.As(err, &ue):
		// The forwarding tier gave up on the shard's backend: the step did
		// NOT execute, so the batch is safe to resubmit once the fleet
		// recovers. 502 is the classic bad-upstream signal.
		writeError(w, http.StatusBadGateway, err.Error())
	case errors.Is(err, protocol.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// ackResponse converts a typed step outcome to its wire form.
func ackResponse(ack protocol.Ack) wire.StepResponse {
	resp := wire.StepResponse{
		T:         ack.T,
		Accepted:  ack.Accepted,
		Batched:   ack.Batched,
		Cost:      wire.FromCost(ack.Cost),
		Positions: wire.FromPoints(ack.Positions),
		Clamped:   ack.Clamped,
	}
	if ack.Shards != nil {
		resp.Shards = shardSteps(ack.Shards)
	}
	return resp
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.svc.Metrics()
	resp := wire.MetricsResponse{
		Steps:       m.Steps,
		Requests:    m.Requests,
		Cost:        wire.FromCost(m.Cost),
		AvgStepCost: m.AvgStepCost,
		Rejected:    m.Rejected,
		QueueDepth:  m.QueueDepth,
	}
	if m.Shards != nil {
		resp.Shards = make([]wire.ShardMetrics, len(m.Shards))
		for i, st := range m.Shards {
			resp.Shards[i] = wire.ShardMetrics{Shard: st.Shard, Requests: st.Requests, Cost: wire.FromCost(st.Cost)}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	st := s.svc.State()
	resp := wire.StateResponse{
		Algorithm: st.Algorithm,
		T:         st.T,
		Positions: wire.FromPoints(st.Positions),
		MaxMove:   st.MaxMove,
		TotalMove: st.TotalMove,
		CapHits:   st.CapHits,
		Clamped:   st.Clamped,
		Cost:      wire.FromCost(st.Cost),
	}
	if st.Partition != nil {
		resp.Partition = append([]float64(nil), st.Partition...)
	}
	if st.Workers != nil {
		resp.Workers = append([]string(nil), st.Workers...)
	}
	if st.Shards != nil {
		resp.Shards = make([]wire.ShardState, len(st.Shards))
		for i, sh := range st.Shards {
			resp.Shards[i] = wire.ShardState{
				Shard:     sh.Shard,
				Servers:   sh.Servers,
				Requests:  sh.Requests,
				Clamped:   sh.Clamped,
				Positions: wire.FromPoints(sh.Positions),
				Cost:      wire.FromCost(sh.Cost),
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap, err := s.svc.Snapshot()
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap)
}

// shardSteps converts the router's per-shard step stats to their wire form.
func shardSteps(stats []shard.StepStat) []wire.ShardStep {
	out := make([]wire.ShardStep, len(stats))
	for i, st := range stats {
		out[i] = wire.ShardStep{Shard: i, Routed: st.Routed, Cost: wire.FromCost(st.Cost)}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, wire.ErrorResponse{Error: msg})
}
