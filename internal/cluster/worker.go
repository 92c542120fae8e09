// The worker side of the cluster: one process hosts the engine sessions
// of the shards assigned to it, each behind the full serving core
// (protocol.Service) and the versioned binary streaming transport, under
// per-shard paths:
//
//	POST /shard/{i}/stream?floor=T   pipelined step frames for shard i
//	GET  /shard/{i}/metrics          the shard service's /metrics
//	GET  /shard/{i}/state            the shard service's /state
//	GET  /shard/{i}/snapshot         the shard's bare engine snapshot
//	GET  /healthz                    liveness probe
//
// Shards are hosted lazily: the first request for shard i opens its
// service — resumed from the shard's checkpoint file when one exists, or
// fresh otherwise. That is what makes any worker a standby for any shard:
// rehoming a shard is just the coordinator dialing its stream path on
// another worker that can reach the checkpoint directory.
//
// The floor query parameter is the failover fencing token: a coordinator
// that rehomed shard i away and later dials this worker again passes the
// global step it expects, and a live service that lags it (a stale
// incarnation — the shard advanced elsewhere since) is aborted and
// reopened from the checkpoint instead of answering with old state.

package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/shard"
)

// WorkerOptions configures a shard worker.
type WorkerOptions struct {
	// NewAlg constructs one independent algorithm instance per hosted
	// shard session. Required.
	NewAlg func() core.FleetAlgorithm
	// CheckpointDir is where the per-shard checkpoint files live
	// (shard-<i>.ckpt). Required: failover restores from these files, so a
	// worker without them could neither rehome a shard nor survive its own
	// restart. Workers that should cover for each other must share it.
	CheckpointDir string
	// Span is the half-width used to place fresh start fleets (matching
	// shard.StartsSized); every worker of a cluster must use the same
	// value or fresh shards would disagree on their start positions.
	// Default DefaultSpan.
	Span float64
	// Mode and Tol configure cap enforcement on the shard sessions (the
	// workers own cap semantics; the coordinator only forwards).
	Mode engine.Mode
	Tol  float64
	// QueueLimit bounds each shard service's step queue; default
	// protocol.DefaultQueueLimit.
	QueueLimit int
	// MaxWindow, when > 1, lets the hosted shard services grant pipelined
	// ingestion windows up to this depth: each keeps an ack ring of its
	// last MaxWindow executed steps (persisted in the checkpoint) so a
	// coordinator with that many steps in flight can reconcile a crash at
	// any offset. Zero or 1 keeps the worker lockstep — a coordinator
	// asking for a window degrades to lockstep against it.
	MaxWindow int
	// CommitEvery, when > 1, amortizes checkpoint durability with group
	// commit: one fsynced checkpoint write covers up to CommitEvery
	// executed steps, and their acks are released only once it lands —
	// checkpoint-before-ack per group instead of per step. Default 1
	// (checkpoint and fsync every step).
	CommitEvery int
}

// DefaultSpan is the start-placement half-width used when
// WorkerOptions.Span is zero, matching cmd/mobserve's -span default.
const DefaultSpan = 25.0

// Worker hosts shard services lazily and serves them over HTTP. Create
// one with NewWorker, mount it on an http.Server, and Close it to drain
// every hosted shard.
type Worker struct {
	cfg  core.Config
	opts WorkerOptions

	mu     sync.Mutex
	shards map[int]*server.Server
	closed bool
}

// NewWorker builds a worker for the sharded configuration cfg (the same
// global configuration every node of the cluster shares; cfg.Partition
// defines the shards). Sessions are checkpointed after every step, before
// acknowledgement, so an acked step is never lost to a crash — the
// invariant coordinator failover is built on.
func NewWorker(cfg core.Config, opts WorkerOptions) (*Worker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.NewAlg == nil {
		return nil, errors.New("cluster: worker needs an algorithm factory")
	}
	if opts.CheckpointDir == "" {
		return nil, errors.New("cluster: worker needs a checkpoint directory")
	}
	if opts.Span <= 0 {
		opts.Span = DefaultSpan
	}
	if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
		return nil, err
	}
	return &Worker{cfg: cfg, opts: opts, shards: map[int]*server.Server{}}, nil
}

// CheckpointPath returns shard i's checkpoint file path.
func (w *Worker) CheckpointPath(i int) string {
	return filepath.Join(w.opts.CheckpointDir, fmt.Sprintf("shard-%d.ckpt", i))
}

// ServeHTTP dispatches /shard/{i}/... to the shard's service (opening it
// on first use) and answers /healthz.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		rw.WriteHeader(http.StatusOK)
		_, _ = rw.Write([]byte("ok\n"))
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/shard/")
	if !ok {
		http.NotFound(rw, r)
		return
	}
	idx, sub, ok := strings.Cut(rest, "/")
	if !ok || sub == "" {
		http.NotFound(rw, r)
		return
	}
	i, err := strconv.Atoi(idx)
	if err != nil || i < 0 || i >= w.cfg.Partition.Shards() {
		http.Error(rw, fmt.Sprintf("no shard %q in a %d-shard partition", idx, w.cfg.Partition.Shards()), http.StatusNotFound)
		return
	}
	floor := 0
	if f := r.URL.Query().Get("floor"); f != "" {
		floor, err = strconv.Atoi(f)
		if err != nil || floor < 0 {
			http.Error(rw, "bad floor: "+f, http.StatusBadRequest)
			return
		}
	}
	srv, err := w.shard(i, floor)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusConflict)
		return
	}
	http.StripPrefix("/shard/"+idx, srv.Handler()).ServeHTTP(rw, r)
}

// shard returns shard i's hosted service, opening it on first use. A live
// service whose step count lags floor is a stale incarnation — the shard
// was rehomed away, advanced elsewhere, and is now coming back — so it is
// aborted (no final checkpoint write that could clobber the newer owner's
// file) and reopened from the checkpoint.
func (w *Worker) shard(i, floor int) (*server.Server, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, errors.New("cluster: worker is shutting down")
	}
	if srv, ok := w.shards[i]; ok {
		if srv.T() >= floor {
			return srv, nil
		}
		_ = srv.Service().Abort()
		delete(w.shards, i)
	}
	srv, err := w.open(i)
	if err != nil {
		return nil, err
	}
	w.shards[i] = srv
	return srv, nil
}

// open starts shard i's service: resumed from its checkpoint file when one
// exists, fresh otherwise. Every shard session runs with NoCoalesce — the
// coordinator sends one step frame per global step (up to MaxWindow of
// them in flight), and merging two of its frames into one engine step
// would desync the global step counter — and checkpoints before
// acknowledgement: every step in lockstep, per group under CommitEvery.
func (w *Worker) open(i int) (*server.Server, error) {
	sopts := server.Options{
		QueueLimit:      w.opts.QueueLimit,
		CheckpointPath:  w.CheckpointPath(i),
		CheckpointEvery: 1,
		CommitEvery:     w.opts.CommitEvery,
		AckRing:         w.opts.MaxWindow,
		NoCoalesce:      true,
		Mode:            w.opts.Mode,
		Tol:             w.opts.Tol,
	}
	data, err := os.ReadFile(w.CheckpointPath(i))
	if err == nil {
		srv, err := server.Resume(w.cfg, w.opts.NewAlg(), data, sopts)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: resume: %w", i, err)
		}
		return srv, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	ks := make([]int, w.cfg.Partition.Shards())
	for j := range ks {
		ks[j] = w.cfg.Servers()
	}
	starts := shard.StartsSized(w.cfg, w.opts.Span, ks)
	srv, err := server.New(w.cfg, starts[i], w.opts.NewAlg(), sopts)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
	}
	return srv, nil
}

// Close drains every hosted shard service. Services are aborted, not
// closed: with per-step checkpointing the final write is redundant for a
// live owner and actively dangerous for a stale one (it would clobber a
// newer incarnation's file), so no worker ever writes a checkpoint at
// shutdown.
func (w *Worker) Close() error {
	w.mu.Lock()
	shards := w.shards
	w.shards = map[int]*server.Server{}
	w.closed = true
	w.mu.Unlock()
	var first error
	for _, srv := range shards {
		if err := srv.Service().Abort(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
