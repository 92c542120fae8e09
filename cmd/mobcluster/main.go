// Command mobcluster runs one node of the distributed serving layer: a
// shard worker hosting per-shard engine sessions behind the binary
// streaming transport, or the coordinator that fronts a fleet of such
// workers with the ordinary mobserve API (/step, /stream, /metrics,
// /state, /snapshot, /metrics/stream).
//
// Every node of one cluster must be started with the same spatial
// configuration flags (-dim -D -m -delta -k -shards -span -answer-first):
// the partition defines which worker path owns which shard, and the
// coordinator refuses a fleet whose shards disagree on the step counter.
//
// Quickstart — one coordinator and two workers on loopback:
//
//	mobcluster -role worker -addr :9001 -shards 2 -k 2 -ckpt-dir /tmp/w1 &
//	mobcluster -role worker -addr :9002 -shards 2 -k 2 -ckpt-dir /tmp/w2 &
//	mobcluster -role coordinator -addr :8080 -shards 2 -k 2 \
//	    -workers localhost:9001,localhost:9002
//
//	curl -X POST localhost:8080/step -d '{"requests":[[3,4],[-3,1]]}'
//	curl localhost:8080/state        # includes the shard→worker assignment
//	curl -N localhost:8080/metrics/stream   # failovers ride as SSE events
//
// Kill one worker and keep stepping: the coordinator rehomes its shards
// onto the survivor from their last checkpoints (point both workers'
// -ckpt-dir at shared storage for that), emits "failover" events on the
// SSE feed, and loses no step. Workers print their resolved listen
// address on startup, so -addr :0 works for scripted tests.
//
// Pipelined ingestion: start every node with -window W (> 1) to keep up
// to W steps in flight per shard instead of paying one round trip — and
// one checkpoint fsync — per step; workers additionally take
// -commit-every G to cover up to G steps per fsync (group commit). The
// failover guarantees are unchanged at every crash offset inside the
// window: workers ack only group-committed steps and re-serve their ack
// ring at reconnect, so the coordinator recovers executed in-flight steps
// exactly and resends only the true suffix.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/server"
)

func main() {
	var (
		role    = flag.String("role", "", "node role: coordinator|worker (required)")
		addr    = flag.String("addr", ":8080", "listen address (:0 picks a free port; the resolved address is printed)")
		dim     = flag.Int("dim", 2, "dimension of the space")
		D       = flag.Float64("D", 2, "page weight D >= 1")
		m       = flag.Float64("m", 1, "offline movement cap m")
		delta   = flag.Float64("delta", 0.5, "augmentation delta in [0,1]")
		answer  = flag.Bool("answer-first", false, "serve requests before moving")
		k       = flag.Int("k", 1, "servers per shard")
		shards  = flag.Int("shards", 2, "spatial shards along axis 0")
		span    = flag.Float64("span", 25, "half-width of the sharded interval and of fresh fleet placement")
		queue   = flag.Int("queue", server.DefaultQueueLimit, "bounded queue size before refusing batches")
		algName = flag.String("alg", "", "worker algorithm: mtc|mtck|lazy (default mtck)")
		clamp   = flag.Bool("clamp", false, "worker: clamp over-cap moves instead of failing the step")
		ckptDir = flag.String("ckpt-dir", "", "worker: per-shard checkpoint directory (required; share it between workers that cover for each other)")

		window      = flag.Int("window", 1, "pipelined ingestion window: coordinator keeps up to this many steps in flight per shard; worker grants windows up to it (1 = lockstep)")
		commitEvery = flag.Int("commit-every", 1, "worker: group-commit cadence — one fsynced checkpoint covers up to this many steps before their acks release (1 = checkpoint every step)")

		workers   = flag.String("workers", "", "coordinator: comma-separated worker addresses (required)")
		coalesce  = flag.Duration("coalesce", 2*time.Millisecond, "coordinator: batch coalescing window")
		heartbeat = flag.Duration("heartbeat", time.Second, "coordinator: worker liveness ping interval (0 disables)")
		attempts  = flag.Int("attempts", 0, "coordinator: dial attempts per worker before moving on (0 = default)")
		backoff   = flag.Duration("backoff", 0, "coordinator: base reconnect backoff (0 = default)")
	)
	flag.Parse()

	cfg := core.Config{Dim: *dim, D: *D, M: *m, Delta: *delta, K: *k,
		Partition: core.UniformPartition(*shards, *span)}
	if *answer {
		cfg.Order = core.AnswerFirst
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	if *window < 1 {
		fatal(fmt.Errorf("-window must be >= 1, got %d", *window))
	}
	if *commitEvery < 1 {
		fatal(fmt.Errorf("-commit-every must be >= 1, got %d", *commitEvery))
	}

	switch *role {
	case "worker":
		runWorker(cfg, *addr, *algName, *ckptDir, *span, *clamp, *queue, *window, *commitEvery)
	case "coordinator":
		runCoordinator(cfg, *addr, *workers, *coalesce, *heartbeat, *attempts, *backoff, *queue, *window)
	case "":
		fatal(errors.New("-role is required: coordinator|worker"))
	default:
		fatal(fmt.Errorf("unknown role %q (coordinator|worker)", *role))
	}
}

func runWorker(cfg core.Config, addr, algName, ckptDir string, span float64, clamp bool, queue, window, commitEvery int) {
	newAlg, err := pickAlgorithm(algName, cfg)
	if err != nil {
		fatal(err)
	}
	opts := cluster.WorkerOptions{
		NewAlg:        newAlg,
		CheckpointDir: ckptDir,
		Span:          span,
		QueueLimit:    queue,
		MaxWindow:     window,
		CommitEvery:   commitEvery,
	}
	if clamp {
		opts.Mode = engine.Clamp
	}
	w, err := cluster.NewWorker(cfg, opts)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("worker listening on %s (%d shards × K=%d, checkpoints in %s)\n",
		ln.Addr(), cfg.Partition.Shards(), cfg.Servers(), ckptDir)
	serve(&http.Server{Handler: w}, ln, func() {
		if err := w.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mobcluster: worker close:", err)
		}
	})
}

func runCoordinator(cfg core.Config, addr, workers string, coalesce, heartbeat time.Duration, attempts int, backoff time.Duration, queue, window int) {
	if workers == "" {
		fatal(errors.New("-role coordinator requires -workers"))
	}
	copts := cluster.CoordinatorOptions{
		Workers:     strings.Split(workers, ","),
		Heartbeat:   heartbeat,
		MaxAttempts: attempts,
		BaseBackoff: backoff,
		Window:      window,
	}
	svc, err := cluster.NewService(cfg, copts, protocol.Options{
		CoalesceWindow: coalesce,
		QueueLimit:     queue,
		Window:         window,
	})
	if err != nil {
		fatal(err)
	}
	srv := server.NewFromService(cfg, svc)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("coordinator listening on %s, serving %s at step %d across %d workers\n",
		ln.Addr(), srv.Algorithm(), srv.T(), len(copts.Workers))
	serve(&http.Server{Handler: srv.Handler()}, ln, func() {
		// Close ends Watch subscriptions first so SSE handlers unblock, then
		// Finish closes the worker connections; the workers stay up,
		// resumable by the next coordinator.
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mobcluster: coordinator close:", err)
		}
		res := srv.Finish()
		fmt.Printf("forwarded %d steps, %s\n", res.Steps, res.Cost)
	})
}

// serve runs the HTTP server on ln until SIGINT/SIGTERM, then drains the
// node (drain runs before the listener shuts down, mirroring mobserve's
// close-service-first ordering).
func serve(httpSrv *http.Server, ln net.Listener, drain func()) {
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()
	<-done
	fmt.Println("\nshutting down")
	drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mobcluster: http shutdown:", err)
	}
}

// pickAlgorithm mirrors mobserve's algorithm table, defaulting to the
// fleet controller (cluster shards usually run K > 1).
func pickAlgorithm(name string, cfg core.Config) (func() core.FleetAlgorithm, error) {
	if name == "" {
		name = "mtck"
	}
	switch name {
	case "mtc":
		if cfg.Servers() != 1 {
			return nil, fmt.Errorf("mobcluster: -alg mtc is single-server; use -alg mtck for K=%d", cfg.Servers())
		}
		return func() core.FleetAlgorithm { return core.Fleet(core.NewMtC()) }, nil
	case "mtck":
		return func() core.FleetAlgorithm { return multi.NewMtCK() }, nil
	case "lazy":
		return func() core.FleetAlgorithm { return multi.NewLazyK() }, nil
	default:
		return nil, fmt.Errorf("mobcluster: unknown algorithm %q (mtc|mtck|lazy)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mobcluster:", err)
	os.Exit(1)
}
