// Command mobserve serves a live Mobile Server session over HTTP: clients
// POST request batches to /step, batches arriving within the coalescing
// window are merged into one engine step, a bounded queue answers 429 when
// overloaded, and /metrics and /state stream live counters. Unless
// -stream=false, two persistent streaming endpoints ride along: POST
// /stream upgrades the connection to pipelined binary step frames (one
// client streams batches without per-request HTTP overhead; backpressure
// arrives as typed throttle frames), and GET /metrics/stream pushes one
// server-sent metrics event per executed step. With -shards N
// the space is partitioned into N regions along axis 0 and each region is
// served by its own fleet of -k servers — requests route to their region's
// session and the shards step concurrently. With -rebalance threshold the
// shard layout additionally adapts to the load: per-shard request counts
// are watched over a sliding window and, when the skew crosses the
// threshold, a server migrates from a cold shard into its hot neighbor
// (migrations ride GET /metrics/stream as "rebalance" events, and /state
// reports the live per-shard fleet sizes). With -checkpoint the full
// state (all shards, the live layout, and the observers) is written
// atomically after every step, and a restarted mobserve resumes from that
// file exactly where the killed process stood — including /metrics, which
// continues the pre-crash totals, and the migrated layout. Raising -every
// trades that durability for fewer writes: a crash can then lose up to
// every-1 acknowledged steps.
//
// Usage:
//
//	mobserve -addr :8080 -dim 2 -D 4 -delta 0.5           # single server
//	mobserve -k 4 -alg mtck -window 2ms -queue 128        # fleet of 4
//	mobserve -shards 4 -k 2 -span 25                      # 4 regions × 2 servers
//	mobserve -shards 4 -k 2 -rebalance threshold          # adaptive layout
//	mobserve -checkpoint mobserve.ckpt                    # crash-safe
//
//	curl -X POST localhost:8080/step -d '{"requests":[[3,4]]}'
//	curl localhost:8080/metrics
//	curl localhost:8080/state
//	curl localhost:8080/snapshot > manual.ckpt
//	curl -N localhost:8080/metrics/stream                 # SSE, one event/step
//
// See examples/client for a load generator that drives this server and
// reconciles its own counters against /metrics (use its -regions flag to
// spread load across the shards, and -stream to pipeline binary frames
// over one connection instead of per-request HTTP).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/multi"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dim     = flag.Int("dim", 2, "dimension of the space")
		D       = flag.Float64("D", 2, "page weight D >= 1")
		m       = flag.Float64("m", 1, "offline movement cap m")
		delta   = flag.Float64("delta", 0.5, "augmentation delta in [0,1]")
		answer  = flag.Bool("answer-first", false, "serve requests before moving")
		k       = flag.Int("k", 1, "number of servers (per shard when -shards > 1)")
		shards  = flag.Int("shards", 1, "spatial shards along axis 0, each with its own fleet of k servers")
		span    = flag.Float64("span", 25, "half-width of the sharded interval: -shards regions split [-span, span]")
		algName = flag.String("alg", "", "algorithm: mtc|mtck|lazy (default mtc, mtck when -k > 1 or -shards > 1)")
		radius  = flag.Float64("radius", 5, "initial fleet spread radius; when sharded, how far the unbounded outer regions' fleets extend past their boundary (interior fleets spread across their full region)")
		window  = flag.Duration("window", 2*time.Millisecond, "batch coalescing window (0 = no wait)")
		queue   = flag.Int("queue", server.DefaultQueueLimit, "bounded queue size before 429")
		ckpt    = flag.String("checkpoint", "", "checkpoint file; resumes from it when present")
		every   = flag.Int("every", 1, "steps between checkpoints")
		clamp   = flag.Bool("clamp", false, "clamp over-cap moves instead of failing the step")
		stream  = flag.Bool("stream", true, "serve the persistent streaming endpoints (POST /stream binary frames, GET /metrics/stream SSE)")

		rebalance = flag.String("rebalance", "", "dynamic shard rebalancing policy: threshold (empty = static layout; requires -shards > 1)")
		rebWindow = flag.Int("rebalance-window", shard.DefaultRebalanceWindow, "rebalancing: sliding load-window length in steps")
		rebRatio  = flag.Float64("rebalance-ratio", 2, "rebalancing: migrate when the hot shard's windowed load reaches ratio × its colder neighbor's")
		rebCool   = flag.Int("rebalance-cooldown", 0, "rebalancing: minimum steps between migrations (0 = one full window)")
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
	newAlg, err := pickAlgorithm(*algName, cfg)
	if err != nil {
		fatal(err)
	}
	opts := server.Options{
		CoalesceWindow:  *window,
		QueueLimit:      *queue,
		CheckpointPath:  *ckpt,
		CheckpointEvery: *every,
	}
	if *clamp {
		opts.Mode = engine.Clamp
	}
	switch *rebalance {
	case "":
	case "threshold":
		if cfg.Partition.Shards() <= 1 {
			fatal(errors.New("-rebalance requires -shards > 1"))
		}
		if cfg.Servers() <= 1 {
			// With one server per shard every donor sits at the policy's
			// floor, so no migration could ever fire — refuse rather than
			// silently serve a static layout.
			fatal(errors.New("-rebalance requires -k > 1 (single-server shards have no server to donate)"))
		}
		// Refuse out-of-range tuning instead of letting the policy lift it
		// to its defaults behind the operator's back.
		if *rebWindow < 1 {
			fatal(fmt.Errorf("-rebalance-window %d: need >= 1", *rebWindow))
		}
		if *rebRatio <= 1 {
			fatal(fmt.Errorf("-rebalance-ratio %g: need > 1 (parity would thrash servers on noise)", *rebRatio))
		}
		if *rebCool < 0 {
			fatal(fmt.Errorf("-rebalance-cooldown %d: need >= 0 (0 = one full window)", *rebCool))
		}
		opts.Rebalancer = &shard.Threshold{WindowSteps: *rebWindow, Ratio: *rebRatio, Cooldown: *rebCool}
	default:
		fatal(fmt.Errorf("unknown rebalance policy %q (threshold)", *rebalance))
	}

	srv, resumed, err := open(cfg, newAlg, opts, *radius)
	if err != nil {
		fatal(err)
	}
	layout := fmt.Sprintf("K=%d, dim %d", cfg.Servers(), cfg.Dim)
	if n := cfg.Partition.Shards(); n > 1 {
		layout = fmt.Sprintf("%d shards × K=%d, dim %d", n, cfg.Servers(), cfg.Dim)
		if *rebalance != "" {
			layout += fmt.Sprintf(", %s rebalancing (window %d)", *rebalance, *rebWindow)
		}
	}
	if resumed {
		fmt.Printf("resumed %s (%s) from %s at step %d\n", srv.Algorithm(), layout, *ckpt, srv.T())
	} else {
		fmt.Printf("serving %s (%s) fresh\n", srv.Algorithm(), layout)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.HandlerWith(*stream)}
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		transports := "transports: http"
		if *stream {
			transports = "transports: http + binary /stream + sse /metrics/stream"
		}
		fmt.Printf("listening on %s (coalescing window %v, queue %d; %s)\n", *addr, *window, *queue, transports)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	<-done
	fmt.Println("\nshutting down: draining queue and writing final checkpoint")
	// Close the service before the HTTP listener: Close ends every Watch
	// subscription, so blocked /metrics/stream handlers return and
	// Shutdown does not stall its full timeout waiting on SSE consumers.
	// (Hijacked /stream connections are outside Shutdown's tracking and
	// close with the process.) Handlers that race the close get 503.
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "final checkpoint: %v\n", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "http shutdown: %v\n", err)
	}
	res := srv.Finish()
	fmt.Printf("served %d steps, %s, final positions %v\n", res.Steps, res.Cost, res.Final)
}

// open resumes from the checkpoint file when it exists, otherwise starts
// fresh — in router mode when the configuration is sharded, with each
// region's fleet spread inside its own boundaries.
func open(cfg core.Config, newAlg func() core.FleetAlgorithm, opts server.Options, radius float64) (*server.Server, bool, error) {
	sharded := cfg.Partition.Shards() > 1
	if opts.CheckpointPath != "" {
		if snap, err := os.ReadFile(opts.CheckpointPath); err == nil {
			var srv *server.Server
			if sharded {
				srv, err = server.ResumeSharded(cfg, newAlg, snap, opts)
			} else {
				srv, err = server.Resume(cfg, newAlg(), snap, opts)
			}
			if err != nil {
				return nil, false, fmt.Errorf("resume from %s: %w", opts.CheckpointPath, err)
			}
			return srv, true, nil
		} else if !os.IsNotExist(err) {
			return nil, false, err
		}
	}
	if sharded {
		srv, err := server.NewSharded(cfg, shard.Starts(cfg, radius), newAlg, opts)
		return srv, false, err
	}
	var starts []geom.Point
	if cfg.Servers() == 1 {
		starts = []geom.Point{geom.Zero(cfg.Dim)}
	} else {
		starts = multi.SpreadStarts(cfg, radius)
	}
	srv, err := server.New(cfg, starts, newAlg(), opts)
	return srv, false, err
}

// pickAlgorithm maps the -alg flag to a factory for fleet controllers
// (sharded servers need one independent instance per shard), defaulting to
// the paper's MtC for a single unsharded server and cluster-and-chase
// otherwise.
func pickAlgorithm(name string, cfg core.Config) (func() core.FleetAlgorithm, error) {
	if name == "" {
		if cfg.Servers() > 1 || cfg.Partition.Shards() > 1 {
			name = "mtck"
		} else {
			name = "mtc"
		}
	}
	switch name {
	case "mtc":
		if cfg.Servers() != 1 {
			return nil, fmt.Errorf("mobserve: -alg mtc is single-server; use -alg mtck for K=%d", cfg.Servers())
		}
		return func() core.FleetAlgorithm { return core.Fleet(core.NewMtC()) }, nil
	case "mtck":
		return func() core.FleetAlgorithm { return multi.NewMtCK() }, nil
	case "lazy":
		return func() core.FleetAlgorithm { return multi.NewLazyK() }, nil
	default:
		return nil, fmt.Errorf("mobserve: unknown algorithm %q (mtc|mtck|lazy)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mobserve:", err)
	os.Exit(1)
}
