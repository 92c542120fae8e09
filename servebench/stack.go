package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/shard"
)

// stack is one running serving stack on loopback: the front server a
// client dials, and for the cluster workload the workers behind it.
type stack struct {
	srv     *server.Server
	front   *http.Server
	addr    string
	workers []*cluster.Worker
	backs   []*http.Server
	// workerAddrs are the workers' listen addresses, which /state names.
	workerAddrs []string
	ckptDir     string
}

// newAlg maps a workload's algorithm to the factory cmd/mobserve and
// cmd/mobcluster pick for it.
func newAlg(name string) (func() core.FleetAlgorithm, error) {
	switch name {
	case "mtc":
		return func() core.FleetAlgorithm { return core.Fleet(core.NewMtC()) }, nil
	case "mtck":
		return func() core.FleetAlgorithm { return multi.NewMtCK() }, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

// localStarts is cmd/mobserve's start layout for an unsharded session.
func localStarts(s spec, cfg core.Config) []geom.Point {
	if cfg.Servers() == 1 {
		return []geom.Point{geom.Zero(cfg.Dim)}
	}
	return multi.SpreadStarts(cfg, s.Config.Radius)
}

// buildStack starts the workload's stack with cmd/mobserve's and
// cmd/mobcluster's default options. Untraced (tr == nil) it uses the same
// public constructors those commands do; traced, it builds the same
// backend itself and hands a span-recording wrapper of it, with wrapped
// algorithms, to protocol.NewFromBackend. ckptDir is where the cluster
// workers keep their checkpoints.
func buildStack(s spec, w workSpec, ckptDir string, tr *tracer) (st *stack, err error) {
	cfg := s.coreConfig(w)
	algs, err := newAlg(w.Alg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		algs = tr.newAlg(algs)
	}
	opts := server.Options{CoalesceWindow: s.coalesce(), QueueLimit: s.Config.Queue, CheckpointEvery: 1}
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	switch w.Stack {
	case "single":
		starts := localStarts(s, cfg)
		if tr == nil {
			st.srv, err = server.New(cfg, starts, algs(), opts)
			break
		}
		st.srv, err = traced(cfg, opts, func(eo engine.Options) (protocol.Backend, error) {
			sess, err := engine.NewSession(cfg, starts, algs(), eo)
			if err != nil {
				return nil, err
			}
			return &sessionSpans{Session: sess, tr: tr}, nil
		})
	case "sharded":
		starts := shard.Starts(cfg, s.Config.Radius)
		if tr == nil {
			st.srv, err = server.NewSharded(cfg, starts, algs, opts)
			break
		}
		st.srv, err = traced(cfg, opts, func(eo engine.Options) (protocol.Backend, error) {
			r, err := shard.New(cfg, starts, algs, eo)
			if err != nil {
				return nil, err
			}
			return &routerSpans{Router: r, tr: tr}, nil
		})
	case "cluster":
		err = st.startCluster(s, cfg, algs, ckptDir, tr)
	default:
		err = fmt.Errorf("unknown stack %q", w.Stack)
	}
	if err != nil {
		return st, err
	}
	st.front, st.addr, err = listen(st.srv.Handler())
	return st, err
}

func traced(cfg core.Config, opts server.Options, open func(engine.Options) (protocol.Backend, error)) (*server.Server, error) {
	svc, err := protocol.NewFromBackend(cfg, open, opts)
	if err != nil {
		return nil, err
	}
	return server.NewFromService(cfg, svc), nil
}

// startCluster starts two workers sharing ckptDir (per-step checkpoints,
// lockstep window) and a coordinator over them, as cmd/mobcluster does
// with its defaults.
func (st *stack) startCluster(s spec, cfg core.Config, algs func() core.FleetAlgorithm, ckptDir string, tr *tracer) error {
	st.ckptDir = ckptDir
	for i := 0; i < 2; i++ {
		wk, err := cluster.NewWorker(cfg, cluster.WorkerOptions{
			NewAlg:        algs,
			CheckpointDir: ckptDir,
			Span:          s.Config.Span,
			QueueLimit:    s.Config.Queue,
			MaxWindow:     1,
			CommitEvery:   1,
		})
		if err != nil {
			return err
		}
		st.workers = append(st.workers, wk)
		hs, addr, err := listen(wk)
		if err != nil {
			return err
		}
		st.backs = append(st.backs, hs)
		st.workerAddrs = append(st.workerAddrs, addr)
	}
	copts := cluster.CoordinatorOptions{Workers: st.workerAddrs, Heartbeat: time.Second, Window: 1}
	popts := protocol.Options{CoalesceWindow: s.coalesce(), QueueLimit: s.Config.Queue, Window: 1}
	if tr == nil {
		svc, err := cluster.NewService(cfg, copts, popts)
		if err != nil {
			return err
		}
		st.srv = server.NewFromService(cfg, svc)
		return nil
	}
	var err error
	st.srv, err = traced(cfg, popts, func(eo engine.Options) (protocol.Backend, error) {
		c, err := cluster.NewCoordinator(cfg, copts, eo)
		if err != nil {
			return nil, err
		}
		return &coordSpans{Coordinator: c, tr: tr}, nil
	})
	return err
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return hs, ln.Addr().String(), nil
}

// close drains the front service, stops every listener and worker, and
// removes the checkpoint directory. Clients must be closed first.
func (st *stack) close() error {
	var errs []error
	if st.srv != nil {
		errs = append(errs, st.srv.Close())
		st.srv.Finish()
	}
	if st.front != nil {
		errs = append(errs, st.front.Close())
	}
	for _, wk := range st.workers {
		errs = append(errs, wk.Close())
	}
	for _, hs := range st.backs {
		errs = append(errs, hs.Close())
	}
	if st.ckptDir != "" {
		errs = append(errs, os.RemoveAll(st.ckptDir))
	}
	return errors.Join(errs...)
}
