package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/wire"
)

// tally reconciles a phase's acks, as they arrive, against the /metrics
// read before the phase (and, in check, after it). Every step in between
// served at least one of this client's frames (the client is the only
// traffic), so the acks' step indices must cover the steps after before's
// last without a gap; the frames sharing a step must agree on it and add
// up to its batch; and the per-step costs, added in step order exactly as
// the server's metrics observer adds them, must give after's totals bit
// for bit. Acks may name their steps out of order: a throttled frame is
// resent after frames sent behind it, which the server may step first.
type tally struct {
	before wire.MetricsResponse
	// open holds the steps, by index less before.Steps, whose acks do not
	// yet add up to their batch, or that wait behind such a step. The done
	// steps before them are complete and summed into move and serve, so
	// open stays as small as the frames in flight.
	open                map[int]*stepTally
	done                int
	move, serve         float64
	requests            int
	frames, failed, ack int // frames seen, failed, and requests acked
	err                 error
}

// stepTally is what the acks of one step said: its batch and cost, and how
// many of this client's requests they held.
type stepTally struct {
	batched, held int
	cost          wire.Cost
}

func newTally(before wire.MetricsResponse) *tally {
	return &tally{before: before, open: map[int]*stepTally{}, move: before.Cost.Move, serve: before.Cost.Serve}
}

func (c *tally) add(r frameRec) {
	c.frames++
	if r.Failed {
		c.failed++
		return
	}
	c.ack += r.N
	if c.err != nil {
		return
	}
	c.err = c.fold(r)
}

// fold adds one ack to its step and sums every step that is complete with
// all steps before it.
func (c *tally) fold(r frameRec) error {
	if r.Accepted != r.N {
		return fmt.Errorf("frame %d: ack accepted %d of %d requests", r.ID, r.Accepted, r.N)
	}
	i := r.T - c.before.Steps
	switch {
	case i < 0:
		return fmt.Errorf("frame %d: ack for step %d, before the phase's first step %d", r.ID, r.T, c.before.Steps)
	case i < c.done:
		return fmt.Errorf("frame %d: ack for step %d, whose batch earlier acks already held", r.ID, r.T)
	}
	c.requests += r.N
	st := c.open[i]
	if st == nil {
		st = &stepTally{batched: r.Batched, cost: r.Cost}
		c.open[i] = st
	} else if r.Batched != st.batched || r.Cost != st.cost {
		return fmt.Errorf("frames of step %d disagree on it: batch %d cost %v vs batch %d cost %v",
			r.T, r.Batched, r.Cost, st.batched, st.cost)
	}
	if st.held += r.N; st.held > st.batched {
		return fmt.Errorf("step %d batched %d requests but this client's frames in it hold %d", r.T, st.batched, st.held)
	}
	for st := c.open[c.done]; st != nil && st.held == st.batched; st = c.open[c.done] {
		c.move += st.cost.Move
		c.serve += st.cost.Serve
		delete(c.open, c.done)
		c.done++
	}
	return nil
}

// check compares the phase's acks with the /metrics read after it.
func (c *tally) check(after wire.MetricsResponse) error {
	if c.err != nil {
		return c.err
	}
	b := c.before
	if len(c.open) > 0 {
		t := b.Steps + c.done
		if st := c.open[c.done]; st != nil {
			return fmt.Errorf("step %d batched %d requests but this client's frames in it hold %d", t, st.batched, st.held)
		}
		return fmt.Errorf("no ack names step %d", t)
	}
	switch {
	case after.Steps != b.Steps+c.done:
		return fmt.Errorf("/metrics advanced %d steps, acks name %d", after.Steps-b.Steps, c.done)
	case after.Requests != b.Requests+c.requests:
		return fmt.Errorf("/metrics advanced %d requests, acks name %d", after.Requests-b.Requests, c.requests)
	case after.Cost.Move != c.move || after.Cost.Serve != c.serve:
		return fmt.Errorf("/metrics cost move %v serve %v, acks sum to move %v serve %v",
			after.Cost.Move, after.Cost.Serve, c.move, c.serve)
	}
	return nil
}

// checkLockstep checks the lockstep phase: no frame failed and every
// frame was its own step.
func checkLockstep(recs []frameRec) error {
	for i, r := range recs {
		if r.Failed {
			return fmt.Errorf("lockstep frame %d failed", i)
		}
		if r.Batched != r.N || r.T != i {
			return fmt.Errorf("lockstep frame %d: ack t=%d batched=%d, want t=%d batched=%d", i, r.T, r.Batched, i, r.N)
		}
	}
	return nil
}

// replay feeds the lockstep frames through a fresh in-process session (or
// router) with the stack's configuration and starts, and checks each
// step's cost and the final positions against the acks bit for bit. The
// cluster is replayed against the in-process router it is specified to
// equal.
func replay(s spec, w workSpec, lock [][]wire.Point, recs []frameRec, last []wire.Point) error {
	cfg := s.coreConfig(w)
	algs, err := newAlg(w.Alg)
	if err != nil {
		return err
	}
	var costs []core.Cost
	eo := engine.Options{Observers: []engine.Observer{engine.Func(func(info engine.StepInfo) {
		costs = append(costs, info.Cost)
	})}}
	var b interface {
		Step([]geom.Point) error
		Positions() []geom.Point
	}
	switch w.Stack {
	case "single":
		b, err = engine.NewSession(cfg, localStarts(s, cfg), algs(), eo)
	case "sharded":
		b, err = shard.New(cfg, shard.Starts(cfg, s.Config.Radius), algs, eo)
	case "cluster":
		b, err = shard.New(cfg, shard.Starts(cfg, s.Config.Span), algs, eo)
	default:
		err = fmt.Errorf("unknown stack %q", w.Stack)
	}
	if err != nil {
		return err
	}
	for i, f := range lock {
		pts := make([]geom.Point, len(f))
		for j, p := range f {
			pts[j] = geom.Point(p)
		}
		if err := b.Step(pts); err != nil {
			return fmt.Errorf("replay step %d: %w", i, err)
		}
		if c := recs[i].Cost; c.Move != costs[i].Move || c.Serve != costs[i].Serve {
			return fmt.Errorf("step %d: served cost move %v serve %v, replay move %v serve %v",
				i, c.Move, c.Serve, costs[i].Move, costs[i].Serve)
		}
	}
	want := b.Positions()
	if len(want) != len(last) {
		return fmt.Errorf("final positions: served %d servers, replay %d", len(last), len(want))
	}
	for j := range want {
		if !equalPoint(want[j], last[j]) {
			return fmt.Errorf("final position %d: served %v, replay %v", j, last[j], want[j])
		}
	}
	return nil
}

func equalPoint(a geom.Point, b wire.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
