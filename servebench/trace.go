package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/shard"
)

// span is one timed interval in nanoseconds since the run's epoch.
type span struct {
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// stepSpan is one backend step. T is the step index the ack's t names,
// which links a frame to the step that served it. Async and Resolve are
// the coordinator's two halves of the step (zero on other backends).
type stepSpan struct {
	T int
	span
	Async, Resolve span
}

// tracer keeps the traced run's spans in memory; they are derived into
// per-layer metrics and written out when the run ends. It records from
// the benchmark's own wrappers around public seams, never from inside the
// program.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	steps []stepSpan
	moves []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) step(s stepSpan) {
	tr.mu.Lock()
	tr.steps = append(tr.steps, s)
	tr.mu.Unlock()
}

func (tr *tracer) move(s span) {
	tr.mu.Lock()
	tr.moves = append(tr.moves, s)
	tr.mu.Unlock()
}

// snapshot returns the spans recorded so far, steps in step order and
// moves in start order.
func (tr *tracer) snapshot() ([]stepSpan, []span) {
	tr.mu.Lock()
	steps := append([]stepSpan(nil), tr.steps...)
	moves := append([]span(nil), tr.moves...)
	tr.mu.Unlock()
	sort.Slice(steps, func(i, j int) bool { return steps[i].T < steps[j].T })
	sort.Slice(moves, func(i, j int) bool { return moves[i].Start < moves[j].Start })
	return steps, moves
}

// algSpans times FleetAlgorithm.Move: the algorithm rung of the ladder.
type algSpans struct {
	core.FleetAlgorithm
	tr *tracer
}

func (a *algSpans) Move(requests []geom.Point) []geom.Point {
	start := a.tr.now()
	pos := a.FleetAlgorithm.Move(requests)
	a.tr.move(span{start, a.tr.now()})
	return pos
}

// alg wraps a, keeping every optional interface a implements: the engine
// checks core.FleetSizer and snapshots through core.Snapshotter, so a
// wrapper that hid either would serve a different program.
func (tr *tracer) alg(a core.FleetAlgorithm) core.FleetAlgorithm {
	w := &algSpans{FleetAlgorithm: a, tr: tr}
	sn, snap := a.(core.Snapshotter)
	fs, sized := a.(core.FleetSizer)
	switch {
	case snap && sized:
		return struct {
			*algSpans
			core.Snapshotter
			core.FleetSizer
		}{w, sn, fs}
	case snap:
		return struct {
			*algSpans
			core.Snapshotter
		}{w, sn}
	case sized:
		return struct {
			*algSpans
			core.FleetSizer
		}{w, fs}
	}
	return w
}

func (tr *tracer) newAlg(f func() core.FleetAlgorithm) func() core.FleetAlgorithm {
	return func() core.FleetAlgorithm { return tr.alg(f()) }
}

// The backend wrappers embed the concrete backend, so every method and
// optional interface it has (PositionsInto on a session; the region and
// rebalancing surface on a router; the pipelined and failover surface on
// a coordinator) is promoted unchanged, and only the step is timed.

// sessionSpans times engine.Session.Step.
type sessionSpans struct {
	*engine.Session
	tr *tracer
}

func (b *sessionSpans) Step(requests []geom.Point) error {
	t, start := b.T(), b.tr.now()
	err := b.Session.Step(requests)
	b.tr.step(stepSpan{T: t, span: span{start, b.tr.now()}})
	return err
}

// routerSpans times shard.Router.Step.
type routerSpans struct {
	*shard.Router
	tr *tracer
}

func (b *routerSpans) Step(requests []geom.Point) error {
	t, start := b.T(), b.tr.now()
	err := b.Router.Step(requests)
	b.tr.step(stepSpan{T: t, span: span{start, b.tr.now()}})
	return err
}

// coordSpans times the coordinator's StepAsync and ResolveOldest. The
// service drives a lockstep coordinator through Step, which the
// coordinator defines as StepAsync followed by ResolveOldest; the wrapper
// makes the same two calls so both halves get spans.
type coordSpans struct {
	*cluster.Coordinator
	tr   *tracer
	open []stepSpan // submitted, unresolved steps, oldest first
}

func (b *coordSpans) Step(requests []geom.Point) error {
	if err := b.StepAsync(requests); err != nil {
		return err
	}
	return b.ResolveOldest()
}

func (b *coordSpans) StepAsync(requests []geom.Point) error {
	s := stepSpan{T: b.Coordinator.T() + len(b.open)}
	s.Async.Start = b.tr.now()
	err := b.Coordinator.StepAsync(requests)
	s.Async.End = b.tr.now()
	if err == nil {
		b.open = append(b.open, s)
	}
	return err
}

func (b *coordSpans) ResolveOldest() error {
	start := b.tr.now()
	err := b.Coordinator.ResolveOldest()
	end := b.tr.now()
	if len(b.open) > 0 {
		s := b.open[0]
		b.open = b.open[1:]
		s.Resolve = span{start, end}
		s.span = span{s.Async.Start, end}
		b.tr.step(s)
	}
	return err
}

// solve is the algorithm's part of one backend step: how much of the step
// its Move spans cover (their union, so concurrent shards count once),
// and when the first one started and the last one ended (both 0 when the
// step ran none).
type solve struct {
	covered, first, last int64
}

// solves returns the solve of each step; moves must be sorted by start.
func solves(steps []stepSpan, moves []span) []solve {
	out := make([]solve, len(steps))
	for i, st := range steps {
		j := sort.Search(len(moves), func(k int) bool { return moves[k].Start >= st.Start })
		var cur span
		open := false
		for ; j < len(moves) && moves[j].Start < st.End; j++ {
			m := moves[j]
			if m.End > st.End {
				continue
			}
			if !open {
				out[i].first = m.Start
			}
			if m.End > out[i].last {
				out[i].last = m.End
			}
			switch {
			case !open:
				cur, open = m, true
			case m.Start <= cur.End:
				if m.End > cur.End {
					cur.End = m.End
				}
			default:
				out[i].covered += cur.dur()
				cur = m
			}
		}
		if open {
			out[i].covered += cur.dur()
		}
	}
	return out
}
