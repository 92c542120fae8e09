package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/streamclient"
	"repro/internal/wire"
)

// runCfg is one pass over a workload's three phases on one stack.
type runCfg struct {
	spec   spec
	work   workSpec
	frames frames
	satDur time.Duration
	// arrivals are the open phase's due times, one list per segment, in
	// nanoseconds from the segment's start.
	arrivals [][]int64
	// setups is how many throwaway stacks are built, timed and torn down
	// before the measured one, so setup_s is a median, not one sample.
	setups int
	dir    string
	tr     *tracer // nil for the untraced run
}

// runOut is everything one pass measured.
type runOut struct {
	setup           []float64 // seconds per stack built
	lock, sat, open *phase
	reads           reads
	// afterLock holds the /metrics and /state bodies after the lockstep
	// phase, which is deterministic per seed.
	afterLock       [2][]byte
	costPerRequest  float64
	checkpointBytes int
	throttles       int64
	// proc counts the process's work over the three phases (a run that
	// probes setups between them reports no process metrics); steps and
	// requests are what the server executed in them.
	proc     counters
	steps    int
	requests int
	// fails lists every correctness check that did not hold.
	fails []string
	// stepSpans and moves are the traced run's spans.
	stepSpans []stepSpan
	moves     []span
}

// open builds the n-th stack of the run and dials it, recording the time
// from the start of the build to the completed handshake.
func (c runCfg) open(out *runOut, n int) (*stack, *streamclient.Client, error) {
	start := time.Now()
	st, err := buildStack(c.spec, c.work, filepath.Join(c.dir, fmt.Sprintf("ckpt-%d", n)), c.tr)
	if err != nil {
		return nil, nil, fmt.Errorf("build stack: %w", err)
	}
	cl, err := streamclient.Dial(st.addr, "/stream", streamclient.Options{Dim: c.spec.Config.Dim})
	if err != nil {
		st.close()
		return nil, nil, fmt.Errorf("dial: %w", err)
	}
	out.setup = append(out.setup, time.Since(start).Seconds())
	return st, cl, nil
}

// counters are process-wide work counters.
type counters struct {
	allocs, gcs uint64
	cpu         time.Duration
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{ms.Mallocs, uint64(ms.NumGC), cpuTime()}
}

func (a counters) sub(b counters) counters {
	return counters{a.allocs - b.allocs, a.gcs - b.gcs, a.cpu - b.cpu}
}

// probeSetups times n throwaway stacks. The run spreads its setups over four points
// between the phases, so a slow spell of the machine at one moment does
// not decide setup_s.
func (c runCfg) probeSetups(out *runOut, n int) error {
	for range n {
		st, cl, err := c.open(out, len(out.setup)+1)
		if err != nil {
			return err
		}
		cl.Close()
		if err := st.close(); err != nil {
			return fmt.Errorf("close stack: %w", err)
		}
	}
	return nil
}

// run builds the stack, drives the lockstep, saturation and open phases
// on it, times setups+1 stacks in all, and checks every output.
func run(c runCfg, epoch time.Time) (*runOut, error) {
	out := &runOut{}
	// Start from a collected heap, so the garbage of input generation
	// neither slows the first setups nor decides when the measured run's
	// first collection falls.
	runtime.GC()
	probes := [4]int{}
	for i := range c.setups {
		probes[i%4]++
	}
	if err := c.probeSetups(out, probes[0]); err != nil {
		return nil, err
	}
	st, cl, err := c.open(out, 0)
	if err != nil {
		return nil, err
	}
	d := newLoadgen(epoch, cl, st.addr, c.spec.Config.Dim)
	defer st.close()
	defer d.close()

	fail := func(what string, err error) {
		if err != nil {
			out.fails = append(out.fails, what+": "+err.Error())
		}
	}
	m0, _, err := d.metrics()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	base := readCounters()

	// Every phase runs in segments, each on a fresh connection to the same
	// session: how the server's per-connection goroutines happen to be
	// scheduled can hold a connection's latency in one mode for its whole
	// life, so each segment is an independent draw, and the timed phases
	// report the median over segments.
	n := len(c.frames.lockstep)
	out.lock = newPhase(m0, true, n, 0)
	for i := range c.spec.Segments {
		if i > 0 {
			if err := d.redial(); err != nil {
				return nil, err
			}
		}
		d.closedLoop(out.lock, c.frames.lockstep, 1, (i+1)*n/c.spec.Segments-i*n/c.spec.Segments, 0)
	}
	m1, body, err := d.metrics()
	if err != nil {
		return nil, err
	}
	state, err := d.get("/state")
	if err != nil {
		return nil, err
	}
	// Worker ports differ between stacks; name workers by index so two
	// stacks' /state bodies compare byte for byte.
	for i, a := range st.workerAddrs {
		state = bytes.ReplaceAll(state, []byte(strconv.Quote(a)), []byte(strconv.Quote(fmt.Sprintf("worker-%d", i))))
	}
	out.afterLock = [2][]byte{body, state}
	out.costPerRequest = m1.Cost.Total / float64(m1.Requests)
	fail("lockstep", checkLockstep(out.lock.recs))
	fail("lockstep /metrics", out.lock.tally.check(m1))
	if len(out.fails) == 0 {
		fail("lockstep replay", replay(c.spec, c.work, c.frames.lockstep, out.lock.recs, out.lock.last))
	}
	if err := c.probeSetups(out, probes[1]); err != nil {
		return nil, err
	}

	out.sat = newPhase(m1, false, 0, 0)
	for range c.spec.Segments {
		if err := d.redial(); err != nil {
			return nil, err
		}
		d.closedLoop(out.sat, c.frames.pool, c.work.Window, 0, c.satDur/time.Duration(c.spec.Segments))
	}
	m2, _, err := d.metrics()
	if err != nil {
		return nil, err
	}
	fail("saturation /metrics", out.sat.tally.check(m2))
	if err := c.probeSetups(out, probes[2]); err != nil {
		return nil, err
	}

	sends := 0
	for _, arr := range c.arrivals {
		sends += len(arr)
	}
	out.open = newPhase(m2, true, sends, 256)
	out.reads, err = d.withReads(c.spec.ReadHz, func() error {
		for _, arr := range c.arrivals {
			if err := d.redial(); err != nil {
				return err
			}
			d.openLoop(out.open, c.frames.pool, arr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m3, _, err := d.metrics()
	if err != nil {
		return nil, err
	}
	fail("open /metrics", out.open.tally.check(m3))
	for _, e := range out.reads.errs {
		fail("GET /state", e)
	}

	out.proc = readCounters().sub(base)
	out.steps = m3.Steps - m0.Steps
	out.requests = m3.Requests - m0.Requests
	out.throttles = d.totalThrottles()
	snap, err := d.get("/snapshot")
	if err != nil {
		return nil, err
	}
	out.checkpointBytes = len(snap)
	if err := c.probeSetups(out, probes[3]); err != nil {
		return nil, err
	}
	if c.tr != nil {
		out.stepSpans, out.moves = c.tr.snapshot()
	}
	return out, nil
}

// attempted and failed count the run's frames over all phases.
func (o *runOut) attempted() int {
	return o.lock.tally.frames + o.sat.tally.frames + o.open.tally.frames
}

func (o *runOut) failed() int {
	return o.lock.tally.failed + o.sat.tally.failed + o.open.tally.failed
}

// sampleFrames returns the first n pool frames: the open phase sends
// the pool in order from its start.
func sampleFrames(pool [][]wire.Point, n int) [][]wire.Point {
	if len(pool) > n {
		return pool[:n]
	}
	return pool
}
