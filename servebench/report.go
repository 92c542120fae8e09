package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/fsx"
	"repro/internal/wire"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

const msPerNs, usPerNs = 1e-6, 1e-3

// stepLatencies are the lockstep phase's send-to-ack times in ms.
func stepLatencies(o *runOut) []float64 {
	var xs []float64
	for _, r := range o.lock.recs {
		if !r.Failed {
			xs = append(xs, float64(r.Acked-r.Sent)*msPerNs)
		}
	}
	return xs
}

// ackQuantile is the median over the open phase's segments of each
// segment's q-quantile of due-to-ack time, in ms.
func ackQuantile(o *runOut, q float64) float64 {
	var per []float64
	for i := range o.open.segs {
		var xs []float64
		for _, r := range o.open.segRecs(i) {
			if !r.Failed {
				xs = append(xs, float64(r.Acked-r.Due)*msPerNs)
			}
		}
		per = append(per, quantile(xs, q))
	}
	return median(per)
}

// readP50 is the median over the open phase's segments of the median
// GET /state latency in each, in ms.
func readP50(o *runOut) float64 {
	var per []float64
	for _, s := range o.open.segs {
		var xs []float64
		for i, at := range o.reads.at {
			if at >= s.Start && at < s.End {
				xs = append(xs, float64(o.reads.latency[i])*msPerNs)
			}
		}
		if len(xs) > 0 {
			per = append(per, median(xs))
		}
	}
	return median(per)
}

// throughput is the median over the saturation phase's segments of the
// requests acked per second.
func throughput(o *runOut) float64 {
	var per []float64
	for _, s := range o.sat.segs {
		per = append(per, float64(s.ack)/(float64(s.dur())/1e9))
	}
	return median(per)
}

// lagP99 is how late the open-loop generator sent, in ms.
func lagP99(o *runOut) float64 {
	var xs []float64
	for _, r := range o.open.recs {
		xs = append(xs, float64(r.Sent-r.Due)*msPerNs)
	}
	return quantile(xs, 0.99)
}

// endToEnd derives the gated metrics a user of the server sees, from an
// untraced run.
func endToEnd(w workSpec, o *runOut) map[string]metric {
	within := 0
	for _, r := range o.open.recs {
		if !r.Failed && float64(r.Acked-r.Due)*msPerNs <= w.LatencyLimitMS {
			within++
		}
	}
	return map[string]metric{
		"setup_s":          {median(o.setup), "s"},
		"step_p50_ms":      {median(stepLatencies(o)), "ms"},
		"throughput_rps":   {throughput(o), "1/s"},
		"slo_frac":         {float64(within) / float64(len(o.open.recs)), "fraction"},
		"cost_per_request": {o.costPerRequest, "cost"},
		"mem_peak_mb":      {peakRSSMB(), "MB"},
	}
}

// ungated derives the latencies that are printed and recorded beside the
// end-to-end metrics but not gated. On a shared two-CPU machine with a
// shared disk they follow what else the machine does: the lockstep tail
// follows the fsync tail, and the open phase's acks and the /state reads
// of the durable workload wait on the checkpoint fsync (the reads for the
// service lock the step holds, the acks for the server's next write
// flush), so their run-to-run spread there exceeds any bound the
// benchmark could hold a change to.
func ungated(o *runOut) map[string]metric {
	steps := stepLatencies(o)
	return map[string]metric{
		"step_p95_ms": {quantile(steps, 0.95), "ms"},
		"step_p99_ms": {quantile(steps, 0.99), "ms"},
		"ack_p50_ms":  {ackQuantile(o, 0.5), "ms"},
		"ack_p95_ms":  {ackQuantile(o, 0.95), "ms"},
		"ack_p99_ms":  {ackQuantile(o, 0.99), "ms"},
		"read_p50_ms": {readP50(o), "ms"},
	}
}

// perLayer derives the per-layer metrics: spans from the traced run t,
// process counters and generator lag from the untraced run u. Span
// metrics cover the open phase, where frames, steps and reads run
// together.
func perLayer(pool [][]wire.Point, u, t *runOut, dir string) (map[string]metric, error) {
	byT := map[int]stepSpan{}
	for _, st := range t.stepSpans {
		byT[st.T] = st
	}
	var clientStep, queueWait, ackPath []float64
	type stepInfo struct {
		frames, requests int
		imbalance        float64
	}
	steps := map[int]*stepInfo{}
	var order []int
	for _, r := range t.open.recs {
		if r.Failed {
			continue
		}
		clientStep = append(clientStep, float64(r.SentEnd-r.Sent)*usPerNs)
		if st, ok := byT[r.T]; ok {
			queueWait = append(queueWait, float64(st.Start-r.Sent)*usPerNs)
			ackPath = append(ackPath, float64(r.Acked-st.End)*usPerNs)
		}
		si := steps[r.T]
		if si == nil {
			si = &stepInfo{requests: r.Batched, imbalance: 1}
			if r.Shards > 0 && r.SumRouted > 0 {
				si.imbalance = float64(r.MaxRouted) / (float64(r.SumRouted) / float64(r.Shards))
			}
			steps[r.T] = si
			order = append(order, r.T)
		}
		si.frames++
	}
	var openSteps []stepSpan
	var frames, requests int
	var imbalance []float64
	for _, tt := range order {
		si := steps[tt]
		frames += si.frames
		requests += si.requests
		imbalance = append(imbalance, si.imbalance)
		if st, ok := byT[tt]; ok {
			openSteps = append(openSteps, st)
		}
	}
	sv := solves(openSteps, t.moves)
	var stepUS, selfUS, moveUS, asyncUS, resolveUS []float64
	var sumCov, sumDur int64
	for i, st := range openSteps {
		stepUS = append(stepUS, float64(st.dur())*usPerNs)
		selfUS = append(selfUS, float64(st.dur()-sv[i].covered)*usPerNs)
		moveUS = append(moveUS, float64(sv[i].covered)*usPerNs)
		sumCov += sv[i].covered
		sumDur += st.dur()
		switch {
		case st.Async.End > 0:
			asyncUS = append(asyncUS, float64(st.Async.dur())*usPerNs)
			resolveUS = append(resolveUS, float64(st.Resolve.dur())*usPerNs)
		case sv[i].last > 0:
			// A backend that steps synchronously has no StepAsync or
			// ResolveOldest; its halves are the work of Step before the
			// solve and after it.
			asyncUS = append(asyncUS, float64(sv[i].first-st.Start)*usPerNs)
			resolveUS = append(resolveUS, float64(st.End-sv[i].last)*usPerNs)
		}
	}
	var stateBytes []float64
	for _, b := range t.reads.bytes {
		stateBytes = append(stateBytes, float64(b))
	}
	fsxUS, err := writeAtomicUS(dir, t.checkpointBytes)
	if err != nil {
		return nil, err
	}
	wt := wireTimes(sampleFrames(pool, 256), t.open.acks)
	nsteps := float64(len(order))
	share := 0.0
	if sumDur > 0 {
		share = float64(sumCov) / float64(sumDur)
	}
	failed := u.failed() + t.failed()
	attempted := u.attempted() + t.attempted()
	m := map[string]metric{
		"streamclient.step_us":       {median(clientStep), "us"},
		"streamclient.throttles":     {float64(t.throttles), "count"},
		"wire.step_encode_ns":        {wt.stepEncode, "ns"},
		"wire.step_decode_ns":        {wt.stepDecode, "ns"},
		"wire.ack_encode_ns":         {wt.ackEncode, "ns"},
		"wire.ack_decode_ns":         {wt.ackDecode, "ns"},
		"wire.step_bytes":            {wt.stepBytes, "bytes"},
		"wire.ack_bytes":             {wt.ackBytes, "bytes"},
		"protocol.queue_wait_us":     {median(queueWait), "us"},
		"protocol.ack_path_us":       {median(ackPath), "us"},
		"protocol.frames_per_step":   {float64(frames) / nsteps, "count"},
		"protocol.requests_per_step": {float64(requests) / nsteps, "count"},
		"protocol.checkpoint_bytes":  {float64(t.checkpointBytes), "bytes"},
		"shard.step_us":              {median(stepUS), "us"},
		"shard.self_us":              {median(selfUS), "us"},
		"shard.imbalance":            {median(imbalance), "ratio"},
		"core.move_us":               {median(moveUS), "us"},
		"core.move_share":            {share, "fraction"},
		"cluster.step_async_us":      {median(asyncUS), "us"},
		"cluster.resolve_us":         {median(resolveUS), "us"},
		"fsx.write_atomic_us":        {fsxUS, "us"},
		"server.state_bytes":         {median(stateBytes), "bytes"},
		"process.allocs_per_step":    {float64(u.proc.allocs) / float64(u.steps), "count"},
		"process.cpu_ms_per_kreq":    {float64(u.proc.cpu) / 1e6 / (float64(u.requests) / 1000), "ms"},
		"process.gc_cycles":          {float64(u.proc.gcs), "count"},
		"loadgen.lag_p99_ms":         {lagP99(u), "ms"},
		"loadgen.error_frac":         {float64(failed) / float64(attempted), "fraction"},
		"trace.overhead_frac":        {ackQuantile(t, 0.5)/ackQuantile(u, 0.5) - 1, "fraction"},
	}
	return m, nil
}

// wireCosts are the wire layer's per-frame costs on the workload's own
// frames and acks.
type wireCosts struct {
	stepEncode, stepDecode, ackEncode, ackDecode float64 // ns per frame
	stepBytes, ackBytes                          float64 // mean payload
}

// wireTimes times wire.AppendStepFrom / DecodeStep / AppendAckFrom /
// DecodeAck over the given frames and acks.
func wireTimes(frames [][]wire.Point, acks []wire.AckFrame) wireCosts {
	var c wireCosts
	if len(frames) == 0 || len(acks) == 0 {
		return c
	}
	steps := make([][]byte, len(frames))
	for i, f := range frames {
		steps[i] = wire.AppendStepFrom(nil, wire.V1, int64(i+1), f)
		c.stepBytes += float64(len(steps[i]))
	}
	c.stepBytes /= float64(len(frames))
	ackPayloads := make([][]byte, len(acks))
	for i := range acks {
		ackPayloads[i] = wire.AppendAck(nil, &acks[i])
		c.ackBytes += float64(len(ackPayloads[i]))
	}
	c.ackBytes /= float64(len(acks))

	var buf []byte
	c.stepEncode = perOp(len(frames), func() {
		for i, f := range frames {
			buf = wire.AppendStepFrom(buf[:0], wire.V1, int64(i+1), f)
		}
	})
	var sf wire.StepFrame
	c.stepDecode = perOp(len(steps), func() {
		for _, p := range steps {
			_ = wire.DecodeStep(p, &sf)
		}
	})
	c.ackEncode = perOp(len(acks), func() {
		for i := range acks {
			a := &acks[i]
			buf = wire.AppendAckFrom(buf[:0], a.V, a.ID, a.T, a.Accepted, a.Batched, a.Cost, a.Clamped, a.Positions, a.Shards)
		}
	})
	var af wire.AckFrame
	c.ackDecode = perOp(len(ackPayloads), func() {
		for _, p := range ackPayloads {
			_ = wire.DecodeAck(p, &af)
		}
	})
	return c
}

// perOp runs round (which performs ops operations) for at least 20 ms at
// a time, five times, and returns the median nanoseconds per operation.
func perOp(ops int, round func()) float64 {
	var rounds []float64
	for r := 0; r < 5; r++ {
		n := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			round()
			n += ops
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(rounds)
}

// writeAtomicUS times fsx.WriteFileAtomic of a checkpoint-sized payload in
// the checkpoint directory: the fsync share of a durable step.
func writeAtomicUS(dir string, size int) (float64, error) {
	d, err := os.Open(dir)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	path := filepath.Join(dir, "fsx-probe.ckpt")
	defer os.Remove(path)
	payload := make([]byte, size)
	var xs []float64
	for i := 0; i < 30; i++ {
		start := time.Now()
		if err := fsx.WriteFileAtomic(path, payload, d); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())*usPerNs)
	}
	return median(xs), nil
}
