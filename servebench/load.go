package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/streamclient"
	"repro/internal/wire"
)

// loadgen is the load generator: one stream connection for step frames and
// one HTTP keep-alive connection for reads, so the load never holds more
// than two connections at once (the benchmark machine's nproc).
type loadgen struct {
	epoch time.Time
	cl    *streamclient.Client
	hc    *http.Client
	addr  string
	dim   int
	// throttles counts the throttle frames absorbed by closed connections.
	throttles int64
}

func newLoadgen(epoch time.Time, cl *streamclient.Client, addr string, dim int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &loadgen{epoch: epoch, cl: cl, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, addr: addr, dim: dim}
}

// redial replaces the stream connection (every frame on it has been acked)
// with a fresh one to the same session; the next read opens a fresh HTTP
// connection too.
func (d *loadgen) redial() error {
	d.throttles += d.cl.Throttles()
	d.cl.Close()
	d.hc.Transport.(*http.Transport).CloseIdleConnections()
	cl, err := streamclient.Dial(d.addr, "/stream", streamclient.Options{Dim: d.dim})
	if err != nil {
		return err
	}
	d.cl = cl
	return nil
}

// totalThrottles counts the throttled-and-resent frames of every
// connection so far.
func (d *loadgen) totalThrottles() int64 { return d.throttles + d.cl.Throttles() }

func (d *loadgen) close() {
	d.cl.Close()
	d.hc.Transport.(*http.Transport).CloseIdleConnections()
}

func (d *loadgen) now() int64 { return int64(time.Since(d.epoch)) }

// frameRec is one sent frame: its span on the client (Due, Sent, SentEnd,
// Acked, in nanoseconds since the epoch) and what its ack said.
type frameRec struct {
	ID                   int64
	Due                  int64
	Sent, SentEnd, Acked int64
	N                    int // requests in the frame
	T, Batched, Accepted int
	Cost                 wire.Cost
	// MaxRouted and SumRouted summarize the ack's per-shard routing.
	MaxRouted, SumRouted, Shards int
	Failed                       bool
}

// phase is what one load phase produced.
type phase struct {
	// tally reconciles every ack of the phase as it arrives.
	tally *tally
	// keep says whether recs holds every frame; the saturation phase,
	// whose frames are only counted, keeps none, so the benchmark's own
	// bookkeeping stays small beside the server it measures.
	keep bool
	recs []frameRec
	// segs are the phase's runs on one connection each; sent counts the
	// frames sent so far, so each segment continues through the frames.
	segs []segment
	sent int
	// last holds the positions of the phase's final ack.
	last []wire.Point
	// acks holds deep copies of the phase's first sample acks, for the
	// wire layer's encode/decode timing on the workload's own acks.
	sample int
	acks   []wire.AckFrame
}

// newPhase starts a phase. A phase that keeps its records reserves room
// for reserve records up front, so their growth neither copies them nor
// moves the heap's peak from run to run.
func newPhase(before wire.MetricsResponse, keep bool, reserve, sample int) *phase {
	ph := &phase{tally: newTally(before), keep: keep, sample: sample}
	if keep {
		ph.recs = make([]frameRec, 0, reserve)
	}
	return ph
}

// segment is one connection's share of a phase: its span, the index of
// its first record, and the requests acked in it.
type segment struct {
	span
	first, ack int
}

// flight is one frame handed from the sender to the collector.
type flight struct {
	due, sent, sentEnd int64
	n                  int
	p                  *streamclient.Pending
	err                error
}

// closedLoop runs one segment of ph that keeps up to window frames in
// flight, each sent as soon as a slot frees. It sends count frames, or,
// with count 0, cycles through frames until dur has passed. Window 1 is
// lockstep.
func (d *loadgen) closedLoop(ph *phase, frames [][]wire.Point, window, count int, dur time.Duration) *phase {
	start, base := d.now(), ph.sent
	deadline := start + int64(dur)
	slots := make(chan struct{}, window) // a semaphore of window slots
	in := make(chan flight, window)      // never holds more than the slots allow
	go func() {
		defer close(in)
		for i := 0; count == 0 || i < count; i++ {
			slots <- struct{}{}
			sent := d.now()
			if count == 0 && sent >= deadline {
				return
			}
			f := frames[(base+i)%len(frames)]
			p, err := d.cl.Step(f)
			in <- flight{due: sent, sent: sent, sentEnd: d.now(), n: len(f), p: p, err: err}
		}
	}()
	d.collect(in, slots, ph, start)
	return ph
}

// openLoop runs one segment of ph that sends frame i when it is due, at
// the segment's start plus arrivals[i], whether or not earlier frames were
// acked. Latency is timed from the due time, so a stall also charges the
// frames it delayed.
func (d *loadgen) openLoop(ph *phase, frames [][]wire.Point, arrivals []int64) *phase {
	start, base := d.now(), ph.sent
	in := make(chan flight, len(arrivals)) // sized to the number of sends
	go func() {
		defer close(in)
		for i, at := range arrivals {
			due := start + at
			if wait := due - d.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			sent := d.now()
			f := frames[(base+i)%len(frames)]
			p, err := d.cl.Step(f)
			in <- flight{due: due, sent: sent, sentEnd: d.now(), n: len(f), p: p, err: err}
		}
	}()
	d.collect(in, nil, ph, start)
	return ph
}

// collect waits for every flight's ack in order, records it, and frees its
// slot (when the sender is slot-limited); the segment ends with its last
// ack.
func (d *loadgen) collect(in <-chan flight, slots chan struct{}, ph *phase, start int64) {
	seg := segment{span: span{Start: start}, first: len(ph.recs)}
	for fl := range in {
		ph.sent++
		rec := frameRec{Due: fl.due, Sent: fl.sent, SentEnd: fl.sentEnd, N: fl.n, Failed: fl.err != nil}
		if fl.err == nil {
			rec.ID = fl.p.ID
			ack, err := fl.p.Wait()
			rec.Acked = d.now()
			if err != nil {
				rec.Failed = true
			} else {
				rec.T, rec.Batched, rec.Accepted, rec.Cost = ack.T, ack.Batched, ack.Accepted, ack.Cost
				rec.Shards = len(ack.Shards)
				for _, sh := range ack.Shards {
					rec.SumRouted += sh.Routed
					if sh.Routed > rec.MaxRouted {
						rec.MaxRouted = sh.Routed
					}
				}
				ph.last = copyPoints(ph.last, ack.Positions)
				if len(ph.acks) < ph.sample {
					ph.acks = append(ph.acks, copyAck(ack))
				}
			}
			fl.p.Release()
		}
		ph.tally.add(rec)
		if !rec.Failed {
			seg.ack += rec.N
		}
		if ph.keep {
			ph.recs = append(ph.recs, rec)
		}
		if slots != nil {
			<-slots
		}
	}
	seg.End = d.now()
	ph.segs = append(ph.segs, seg)
}

// segRecs returns the records of segment i of a phase that keeps them.
func (ph *phase) segRecs(i int) []frameRec {
	end := len(ph.recs)
	if i+1 < len(ph.segs) {
		end = ph.segs[i+1].first
	}
	return ph.recs[ph.segs[i].first:end]
}

func copyPoints(dst, src []wire.Point) []wire.Point {
	dst = dst[:0]
	for _, p := range src {
		dst = append(dst, append(wire.Point(nil), p...))
	}
	return dst
}

func copyAck(a wire.AckFrame) wire.AckFrame {
	a.Positions = copyPoints(nil, a.Positions)
	a.Shards = append([]wire.ShardStep(nil), a.Shards...)
	return a
}

// reads is what the /state poller saw.
type reads struct {
	at, latency []int64 // start and duration of each GET /state, in ns
	bytes       []int
	errs        []error
}

// pollState reads GET /state at hz until stop closes, beside the step
// frames, on the generator's HTTP connection.
func (d *loadgen) pollState(hz int, stop <-chan struct{}) reads {
	var r reads
	tick := time.NewTicker(time.Second / time.Duration(hz))
	defer tick.Stop()
	lastT := -1
	for {
		select {
		case <-stop:
			return r
		case <-tick.C:
		}
		start := d.now()
		body, err := d.get("/state")
		lat := d.now() - start
		if err == nil {
			var st wire.StateResponse
			if err = wire.UnmarshalStrict(body, &st); err == nil && st.T < lastT {
				err = fmt.Errorf("/state went back from t=%d to t=%d", lastT, st.T)
			}
			lastT = st.T
		}
		if err != nil {
			r.errs = append(r.errs, err)
			continue
		}
		r.at = append(r.at, start)
		r.latency = append(r.latency, lat)
		r.bytes = append(r.bytes, len(body))
	}
}

// withReads runs load with the /state poller beside it.
func (d *loadgen) withReads(hz int, load func() error) (reads, error) {
	stop := make(chan struct{})
	var r reads
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r = d.pollState(hz, stop)
	}()
	err := load()
	close(stop)
	wg.Wait()
	return r, err
}

// get reads one endpoint's body.
func (d *loadgen) get(path string) ([]byte, error) {
	resp, err := d.hc.Get("http://" + d.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// metrics reads and strictly decodes GET /metrics, returning the raw body
// too.
func (d *loadgen) metrics() (wire.MetricsResponse, []byte, error) {
	var m wire.MetricsResponse
	body, err := d.get("/metrics")
	if err == nil {
		err = wire.UnmarshalStrict(body, &m)
	}
	return m, body, err
}
