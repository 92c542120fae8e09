package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/wire"
)

// streamConn is a minimal stream client for tests: it speaks the
// POST /stream upgrade and the binary frames by hand so the tests
// exercise the real wire bytes.
type streamConn struct {
	t    testing.TB
	conn net.Conn
	br   *bufio.Reader
	buf  []byte // frame read buffer
}

func dialStream(t testing.TB, ts *httptest.Server) *streamConn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "POST /stream HTTP/1.1\r\nHost: stream-test\r\nContent-Length: 0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("POST /stream status line = %q", status)
	}
	for { // skip response headers
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}
	c := &streamConn{t: t, conn: conn, br: br}
	t.Cleanup(func() { conn.Close() })
	return c
}

// sendBinary writes one framed payload on the raw connection.
func (c *streamConn) sendBinary(tag byte, payload []byte) {
	c.t.Helper()
	bw := bufio.NewWriter(c.conn)
	if err := wire.WriteBinaryFrame(bw, tag, payload); err != nil {
		c.t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

// send encodes and writes one client frame (hello, step, ping, or bye).
func (c *streamConn) send(v any) {
	c.t.Helper()
	switch f := v.(type) {
	case wire.HelloFrame:
		c.sendBinary(wire.BinHello, wire.AppendHello(nil, &f))
	case wire.StepFrame:
		c.sendBinary(wire.BinStep, wire.AppendStep(nil, &f))
	case wire.PingFrame:
		c.sendBinary(wire.BinPing, wire.AppendControl(nil, f.V))
	case wire.ByeFrame:
		c.sendBinary(wire.BinBye, wire.AppendControl(nil, f.V))
	default:
		c.t.Fatalf("send: no client frame %T", v)
	}
}

// recvBinary reads the next frame and checks its tag.
func (c *streamConn) recvBinary(wantTag byte) []byte {
	c.t.Helper()
	tag, payload, err := wire.ReadBinaryFrame(c.br, &c.buf, wire.DefaultMaxFrame)
	if err != nil {
		c.t.Fatalf("reading frame: %v", err)
	}
	if tag != wantTag {
		c.t.Fatalf("got frame tag 0x%02x, want 0x%02x", tag, wantTag)
	}
	return payload
}

// recv reads the next frame and strictly decodes it into v, a pointer to
// the server frame type it must be (welcome, ack, throttle, error, pong).
func (c *streamConn) recv(v any) {
	c.t.Helper()
	var err error
	switch f := v.(type) {
	case *wire.WelcomeFrame:
		err = wire.DecodeWelcome(c.recvBinary(wire.BinWelcome), f)
	case *wire.AckFrame:
		err = wire.DecodeAck(c.recvBinary(wire.BinAck), f)
	case *wire.ThrottleFrame:
		err = wire.DecodeThrottle(c.recvBinary(wire.BinThrottle), f)
	case *wire.ErrorFrame:
		err = wire.DecodeErrorFrame(c.recvBinary(wire.BinError), f)
	case *wire.PongFrame:
		f.Type = wire.FramePong
		f.V, err = wire.DecodeControl(c.recvBinary(wire.BinPong))
	default:
		c.t.Fatalf("recv: no server frame %T", v)
	}
	if err != nil {
		c.t.Fatalf("decode %T: %v", v, err)
	}
}

// hello performs the handshake and returns the welcome.
func (c *streamConn) hello(dim int) wire.WelcomeFrame {
	c.t.Helper()
	c.send(wire.HelloFrame{V: wire.V1, Type: wire.FrameHello, Dim: dim})
	var w wire.WelcomeFrame
	c.recv(&w)
	if w.V != wire.V1 {
		c.t.Fatalf("welcome v = %d", w.V)
	}
	return w
}

func (c *streamConn) step(id int64, reqs []wire.Point) {
	c.t.Helper()
	c.send(wire.StepFrame{V: wire.V1, Type: wire.FrameStep, ID: id, Requests: reqs})
}

// TestStreamPipeline: a client pipelines many step frames over one
// connection; every frame is acked in submission order, every request is
// counted exactly once, and the cost sum over unique steps reconciles with
// GET /metrics — the same invariant the HTTP e2e test pins.
func TestStreamPipeline(t *testing.T) {
	const frames, perFrame = 60, 2
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
		CoalesceWindow: time.Millisecond,
		QueueLimit:     128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := dialStream(t, ts)
	w := c.hello(cfg.Dim)
	if w.T != 0 || w.Algorithm == "" || w.Dim != cfg.Dim {
		t.Fatalf("welcome = %+v", w)
	}

	// Pipeline every frame up front, then read all acks.
	for id := int64(1); id <= frames; id++ {
		c.step(id, reqsFor(int(id), perFrame))
	}
	accepted := 0
	costs := map[int]wire.Cost{}
	lastT := -1
	for id := int64(1); id <= frames; id++ {
		var ack wire.AckFrame
		c.recv(&ack)
		if ack.ID != id {
			t.Fatalf("ack order broken: got id %d, want %d", ack.ID, id)
		}
		if ack.Accepted != perFrame {
			t.Fatalf("ack %d accepted = %d", id, ack.Accepted)
		}
		if ack.T < lastT {
			t.Fatalf("step indices regressed: %d after %d", ack.T, lastT)
		}
		lastT = ack.T
		accepted += ack.Accepted
		costs[ack.T] = ack.Cost
	}
	c.send(wire.ByeFrame{V: wire.V1, Type: wire.FrameBye})

	var m wire.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Requests != frames*perFrame || accepted != frames*perFrame {
		t.Fatalf("requests = %d (client %d), want %d", m.Requests, accepted, frames*perFrame)
	}
	if m.Steps != len(costs) {
		t.Fatalf("unique acked steps %d != server steps %d", len(costs), m.Steps)
	}
	var total float64
	for _, c := range costs {
		total += c.Total
	}
	if diff := total - m.Cost.Total; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost reconciliation: client %v vs server %v", total, m.Cost.Total)
	}
	if m.Steps >= frames {
		t.Fatalf("pipelined frames never coalesced: %d steps from %d frames", m.Steps, frames)
	}
}

// TestStreamVersionMismatch pins version negotiation: a hello with an
// unknown major is answered by a connection-level error frame with code
// bad_version, and the server closes the stream.
func TestStreamVersionMismatch(t *testing.T) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := dialStream(t, ts)
	c.send(wire.HelloFrame{V: 99, Type: wire.FrameHello})
	var e wire.ErrorFrame
	c.recv(&e)
	if e.Err.Code != wire.CodeBadVersion {
		t.Fatalf("error code = %q, want %q", e.Err.Code, wire.CodeBadVersion)
	}
	if e.ID != nil {
		t.Fatalf("connection-level error must carry no id: %+v", e)
	}
	if _, err := c.br.ReadByte(); err == nil {
		t.Fatal("server must close the stream after a version mismatch")
	}

	// Wrong dimension in an otherwise valid hello is also fatal.
	c2 := dialStream(t, ts)
	c2.send(wire.HelloFrame{V: wire.V1, Type: wire.FrameHello, Dim: cfg.Dim + 1})
	c2.recv(&e)
	if e.Err.Code != wire.CodeBadRequest {
		t.Fatalf("dim mismatch code = %q, want %q", e.Err.Code, wire.CodeBadRequest)
	}
}

// TestStreamThrottleRoundTrip pins typed backpressure: with the loop
// parked and the queue full, a step frame is answered (in order) by a
// throttle carrying the backoff hint, the batch is NOT executed, and
// resending the same id after the acks flush succeeds.
func TestStreamThrottleRoundTrip(t *testing.T) {
	cfg := testConfig(1)
	obs := &blockingObserver{entered: make(chan struct{}, 8), release: make(chan struct{})}
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
		QueueLimit: 1,
		Observers:  []engine.Observer{obs},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := dialStream(t, ts)
	c.hello(0)

	c.step(1, reqsFor(0, 1))
	<-obs.entered // loop is parked inside step 1
	c.step(2, reqsFor(1, 1))
	// Give the reader a moment to enqueue frame 2 into the last slot,
	// then overflow with frame 3 — and hold the loop parked until the
	// rejection has actually been decided, or frame 3 could sneak into
	// the slot freed by step 1.
	waitQueueDepth(t, s, 1)
	c.step(3, reqsFor(2, 1))
	waitRejected(t, s, 1)

	// Replies stay in submission order: ack 1, ack 2, then the throttle
	// for 3 (which was decided while 1 was still executing).
	go func() {
		obs.release <- struct{}{}
		<-obs.entered
		obs.release <- struct{}{}
	}()
	var ack wire.AckFrame
	c.recv(&ack)
	if ack.ID != 1 || ack.T != 0 {
		t.Fatalf("first ack = %+v", ack)
	}
	c.recv(&ack)
	if ack.ID != 2 || ack.T != 1 {
		t.Fatalf("second ack = %+v", ack)
	}
	var th wire.ThrottleFrame
	c.recv(&th)
	if th.ID != 3 || th.RetryAfterMS < 1 {
		t.Fatalf("throttle = %+v", th)
	}

	// The throttled batch was refused, not executed: resend the same id.
	go func() {
		<-obs.entered
		obs.release <- struct{}{}
	}()
	c.step(3, reqsFor(2, 1))
	c.recv(&ack)
	if ack.ID != 3 || ack.T != 2 {
		t.Fatalf("resent ack = %+v", ack)
	}

	var m wire.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Requests != 3 || m.Rejected != 1 {
		t.Fatalf("metrics = %d requests / %d rejected, want 3 / 1 (throttled batch fed exactly once)", m.Requests, m.Rejected)
	}
}

// waitQueueDepth polls until the service queue holds want batches, so the
// test can order reader-side enqueues deterministically.
func waitQueueDepth(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Service().QueueDepth() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached depth %d", want)
}

// waitRejected polls (lock-free) until want submissions have been turned
// away, so a test can park the step loop across the rejection it forces.
func waitRejected(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Service().Rejected() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("rejections never reached %d", want)
}

// TestStreamDisconnectResume pins the reconnect contract: after an abrupt
// disconnect, the welcome of a fresh stream reports the session's step
// count — covering steps that executed but whose acks were lost — so the
// client resumes from the last acked step without losing or double-feeding
// a batch.
func TestStreamDisconnectResume(t *testing.T) {
	const before, after = 5, 4
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First connection: five acked steps, sent one at a time so each is
	// its own engine step.
	c1 := dialStream(t, ts)
	if w := c1.hello(0); w.T != 0 {
		t.Fatalf("fresh welcome T = %d", w.T)
	}
	for id := int64(1); id <= before; id++ {
		c1.step(id, reqsFor(int(id), 1))
		var ack wire.AckFrame
		c1.recv(&ack)
		if ack.T != int(id-1) {
			t.Fatalf("ack %d T = %d", id, ack.T)
		}
	}
	// One more frame whose ack the client never reads: the step executes
	// server-side (wait for it), then the connection dies abruptly.
	c1.step(before+1, reqsFor(before+1, 1))
	deadline := time.Now().Add(2 * time.Second)
	for s.T() < before+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c1.conn.Close()

	// Reconnect: the welcome reports every executed step, including the
	// unacked one, so the client knows batch before+1 must NOT be resent.
	c2 := dialStream(t, ts)
	w := c2.hello(0)
	if w.T != before+1 {
		t.Fatalf("resumed welcome T = %d, want %d", w.T, before+1)
	}
	for i := 0; i < after; i++ {
		c2.step(int64(100+i), reqsFor(100+i, 1))
		var ack wire.AckFrame
		c2.recv(&ack)
		if ack.T != before+1+i {
			t.Fatalf("post-resume ack T = %d, want %d", ack.T, before+1+i)
		}
	}

	var m wire.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Steps != before+1+after || m.Requests != before+1+after {
		t.Fatalf("metrics = %d steps / %d requests, want %d (no loss, no double-feed)", m.Steps, m.Requests, before+1+after)
	}
}

// TestStreamRejectsMalformedFrames: undecodable frames and bad payloads
// are typed errors, not silent no-ops.
func TestStreamRejectsMalformedFrames(t *testing.T) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Trailing bytes after a step payload: fatal bad_frame (strict
	// decoding cannot tell what the client meant).
	c := dialStream(t, ts)
	c.hello(0)
	c.sendBinary(wire.BinStep, append(wire.AppendStepFrom(nil, wire.V1, 1, reqsFor(0, 1)), 0))
	var e wire.ErrorFrame
	c.recv(&e)
	if e.Err.Code != wire.CodeBadFrame {
		t.Fatalf("trailing bytes code = %q, want %q", e.Err.Code, wire.CodeBadFrame)
	}

	// Bad payload (dimension mismatch) is per-frame: the identified frame
	// errors, the stream survives.
	c2 := dialStream(t, ts)
	c2.hello(0)
	c2.step(7, []wire.Point{{1, 2, 3}})
	c2.recv(&e)
	if e.Err.Code != wire.CodeBadRequest || e.ID == nil || *e.ID != 7 {
		t.Fatalf("bad payload error = %+v", e)
	}
	c2.step(8, reqsFor(0, 1))
	var ack wire.AckFrame
	c2.recv(&ack)
	if ack.ID != 8 || ack.T != 0 {
		t.Fatalf("stream did not survive a per-frame rejection: %+v", ack)
	}

	if m := s.Service().Metrics(); m.Requests != 1 {
		t.Fatalf("rejected frames half-applied: %d requests, want 1", m.Requests)
	}
}

// TestStreamShardedAcks: against a router-mode server, pipelined stream
// acks carry per-shard payloads that stay internally consistent — the
// routed counts sum to the ack's batch size even while the next step is
// already overwriting the router's own buffers (the regression: acks must
// carry a copy of the per-shard stats, not alias them; -race covers the
// aliasing directly).
func TestStreamShardedAcks(t *testing.T) {
	const frames, perFrame = 50, 4
	cfg := shardedTestConfig(3, 2)
	s, err := NewSharded(cfg, shard.Starts(cfg, 5), newMtCK, Options{QueueLimit: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := dialStream(t, ts)
	c.hello(cfg.Dim)
	for id := int64(1); id <= frames; id++ {
		c.step(id, spreadReqs(int(id), perFrame))
	}
	for id := int64(1); id <= frames; id++ {
		var ack wire.AckFrame
		c.recv(&ack)
		if len(ack.Shards) != 3 {
			t.Fatalf("ack %d carries %d shard payloads, want 3", id, len(ack.Shards))
		}
		routed := 0
		for _, sh := range ack.Shards {
			routed += sh.Routed
		}
		if routed != ack.Batched {
			t.Fatalf("ack %d: shard routed counts sum to %d, batched %d (torn per-shard stats)", id, routed, ack.Batched)
		}
	}
}

// TestSSEMetricsStream: GET /metrics/stream pushes one event per executed
// step, SSE-framed, with the step index as the event id.
func TestSSEMetricsStream(t *testing.T) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("GET /metrics/stream = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	const steps = 3
	go func() {
		for i := 0; i < steps; i++ {
			postJSON(t, ts.URL, wire.StepRequest{Requests: reqsFor(i, 2)})
		}
	}()

	br := bufio.NewReader(resp.Body)
	for i := 0; i < steps; i++ {
		var id string
		var ev wire.MetricsEvent
		for { // one SSE event: id/event/data lines up to a blank line
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "id: "):
				id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				if got := strings.TrimPrefix(line, "event: "); got != "metrics" {
					t.Fatalf("event type = %q", got)
				}
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					t.Fatal(err)
				}
			case line == "":
				goto parsed
			}
		}
	parsed:
		if ev.V != wire.V1 || ev.T != i || ev.Steps != i+1 || ev.Requests != (i+1)*2 || ev.Batched != 2 {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if id != fmt.Sprint(ev.T) {
			t.Fatalf("SSE id %q != step %d", id, ev.T)
		}
	}
}

// TestStepRejectsUnknownFields is the HTTP-side strict-decoding
// regression: a misspelled or extra field in a POST /step body answers
// 400 and feeds nothing into the session.
func TestStepRejectsUnknownFields(t *testing.T) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"request":[[1,2]]}`,             // misspelled: would have half-applied as an empty step
		`{"requests":[[1,2]],"window":5}`, // unknown extra field
	} {
		resp, err := http.Post(ts.URL+"/step", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	var m wire.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Steps != 0 || m.Requests != 0 {
		t.Fatalf("malformed bodies reached the session: %+v", m)
	}
}

// TestSSERebalanceEvent: a step that migrates a server pushes a typed
// "rebalance" event on GET /metrics/stream right after that step's metrics
// event, and GET /state reports the migrated layout.
func TestSSERebalanceEvent(t *testing.T) {
	cfg := shardedTestConfig(4, 2)
	s, err := NewSharded(cfg, shard.Starts(cfg, 5), newMtCK,
		Options{Rebalancer: &shard.Threshold{WindowSteps: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// A tight hotspot parked in shard 3: the threshold policy migrates a
	// server from shard 2 once its 4-step window fills.
	const steps = 12
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		for i := 0; i < steps; i++ {
			reqs := make([]wire.Point, 6)
			for j := range reqs {
				a := float64(i*6 + j)
				reqs[j] = wire.Point{15 + 2*math.Cos(a), 2 * math.Sin(a)}
			}
			postJSON(t, ts.URL, wire.StepRequest{Requests: reqs})
		}
	}()
	defer func() { <-posted }()

	var ev wire.RebalanceEvent
	br := bufio.NewReader(resp.Body)
	event, found := "", false
	for !found {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "rebalance":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if ev.V != wire.V1 || ev.From != 2 || ev.To != 3 {
		t.Fatalf("rebalance event = %+v, want v1 migration 2→3", ev)
	}
	if len(ev.Ks) != 4 || ev.Ks[2] != 1 || ev.Ks[3] != 3 {
		t.Fatalf("rebalance event layout = %v, want [2 2 1 3]", ev.Ks)
	}
	if len(ev.Server) != cfg.Dim {
		t.Fatalf("rebalance event server position has dim %d, want %d", len(ev.Server), cfg.Dim)
	}

	<-posted
	var st wire.StateResponse
	getJSON(t, ts.URL+"/state", &st)
	total := 0
	for _, sh := range st.Shards {
		total += sh.Servers
		if len(sh.Positions) != sh.Servers {
			t.Fatalf("shard %d reports %d servers, %d positions", sh.Shard, sh.Servers, len(sh.Positions))
		}
	}
	if total != 8 || st.Shards[3].Servers != 3 {
		t.Fatalf("/state layout = %+v, want 8 servers with 3 in shard 3", st.Shards)
	}
}
