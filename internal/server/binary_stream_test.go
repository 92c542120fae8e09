package server

import (
	"bufio"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wire"
)

func newStreamServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
		QueueLimit: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestStreamBinaryNegotiation pins the handshake and the frame grammar
// end to end: a binary hello is answered by a binary welcome, after which
// steps, acks, pings, pongs, and byes all travel as binary frames.
func TestStreamBinaryNegotiation(t *testing.T) {
	_, ts := newStreamServer(t)
	c := dialStream(t, ts)
	if w := c.hello(2); w.Algorithm == "" || w.Dim != 2 || w.T != 0 {
		t.Fatalf("welcome = %+v", w)
	}

	const frames = 20
	for id := int64(1); id <= frames; id++ {
		c.step(id, reqsFor(int(id), 2))
	}
	accepted := 0
	var ack wire.AckFrame
	for id := int64(1); id <= frames; id++ {
		c.recv(&ack)
		if ack.ID != id {
			t.Fatalf("ack order broken: got id %d, want %d", ack.ID, id)
		}
		if len(ack.Positions) != 1 || len(ack.Positions[0]) != 2 {
			t.Fatalf("ack %d positions = %+v", id, ack.Positions)
		}
		accepted += ack.Accepted
	}
	if accepted != frames*2 {
		t.Fatalf("accepted %d requests, want %d", accepted, frames*2)
	}

	c.send(wire.PingFrame{V: wire.V1, Type: wire.FramePing})
	var pong wire.PongFrame
	c.recv(&pong)
	if pong.V != wire.V1 {
		t.Fatalf("pong v = %d", pong.V)
	}
	c.send(wire.ByeFrame{V: wire.V1, Type: wire.FrameBye})
	if _, err := c.br.ReadByte(); err == nil {
		t.Fatal("server must close the stream after a bye")
	}
}

// TestStreamRefusesNDJSONHello pins the compatibility policy: a peer
// whose first frame is not a binary hello — here the legacy JSON hello
// line — gets a connection-level bad_frame error frame, in binary, and
// the server closes the connection instead of waiting for more bytes.
func TestStreamRefusesNDJSONHello(t *testing.T) {
	_, ts := newStreamServer(t)
	c := dialStream(t, ts)
	if _, err := c.conn.Write([]byte(`{"v":1,"type":"hello"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ef wire.ErrorFrame
	c.recv(&ef)
	if ef.Err.Code != wire.CodeBadFrame || ef.ID != nil {
		t.Fatalf("refusal = %+v, want a connection-level %q", ef, wire.CodeBadFrame)
	}
	if _, err := c.br.ReadByte(); err == nil {
		t.Fatal("server must close the stream after refusing the hello")
	}
}

// TestStreamStrictControlFrames pins that control frames are decoded as
// strictly as steps: a bye with trailing bytes is a bad_frame and a ping
// stamped with an unknown version is a bad_version, each fatal.
func TestStreamStrictControlFrames(t *testing.T) {
	_, ts := newStreamServer(t)
	for _, tc := range []struct {
		name    string
		tag     byte
		payload []byte
		code    string
	}{
		{"bye-trailing-bytes", wire.BinBye, append(wire.AppendControl(nil, wire.V1), 0), wire.CodeBadFrame},
		{"ping-v2", wire.BinPing, wire.AppendControl(nil, 2), wire.CodeBadVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialStream(t, ts)
			c.hello(2)
			c.sendBinary(tc.tag, tc.payload)
			var ef wire.ErrorFrame
			c.recv(&ef)
			if ef.Err.Code != tc.code || ef.ID != nil {
				t.Fatalf("error frame = %+v, want a connection-level %q", ef, tc.code)
			}
			if _, err := c.br.ReadByte(); err == nil {
				t.Fatal("server must close the stream after a malformed control frame")
			}
		})
	}
}

// TestStreamBinaryBadPointsKeepsStream pins per-frame error semantics: a
// step whose points have the wrong dimension is answered with an error
// frame carrying its id, and the stream keeps serving subsequent frames.
func TestStreamBinaryBadPointsKeepsStream(t *testing.T) {
	_, ts := newStreamServer(t)
	c := dialStream(t, ts)
	c.hello(2)
	c.step(1, []wire.Point{{1, 2, 3}})
	var ef wire.ErrorFrame
	c.recv(&ef)
	if ef.Err.Code != wire.CodeBadRequest || ef.ID == nil || *ef.ID != 1 {
		t.Fatalf("error frame = %+v", ef)
	}
	c.step(2, reqsFor(2, 2))
	var ack wire.AckFrame
	c.recv(&ack)
	if ack.ID != 2 {
		t.Fatalf("stream did not continue past the bad frame: ack %+v", ack)
	}
}

// TestStreamTinyTriangleKeepsStream is the server-level regression test
// for the 3-point closed form's degenerate fallback, which used to recurse
// until a fatal stack overflow: one step frame carrying a tiny
// non-collinear triangle killed the process. The step must be acked and
// the stream must keep serving.
func TestStreamTinyTriangleKeepsStream(t *testing.T) {
	_, ts := newStreamServer(t)
	c := dialStream(t, ts)
	c.hello(2)
	const s = 4e-8
	c.step(1, []wire.Point{{0, 0}, {s, 0}, {s / 2, 0.866 * s}})
	var ack wire.AckFrame
	c.recv(&ack)
	if ack.ID != 1 || ack.Accepted != 3 {
		t.Fatalf("tiny-triangle step: ack %+v", ack)
	}
	c.step(2, reqsFor(2, 2))
	c.recv(&ack)
	if ack.ID != 2 {
		t.Fatalf("stream did not continue past the tiny-triangle step: ack %+v", ack)
	}
}

// TestStreamServerZeroAlloc gates the server-side steady state at
// 0 allocs/op: decode a binary step frame into a pooled buffer, validate,
// enqueue, wait for the engine, encode the binary ack, release. This is
// the exact component chain readLoop/writeLoop run per frame (minus the
// socket), and AllocsPerRun measures global mallocs, so the background
// step loop's allocations count too — a regression anywhere in the
// pipeline fails this test. It runs an 8-request batch (the Weiszfeld
// iteration) and a 3-request one (the closed form).
func TestStreamServerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget is not measurable under -race (the race runtime allocates)")
	}
	for _, tc := range []struct {
		name string
		reqs []wire.Point
	}{
		{"8-requests", reqsFor(1, 8)},
		{"3-requests", []wire.Point{{0, 0}, {4, 0}, {1, 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) { streamServerZeroAlloc(t, tc.reqs) })
	}
}

func streamServerZeroAlloc(t *testing.T, reqs []wire.Point) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
		QueueLimit: 128, // CoalesceWindow 0: timers allocate
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := &srvStream{srv: s, bw: bufio.NewWriterSize(io.Discard, 1<<16)}
	stepPayload := wire.AppendStepFrom(nil, wire.V1, 1, reqs)

	var payload []byte
	var shardBuf []wire.ShardStep
	buf := stepBufPool.Get().(*stepBuf)
	defer stepBufPool.Put(buf)

	oneStep := func() {
		if err := wire.DecodeStep(stepPayload, &buf.frame); err != nil {
			t.Fatal(err)
		}
		if err := wire.ValidatePoints(buf.frame.Requests, cfg.Dim); err != nil {
			t.Fatal(err)
		}
		pend, err := s.svc.Enqueue(buf.geomView())
		if err != nil {
			t.Fatal(err)
		}
		ack, err := pend.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if werr := c.writeAck(buf.frame.ID, ack, nil, &payload, &shardBuf); werr != nil {
			t.Fatal(werr)
		}
		ack.Release()
		pend.Release()
	}
	// Warm the pools (request buffers, ack buffers, encoder scratch).
	for i := 0; i < 10; i++ {
		oneStep()
	}
	if allocs := testing.AllocsPerRun(200, oneStep); allocs != 0 {
		t.Fatalf("server stream step allocates %v/op, want 0", allocs)
	}
}
