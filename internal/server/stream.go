// The persistent streaming transport: POST /stream hijacks the HTTP
// connection and speaks pipelined frames (package wire's frame grammar) in
// both directions, so one client can pipeline step batches without
// per-request HTTP overhead.
//
// Protocol, from the client's side (every frame after the HTTP response
// head is a binary frame of package wire; there is no other encoding):
//
//  1. POST /stream, then read the HTTP response head (200 with
//     Content-Type application/octet-stream); the connection is now a
//     frame stream.
//  2. Send a hello frame (optionally with the dimension to confirm and a
//     pipeline window to ask for); the server answers a welcome frame
//     carrying the algorithm, the session's current step count t, the
//     dimension, and the granted window. A first frame that is not a
//     valid v1 hello — a legacy JSON line included — gets a
//     connection-level error frame (bad_frame or bad_version) and the
//     connection closes.
//  3. Pipeline step frames without waiting. The server answers every
//     frame IN SUBMISSION ORDER with an ack (the step outcome), a
//     throttle (typed backpressure: the batch was not enqueued, resend
//     the same id after retry_after_ms), or an error frame carrying that
//     id.
//  4. Send a bye frame (or just close) to end; the server finishes
//     answering everything already submitted first.
//
// After a disconnect, steps whose acks were in flight may have executed:
// reconnect and compare the welcome's t with the last acked step — every
// step below t was executed exactly once, so resume from the first
// unacked batch beyond it.
//
// Ingestion is an explicit producer/decoder/consumer pipeline. The reader
// goroutine produces and decodes frames into pooled request buffers and
// enqueues them on the service; the ordered reply queue carries each
// buffer to the writer goroutine, which consumes the step outcome, emits
// the ack, and recycles the buffers. Ownership contract: a decoded
// request buffer belongs to the service from Enqueue until the step's
// outcome is delivered (the engine and its observers must not retain it
// past the Step call), then returns to the pool; a pooled ack position
// buffer belongs to the writer until Ack.Release. The whole steady-state
// loop — socket to engine.Session.Step to ack bytes — runs at
// 0 allocs/op.

package server

import (
	"bufio"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// replyItem is one queued response frame, carried from the reader to the
// writer so replies leave in exactly the order their frames arrived.
// Either pend is set (an enqueued step awaiting its outcome, with the
// pooled request buffer to recycle once it resolves) or frame holds an
// immediate reply (throttle, pong, or per-message error).
type replyItem struct {
	pend  *protocol.Pending
	id    int64
	buf   *stepBuf
	frame any
}

// stepBuf is a pooled decoded step frame: the wire frame (whose Requests
// storage is reused across frames) plus the geometry-typed view of the
// same coordinate storage that the service consumes. It stays out of the
// pool from decode until the step's reply has been written.
type stepBuf struct {
	frame wire.StepFrame
	reqs  []geom.Point
}

var stepBufPool = sync.Pool{New: func() any { return new(stepBuf) }}

// geomView rebuilds b.reqs as the geometry view of b.frame.Requests
// (header copies only; both types are []float64).
func (b *stepBuf) geomView() []geom.Point {
	if cap(b.reqs) < len(b.frame.Requests) {
		b.reqs = make([]geom.Point, len(b.frame.Requests))
	}
	b.reqs = b.reqs[:len(b.frame.Requests)]
	for i, p := range b.frame.Requests {
		b.reqs[i] = geom.Point(p)
	}
	return b.reqs
}

// srvStream bundles the per-connection state of one hijacked stream.
type srvStream struct {
	srv    *Server
	br     *bufio.Reader
	bw     *bufio.Writer
	binBuf []byte // frame read buffer, reused across frames
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported: connection cannot be hijacked")
		return
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	// The stream lives as long as the client keeps it; undo any server
	// read/write deadlines inherited from the HTTP layer.
	_ = conn.SetDeadline(time.Time{})

	if _, err := bufrw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nConnection: close\r\n\r\n"); err != nil {
		return
	}
	if err := bufrw.Flush(); err != nil {
		return
	}

	c := &srvStream{srv: s, br: bufrw.Reader, bw: bufrw.Writer}
	if !c.handshake() {
		return
	}

	// The writer drains replies in submission order; the reader keeps
	// consuming frames meanwhile, so the client can pipeline. The channel
	// is bounded: a client that outruns the queue and its throttles
	// eventually blocks the reader, which is TCP backpressure, not memory
	// growth.
	replies := make(chan replyItem, 2*protocol.DefaultQueueLimit)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop(replies)
	}()

	c.readLoop(replies)
	close(replies)
	<-writerDone
}

// writeHandshakeFrame writes one frame and flushes (the handshake is
// request/response, not pipelined).
func (c *srvStream) writeHandshakeFrame(frame any) error {
	var payload []byte
	if err := c.writeControl(frame, &payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// handshake consumes the hello frame and answers welcome (or a fatal error
// frame). It reports whether the stream may proceed.
func (c *srvStream) handshake() bool {
	s := c.srv
	// Check the tag before trusting the length that follows it: a peer
	// speaking anything else (a JSON line, say) is refused at once instead
	// of being waited on for a payload it will never send.
	head, err := c.br.Peek(1)
	if err != nil {
		return false
	}
	if head[0] != wire.BinHello {
		_ = c.writeHandshakeFrame(fatalError(wire.CodeBadFrame,
			"first frame must be a binary hello, got tag 0x"+strconv.FormatUint(uint64(head[0]), 16)))
		return false
	}
	var hello wire.HelloFrame
	_, payload, err := wire.ReadBinaryFrame(c.br, &c.binBuf, wire.DefaultMaxFrame)
	if err == nil {
		err = wire.DecodeHello(payload, &hello)
	}
	if err != nil {
		_ = c.writeHandshakeFrame(fatalError(wire.CodeBadFrame, "bad hello: "+err.Error()))
		return false
	}
	if err := wire.CheckVersion(hello.V); err != nil {
		_ = c.writeHandshakeFrame(fatalError(wire.CodeBadVersion, err.Error()))
		return false
	}
	if hello.Dim != 0 && hello.Dim != s.cfg.Dim {
		_ = c.writeHandshakeFrame(fatalError(wire.CodeBadRequest,
			"session dimension is "+strconv.Itoa(s.cfg.Dim)+", hello asked for "+strconv.Itoa(hello.Dim)))
		return false
	}
	welcome := wire.WelcomeFrame{
		V:         wire.V1,
		Type:      wire.FrameWelcome,
		Algorithm: s.svc.Algorithm(),
		T:         s.svc.T(),
		Dim:       s.cfg.Dim,
	}
	// Re-serve the last executed step's outcome, so a reconnecting
	// pipeliner whose final ack was lost in flight recovers it instead of
	// resending the batch (which would double-feed the session).
	if ls := s.svc.LastStep(); ls != nil {
		welcome.Last = &wire.LastStep{
			T:         ls.T,
			Batched:   ls.Batched,
			Cost:      wire.FromCost(ls.Cost),
			Clamped:   ls.Clamped,
			Positions: wire.FromPoints(ls.Positions),
		}
	}
	// Grant a pipelined window capped at what the service can actually
	// reconcile (its ack-ring depth; 1 without a ring), and re-serve the
	// ring itself so a reconnecting pipeliner recovers every executed
	// in-flight step, not just the newest.
	if hello.Window > 1 {
		grant := s.svc.MaxWindow()
		if hello.Window < grant {
			grant = hello.Window
		}
		if grant > 1 {
			welcome.Window = grant
			for _, ls := range s.svc.RecentSteps() {
				welcome.Ring = append(welcome.Ring, wire.LastStep{
					T:         ls.T,
					Batched:   ls.Batched,
					Cost:      wire.FromCost(ls.Cost),
					Clamped:   ls.Clamped,
					Positions: wire.FromPoints(ls.Positions),
				})
			}
		}
	}
	return c.writeHandshakeFrame(welcome) == nil
}

// readLoop is the producer/decoder stage: it reads frames, decodes each
// step into a pooled request buffer, and turns every frame into an
// ordered reply item — an enqueued pending step, a throttle, a pong, or
// an error. It returns on bye, on a fatal protocol violation, or when the
// connection dies.
func (c *srvStream) readLoop(replies chan<- replyItem) {
	for {
		buf := stepBufPool.Get().(*stepBuf)
		id, kind, fatal := c.readStep(buf)
		switch kind {
		case readEOF:
			stepBufPool.Put(buf)
			return
		case readBadFrame:
			stepBufPool.Put(buf)
			replies <- replyItem{frame: fatal}
			return
		case readPing:
			stepBufPool.Put(buf)
			// The pong rides the ordered reply queue behind any pending
			// acks, so receiving it proves the whole pipeline — reader,
			// step loop, writer — is alive, not just the TCP connection.
			replies <- replyItem{frame: wire.PongFrame{V: wire.V1, Type: wire.FramePong}}
			continue
		case readBye:
			stepBufPool.Put(buf)
			return
		}
		if err := wire.ValidatePoints(buf.frame.Requests, c.srv.cfg.Dim); err != nil {
			// Payload-level rejection answers just this frame; the stream
			// continues.
			stepBufPool.Put(buf)
			replies <- replyItem{frame: idError(id, wire.CodeBadRequest, err.Error())}
			continue
		}
		pend, err := c.srv.svc.Enqueue(buf.geomView())
		if err != nil {
			stepBufPool.Put(buf)
			var oe *protocol.OverloadError
			if errors.As(err, &oe) {
				replies <- replyItem{frame: wire.ThrottleFrame{
					V: wire.V1, Type: wire.FrameThrottle, ID: id, RetryAfterMS: oe.RetryAfterMS,
				}}
				continue
			}
			replies <- replyItem{frame: streamError(id, err)}
			if errors.Is(err, protocol.ErrShuttingDown) {
				return
			}
			continue
		}
		replies <- replyItem{pend: pend, id: id, buf: buf}
	}
}

// readStep outcomes.
type readKind int

const (
	readStepFrame readKind = iota
	readPing
	readBye
	readEOF
	readBadFrame
)

// readStep reads one frame. For a step frame it decodes into buf and
// returns its id; for control frames it returns the kind; for protocol
// violations it returns the fatal error frame to send before closing.
// Every frame is decoded strictly and version-checked, control frames
// included.
func (c *srvStream) readStep(buf *stepBuf) (int64, readKind, any) {
	tag, payload, err := wire.ReadBinaryFrame(c.br, &c.binBuf, wire.DefaultMaxFrame)
	if err != nil {
		return 0, readEOF, nil
	}
	switch tag {
	case wire.BinStep:
		if err := wire.DecodeStep(payload, &buf.frame); err != nil {
			return 0, readBadFrame, fatalError(wire.CodeBadFrame, "bad step frame: "+err.Error())
		}
		if err := wire.CheckVersion(buf.frame.V); err != nil {
			return 0, readBadFrame, fatalError(wire.CodeBadVersion, err.Error())
		}
		return buf.frame.ID, readStepFrame, nil
	case wire.BinPing, wire.BinBye:
		kind, name := readPing, wire.FramePing
		if tag == wire.BinBye {
			kind, name = readBye, wire.FrameBye
		}
		v, err := wire.DecodeControl(payload)
		if err != nil {
			return 0, readBadFrame, fatalError(wire.CodeBadFrame, "bad "+name+" frame: "+err.Error())
		}
		if err := wire.CheckVersion(v); err != nil {
			return 0, readBadFrame, fatalError(wire.CodeBadVersion, err.Error())
		}
		return 0, kind, nil
	default:
		return 0, readBadFrame, fatalError(wire.CodeBadFrame, "unexpected frame tag 0x"+strconv.FormatUint(uint64(tag), 16))
	}
}

// writeLoop is the consumer stage: it resolves each reply item in order,
// emits the reply, and recycles the request and ack buffers. Flushes are
// coalesced: the buffered writer only flushes when the reply queue is
// momentarily empty, so a pipelining client amortizes syscalls across
// its in-flight window.
func (c *srvStream) writeLoop(replies chan replyItem) {
	var payload []byte            // reply payload scratch, reused per frame
	var shardBuf []wire.ShardStep // shard conversion scratch, reused
	dead := false
	for it := range replies {
		if it.pend != nil {
			ack, err := it.pend.Wait()
			if !dead {
				if werr := c.writeAck(it.id, ack, err, &payload, &shardBuf); werr != nil {
					dead = true
				}
			}
			ack.Release()
			it.pend.Release()
			if it.buf != nil {
				stepBufPool.Put(it.buf)
			}
		} else if !dead {
			// After a write failure keep draining so enqueued steps are
			// still waited (their outcomes are buffered; nothing leaks),
			// but stop touching the dead connection.
			if c.writeControl(it.frame, &payload) != nil {
				dead = true
			}
		}
		if !dead && len(replies) == 0 {
			if c.bw.Flush() != nil {
				dead = true
			}
		}
	}
	if !dead {
		_ = c.bw.Flush()
	}
}

// writeAck emits one step outcome (ack or typed error). The ack is
// encoded straight from the protocol layer's typed outcome into the
// reusable payload buffer — no intermediate wire structs.
func (c *srvStream) writeAck(id int64, ack protocol.Ack, err error, payload *[]byte, shardBuf *[]wire.ShardStep) error {
	if err != nil {
		return c.writeControl(streamError(id, err), payload)
	}
	shards := (*shardBuf)[:0]
	for i, st := range ack.Shards {
		shards = append(shards, wire.ShardStep{Shard: i, Routed: st.Routed, Cost: wire.FromCost(st.Cost)})
	}
	*shardBuf = shards
	p := wire.AppendAckFrom((*payload)[:0], wire.V1, id, ack.T, ack.Accepted, ack.Batched,
		wire.FromCost(ack.Cost), ack.Clamped, ack.Positions, shards)
	*payload = p
	return wire.WriteBinaryFrame(c.bw, wire.BinAck, p)
}

// writeControl emits a non-ack frame (welcome, throttle, pong, error)
// without flushing.
func (c *srvStream) writeControl(frame any, payload *[]byte) error {
	p := (*payload)[:0]
	var tag byte
	switch f := frame.(type) {
	case wire.WelcomeFrame:
		tag = wire.BinWelcome
		p = wire.AppendWelcome(p, &f)
	case wire.ThrottleFrame:
		tag = wire.BinThrottle
		p = wire.AppendThrottle(p, &f)
	case wire.PongFrame:
		tag = wire.BinPong
		p = wire.AppendControl(p, f.V)
	case wire.ErrorFrame:
		tag = wire.BinError
		p = wire.AppendErrorFrame(p, &f)
	default:
		return errors.New("server: unencodable stream frame")
	}
	*payload = p
	return wire.WriteBinaryFrame(c.bw, tag, p)
}

// streamError maps a protocol-layer error for one step frame to its typed
// wire form.
func streamError(id int64, err error) wire.ErrorFrame {
	e := wire.Error{Code: wire.CodeInternal, Detail: err.Error()}
	var de *protocol.DurabilityError
	var ue *protocol.UnreachableError
	switch {
	case errors.As(err, &de):
		t := de.ExecutedT
		e = wire.Error{Code: wire.CodeNotDurable, Detail: err.Error(), ExecutedT: &t}
	case errors.As(err, &ue):
		e = wire.Error{Code: wire.CodeUnreachable, Detail: err.Error()}
	case errors.Is(err, protocol.ErrShuttingDown):
		e = wire.Error{Code: wire.CodeShuttingDown, Detail: err.Error()}
	}
	return wire.ErrorFrame{V: wire.V1, Type: wire.FrameError, ID: &id, Err: e}
}

// idError is a per-frame rejection: the identified frame failed, the
// stream continues.
func idError(id int64, code, detail string) wire.ErrorFrame {
	return wire.ErrorFrame{V: wire.V1, Type: wire.FrameError, ID: &id, Err: wire.Error{Code: code, Detail: detail}}
}

// fatalError is a connection-level error frame: no id, and the server
// closes the stream after writing it.
func fatalError(code, detail string) wire.ErrorFrame {
	return wire.ErrorFrame{V: wire.V1, Type: wire.FrameError, Err: wire.Error{Code: code, Detail: detail}}
}
