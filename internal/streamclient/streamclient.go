// Package streamclient is the reusable client side of the streaming
// transport (POST /stream, package wire's frame grammar): dial with
// capped-exponential-backoff retries, the hello/welcome handshake
// (version, dimension, and pipeline-window checks), pipelined binary step
// frames answered in order, automatic jittered resend on typed throttle
// frames, and a heartbeat that declares a silent connection dead instead
// of hanging its callers forever.
//
// It exists so the cluster coordinator (internal/cluster) and the example
// load generator (examples/client) share one tested implementation of the
// client protocol instead of a copy each.
//
// Usage:
//
//	c, err := streamclient.Dial("localhost:8080", "/stream", streamclient.Options{Dim: 2})
//	p, err := c.Step(batch)   // write one pipelined frame
//	ack, err := p.Wait()      // block for its in-order ack
//	p.Release()               // recycle the pending + ack buffers
//	c.Close()
//
// Every frame is a length-prefixed binary frame of package wire, from the
// hello on. The steady-state loop — encode step, read ack — runs at
// 0 allocs/op: Step retains the caller's batch until the ack (so
// throttled frames can be resent) and Wait's ack aliases a pooled buffer
// that Release recycles.
//
// Dial bounds its reconnect storm: after Options.MaxAttempts failed
// connection attempts (with exponential, jittered backoff between them,
// capped at Options.MaxBackoff per wait) it gives up with a typed
// *protocol.UnreachableError, so a forwarding tier can surface "backend
// unreachable" to its own callers instead of blocking them indefinitely.
// A server that answers the handshake with an error frame (say
// bad_version) is NOT retried — it is reachable and said no.
package streamclient

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/wire"
)

// Options configures a Dial. The zero value uses the defaults below and
// disables the dimension check and the heartbeat.
type Options struct {
	// Dim, when nonzero, is sent in the hello so the server confirms the
	// session dimension before any step is pipelined.
	Dim int
	// Window, when > 1, asks the server to accept that many pipelined step
	// frames in flight with suffix-replay reconciliation after a reconnect
	// (WelcomeFrame.Ring). The grant is whatever Welcome().Window reports —
	// possibly smaller, or <= 1 (lockstep) from a server that keeps no ack
	// ring.
	Window int
	// MaxAttempts bounds the connection attempts one Dial makes before
	// giving up with *protocol.UnreachableError. Default DefaultMaxAttempts.
	MaxAttempts int
	// BaseBackoff is the wait after the first failed attempt; each further
	// failure doubles it. Default DefaultBaseBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-wait backoff growth. Default DefaultMaxBackoff.
	MaxBackoff time.Duration
	// HeartbeatEvery, when positive, starts the liveness probe: a ping
	// frame rides the pipeline at this cadence, and when no frame at all
	// (ack, pong, anything) arrives for HeartbeatTimeout the connection is
	// declared dead (Err returns ErrHeartbeat and every pending Wait
	// unblocks) instead of hanging callers on a silent socket.
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is the silence that kills the connection; default
	// 3×HeartbeatEvery.
	HeartbeatTimeout time.Duration
	// HandshakeTimeout bounds one connection attempt end to end (TCP dial
	// through the welcome). A server that accepts the connection but never
	// answers the handshake is a transport failure like any other: the
	// attempt is abandoned and retried under the backoff policy instead of
	// blocking the caller forever. Default DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
}

// Defaults for the dial retry policy: 5 attempts with 25ms, 50ms, 100ms,
// 200ms jittered waits between them (~0.4s worst case per address) keep a
// coordinator's failover decision fast while still riding out a worker
// restart.
const (
	DefaultMaxAttempts = 5
	DefaultBaseBackoff = 25 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
)

// DefaultHandshakeTimeout bounds one connection attempt (dial + hello +
// welcome) when Options.HandshakeTimeout is zero.
const DefaultHandshakeTimeout = 5 * time.Second

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = DefaultBaseBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.HeartbeatEvery > 0 && o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 3 * o.HeartbeatEvery
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = DefaultHandshakeTimeout
	}
	return o
}

// ErrHeartbeat reports a connection the heartbeat declared dead: no frame
// of any kind arrived for Options.HeartbeatTimeout.
var ErrHeartbeat = errors.New("streamclient: heartbeat timeout, connection declared dead")

// ErrClosed reports an operation on a client after Close.
var ErrClosed = errors.New("streamclient: client closed")

// stepResult signals one resolved pending frame; the ack itself lives in
// the Pending's own buffer.
type stepResult struct {
	err error
}

// Pending is one in-flight step frame awaiting its ack. It is pooled:
// call Release after Wait to recycle it (and its ack buffers) into the
// connection's pool; skipping Release is safe but allocates.
type Pending struct {
	ch chan stepResult
	// ID is the frame id the client assigned (unique per connection,
	// monotonically increasing from 1).
	ID int64

	c        *Client
	reqs     []wire.Point // caller's batch, retained for throttle resends
	ack      wire.AckFrame
	consumed bool
}

// Wait blocks for the frame's outcome: the typed ack, a per-frame error
// frame (as *wire.Error), or the connection's fatal error. Throttle frames
// never surface here — the client resends the frame itself after the
// server's jittered backoff hint, and Wait resolves with the eventual ack.
//
// The caller's request batch must stay valid until Wait returns (a
// throttle resend re-encodes it). The returned ack's slices alias this
// Pending's reusable buffer: they are valid until Release.
func (p *Pending) Wait() (wire.AckFrame, error) {
	res := <-p.ch
	p.consumed = true
	return p.ack, res.err
}

// Release recycles a waited Pending (and the ack buffer Wait returned)
// into the connection's pool. Call it once, after Wait and after the last
// read of the ack; a Pending whose Wait has not returned is left alone.
func (p *Pending) Release() {
	if p == nil || !p.consumed {
		return
	}
	c := p.c
	p.consumed = false
	p.c = nil
	p.reqs = nil
	p.ID = 0
	c.pendPool.Put(p)
}

// Client is one stream connection. Step may be called from any goroutine;
// replies arrive in submission order on the connection and are dispatched
// to each Pending.
type Client struct {
	opts    Options
	conn    net.Conn
	wmu     sync.Mutex // serializes frame writes (Step, resends, pings, bye)
	payload []byte     // payload scratch, under wmu
	frame   []byte     // tag|len|payload scratch, under wmu
	welcome wire.WelcomeFrame

	mu       sync.Mutex
	pending  map[int64]*Pending
	nextID   int64
	closed   bool
	pendPool sync.Pool

	throttles      atomic.Int64
	throttleAborts atomic.Int64
	lastRecv       atomic.Int64 // UnixNano of the most recent received frame

	failOnce sync.Once
	fatal    atomic.Value // error
	done     chan struct{}
}

// Host extracts the dialable host:port from a base URL or a bare
// host[:port] string, accepting the same spellings the example client
// always has ("http://localhost:8080", "localhost:8080", "localhost").
func Host(base string) (string, error) {
	if !bytes.Contains([]byte(base), []byte("://")) {
		return base, nil
	}
	u, err := url.Parse(base)
	if err != nil {
		return "", err
	}
	if u.Host != "" {
		return u.Host, nil
	}
	return "", fmt.Errorf("streamclient: no host in %q", base)
}

// Dial connects to the streaming endpoint at path (usually "/stream") on
// base (a URL or host:port), retrying transport failures under the
// capped-backoff policy, and completes the hello/welcome handshake. A
// handshake the server rejects with an error frame (bad_version,
// bad_frame, dimension mismatch) fails immediately with that *wire.Error
// — the server is reachable and said no; only transport failures are
// retried. When every attempt fails the returned error is a
// *protocol.UnreachableError carrying the attempt count and the last
// underlying error.
func Dial(base, path string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	host, err := Host(base)
	if err != nil {
		return nil, err
	}
	var lastErr error
	backoff := opts.BaseBackoff
	for attempt := 1; ; attempt++ {
		c, err := dialOnce(host, path, opts)
		if err == nil {
			return c, nil
		}
		var we *wire.Error
		if errors.As(err, &we) {
			return nil, err
		}
		lastErr = err
		if attempt >= opts.MaxAttempts {
			return nil, &protocol.UnreachableError{Addr: host, Attempts: attempt, Err: lastErr}
		}
		time.Sleep(Jitter(backoff))
		if backoff *= 2; backoff > opts.MaxBackoff {
			backoff = opts.MaxBackoff
		}
	}
}

// dialOnce makes one connection attempt: TCP dial, HTTP upgrade, hello,
// welcome. A server error frame during the handshake comes back as a
// *wire.Error (wrapped), which Dial treats as permanent.
func dialOnce(host, path string, opts Options) (*Client, error) {
	conn, err := net.DialTimeout("tcp", host, opts.HandshakeTimeout)
	if err != nil {
		return nil, err
	}
	// The whole handshake runs under one deadline, cleared once the welcome
	// arrives (steady-state liveness is the heartbeat's job, not the
	// socket's).
	_ = conn.SetDeadline(time.Now().Add(opts.HandshakeTimeout))
	br := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\n\r\n", path, host); err != nil {
		conn.Close()
		return nil, err
	}
	status, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !bytes.Contains([]byte(status), []byte("200")) {
		conn.Close()
		return nil, fmt.Errorf("streamclient: POST %s: %s", path, bytes.TrimSpace([]byte(status)))
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			conn.Close()
			return nil, err
		}
		if line == "\r\n" {
			break
		}
	}

	c := &Client{
		opts:    opts,
		conn:    conn,
		pending: map[int64]*Pending{},
		done:    make(chan struct{}),
	}
	c.pendPool.New = func() any { return &Pending{ch: make(chan stepResult, 1)} }
	hello := wire.HelloFrame{V: wire.V1, Type: wire.FrameHello, Dim: opts.Dim}
	if opts.Window > 1 {
		hello.Window = opts.Window
	}
	c.payload = wire.AppendHello(c.payload, &hello)
	if err := c.writeBinaryLocked(wire.BinHello, c.payload); err != nil {
		conn.Close()
		return nil, err
	}
	if err := readWelcome(br, &c.welcome); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	c.lastRecv.Store(time.Now().UnixNano())
	go c.readLoop(br)
	if opts.HeartbeatEvery > 0 {
		go c.heartbeat()
	}
	return c, nil
}

// Welcome returns the handshake's welcome frame: the algorithm, the
// session's current step count (the reconciliation anchor after a
// reconnect), the dimension, the granted window, and — when the session
// has executed any step — the last executed step's exact outcome (Last)
// and the recent-steps ring.
func (c *Client) Welcome() wire.WelcomeFrame { return c.welcome }

// Throttles counts the throttle frames the connection has absorbed (each
// one resent automatically after the server's jittered backoff hint).
func (c *Client) Throttles() int64 { return c.throttles.Load() }

// ThrottleAborts counts throttle resends abandoned because the connection
// died during their backoff — the frame was resolved by the teardown (and
// possibly resent through a failover replacement), so writing it again
// from the stale goroutine would have re-read a batch its caller no
// longer guarantees.
func (c *Client) ThrottleAborts() int64 { return c.throttleAborts.Load() }

// Err returns the connection's fatal error, or nil while it is healthy.
func (c *Client) Err() error {
	if v := c.fatal.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Done is closed when the connection dies (fatal error or Close).
func (c *Client) Done() <-chan struct{} { return c.done }

// Step writes one pipelined step frame and returns the Pending to Wait on.
// It does not block for the ack, so callers can keep frames in flight; it
// fails immediately when the connection is already dead.
//
// The batch must stay valid and unmodified until Wait returns: a throttled
// frame is re-encoded from it for the resend.
func (c *Client) Step(reqs []wire.Point) (*Pending, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if err := c.Err(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	p := c.pendPool.Get().(*Pending)
	p.ID = id
	p.c = c
	p.reqs = reqs
	c.pending[id] = p
	c.mu.Unlock()

	if err := c.writeStep(id, reqs); err != nil {
		c.fail(err)
		return nil, err
	}
	return p, nil
}

// Close sends a bye frame and tears the connection down. Callers should
// Wait their pending frames first — the server answers everything already
// submitted before honoring the bye, but Close does not wait for that.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	_ = c.writeControl(wire.BinBye)
	c.fail(ErrClosed)
	return nil
}

// writeStep encodes and writes one step frame. The payload and frame
// scratch buffers are reused under the write lock, so the steady-state
// write allocates nothing.
func (c *Client) writeStep(id int64, reqs []wire.Point) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.payload = wire.AppendStepFrom(c.payload[:0], wire.V1, id, reqs)
	return c.writeBinaryLocked(wire.BinStep, c.payload)
}

// writeControl writes one control frame (ping or bye, by tag).
func (c *Client) writeControl(tag byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.payload = wire.AppendControl(c.payload[:0], wire.V1)
	return c.writeBinaryLocked(tag, c.payload)
}

// writeBinaryLocked assembles tag|uvarint(len)|payload into the frame
// scratch and writes it in one call; the caller holds wmu (or, during
// the handshake, owns the not-yet-shared client).
//
//moblint:hotpath
func (c *Client) writeBinaryLocked(tag byte, payload []byte) error {
	c.frame = append(c.frame[:0], tag)
	var head [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(head[:], uint64(len(payload)))
	c.frame = append(c.frame, head[:n]...)
	c.frame = append(c.frame, payload...)
	_, err := c.conn.Write(c.frame)
	return err
}

// fail ends the connection once: records the fatal error, closes the
// socket, resolves every pending frame with the error, and closes Done.
func (c *Client) fail(err error) {
	c.failOnce.Do(func() {
		c.fatal.Store(err)
		c.conn.Close()
		c.mu.Lock()
		for id, p := range c.pending {
			delete(c.pending, id)
			p.ch <- stepResult{err: err}
		}
		c.mu.Unlock()
		close(c.done)
	})
}

// take claims the pending entry for id, removing it from the in-flight
// map; nil when the id is unknown (answered twice, or a fatal teardown
// already resolved it).
func (c *Client) take(id int64) *Pending {
	c.mu.Lock()
	p := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return p
}

// throttled schedules the jittered resend of a throttled frame. The entry
// stays pending: its Wait resolves with the eventual ack. The backoff
// aborts the moment the connection dies: a dead connection has already
// resolved the pending, its caller may have reclaimed (or resent through a
// failover replacement) the request batch, and a resend goroutine that
// slept through the teardown must not re-encode from it.
func (c *Client) throttled(id int64, retryMS int) bool {
	c.throttles.Add(1)
	c.mu.Lock()
	p := c.pending[id]
	c.mu.Unlock()
	if p == nil {
		c.fail(fmt.Errorf("streamclient: throttle for unknown frame id %d", id))
		return false
	}
	go func(reqs []wire.Point, wait time.Duration) {
		timer := time.NewTimer(Jitter(wait))
		defer timer.Stop()
		select {
		case <-c.done:
			c.throttleAborts.Add(1)
			return
		case <-timer.C:
		}
		if err := c.writeStep(id, reqs); err != nil {
			c.fail(err)
		}
	}(p.reqs, time.Duration(retryMS)*time.Millisecond)
	return true
}

// readLoop dispatches received frames: every frame stamps the liveness
// clock, acks and per-frame errors resolve their Pending, throttles
// schedule a jittered resend, pongs are liveness only, and a
// connection-level error frame (or a read error) kills the connection.
// Acks decode straight into the waiting Pending's reusable frame
// (BinaryAckID picks the target before the full decode), so the
// steady-state receive allocates nothing.
func (c *Client) readLoop(br *bufio.Reader) {
	var buf []byte
	for {
		tag, payload, err := wire.ReadBinaryFrame(br, &buf, wire.DefaultMaxFrame)
		if err != nil {
			c.fail(err)
			return
		}
		c.lastRecv.Store(time.Now().UnixNano())
		switch tag {
		case wire.BinAck:
			id, err := wire.BinaryAckID(payload)
			if err != nil {
				c.fail(err)
				return
			}
			p := c.take(id)
			if p == nil {
				continue
			}
			if err := versioned(wire.DecodeAck(payload, &p.ack), &p.ack.V); err != nil {
				c.fail(err)
				return
			}
			p.ch <- stepResult{}
		case wire.BinThrottle:
			var th wire.ThrottleFrame
			if err := versioned(wire.DecodeThrottle(payload, &th), &th.V); err != nil {
				c.fail(err)
				return
			}
			if !c.throttled(th.ID, th.RetryAfterMS) {
				return
			}
		case wire.BinPong:
			// Liveness only, but decoded as strictly as every other frame.
			v, err := wire.DecodeControl(payload)
			if err = versioned(err, &v); err != nil {
				c.fail(err)
				return
			}
		case wire.BinError:
			var ef wire.ErrorFrame
			if err := versioned(wire.DecodeErrorFrame(payload, &ef), &ef.V); err != nil {
				c.fail(err)
				return
			}
			if !c.errorFrame(ef) {
				return
			}
		default:
			c.fail(fmt.Errorf("streamclient: unexpected frame tag 0x%x", tag))
			return
		}
	}
}

// versioned folds a frame's decode error and its version check into one
// error: a frame that decoded but carries a version this client does not
// speak is as unusable as one that did not decode. v points at the
// decoded frame's version, so it is read only after the decode ran.
func versioned(err error, v *int) error {
	if err != nil {
		return err
	}
	return wire.CheckVersion(*v)
}

// errorFrame handles a received error frame: a per-frame rejection
// resolves just that Pending and reports true (the stream lives); a
// connection-level error kills the connection and reports false.
func (c *Client) errorFrame(ef wire.ErrorFrame) bool {
	e := ef.Err
	if ef.ID != nil {
		if p := c.take(*ef.ID); p != nil {
			p.ch <- stepResult{err: &e}
		}
		return true
	}
	c.fail(&e)
	return false
}

// heartbeat pings at the configured cadence and declares the connection
// dead after HeartbeatTimeout of total silence. Any received frame resets
// the clock — pongs ride the same ordered reply queue as acks, so one
// arriving proves the server's whole pipeline (reader, step loop, writer)
// is alive, not just the TCP connection.
func (c *Client) heartbeat() {
	ticker := time.NewTicker(c.opts.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			silence := time.Since(time.Unix(0, c.lastRecv.Load()))
			if silence > c.opts.HeartbeatTimeout {
				c.fail(ErrHeartbeat)
				return
			}
			_ = c.writeControl(wire.BinPing)
		}
	}
}

// readWelcome reads the handshake's answer: the welcome, or the server's
// typed refusal surfaced as a (wrapped) *wire.Error.
func readWelcome(br *bufio.Reader, w *wire.WelcomeFrame) error {
	var buf []byte
	tag, payload, err := wire.ReadBinaryFrame(br, &buf, wire.DefaultMaxFrame)
	if err != nil {
		return err
	}
	switch tag {
	case wire.BinWelcome:
		return versioned(wire.DecodeWelcome(payload, w), &w.V)
	case wire.BinError:
		var ef wire.ErrorFrame
		if err := wire.DecodeErrorFrame(payload, &ef); err != nil {
			return err
		}
		e := ef.Err
		return fmt.Errorf("streamclient: server rejected handshake: %w", &e)
	}
	return fmt.Errorf("streamclient: got frame tag 0x%x, want welcome", tag)
}

// Jitter spreads a wait by ±20%, so many clients told to retry at the same
// moment do not re-stampede a bounded queue (or a restarting worker) in
// lockstep. It draws from math/rand/v2's global source: backoff spreading
// wants each process desynchronized, which is exactly what the
// deterministic packages forbid and a retry path needs.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.8 + 0.4*rand.Float64()))
}
