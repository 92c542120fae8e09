package cluster

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// testProxy is a TCP relay the tests put in front of a worker they intend
// to fail. httptest's CloseClientConnections cannot kill hijacked stream
// connections (the tracker forgets a connection the moment it is
// hijacked), so "crashing" a worker in-process needs a cut upstream of it:
//
//   - kill() is a crash: every connection drops (both halves) and new
//     dials are refused — what a SIGKILLed process looks like from the
//     coordinator.
//   - blackhole() is a hang: established client-facing connections stay
//     OPEN but fall silent and new dials are refused — the failure mode
//     only a liveness probe can notice.
//   - silence() is one-way: requests still reach the worker and execute,
//     but its acks never come back — the executed-but-unacknowledged
//     window the pipelined failover tests need to open deterministically.
type testProxy struct {
	ln      net.Listener
	backend string
	dead    atomic.Bool
	silent  atomic.Bool

	mu       sync.Mutex
	clients  []net.Conn
	backends []net.Conn
}

func newTestProxy(t *testing.T, backend string) *testProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &testProxy{ln: ln, backend: backend}
	go p.accept()
	t.Cleanup(p.kill)
	return p
}

func (p *testProxy) addr() string { return p.ln.Addr().String() }

// kill crashes the proxied worker: listener and every connection close.
func (p *testProxy) kill() {
	p.dead.Store(true)
	p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.clients {
		c.Close()
	}
	for _, c := range p.backends {
		c.Close()
	}
	p.clients, p.backends = nil, nil
}

// silence drops the worker→client direction only: steps keep flowing to
// the worker (which executes and checkpoints them), but the acks are
// swallowed. The listener stays open and new dials still relay.
func (p *testProxy) silence() {
	p.silent.Store(true)
}

// blackhole hangs the proxied worker: the listener closes and the backend
// halves drop, but the client-facing sockets stay open and silent.
func (p *testProxy) blackhole() {
	p.dead.Store(true)
	p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.backends {
		c.Close()
	}
	p.backends = nil
}

func (p *testProxy) accept() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		backend, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		if p.dead.Load() {
			p.mu.Unlock()
			client.Close()
			backend.Close()
			continue
		}
		p.clients = append(p.clients, client)
		p.backends = append(p.backends, backend)
		p.mu.Unlock()
		go p.pipe(backend, client, false)
		go p.pipe(client, backend, true)
	}
}

// pipe relays src → dst until either side fails. Once the proxy is dead it
// swallows anything still in flight instead of delivering it, and never
// closes the sockets itself — kill and blackhole decide which halves die.
// toClient marks the worker→client half, the one silence() suppresses.
func (p *testProxy) pipe(dst, src net.Conn, toClient bool) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if err != nil {
			return
		}
		if p.dead.Load() || (toClient && p.silent.Load()) {
			continue
		}
		if _, err := dst.Write(buf[:n]); err != nil {
			return
		}
	}
}
