package streamclient

import (
	"testing"

	"repro/internal/wire"
)

// TestDialNegotiatesBinary pins the handshake against a real server: a
// plain Dial comes up with the server's welcome, and lockstep frames are
// acked one by one with their own ids and non-decreasing step indices.
func TestDialNegotiatesBinary(t *testing.T) {
	ts := testServer(t)
	c, err := Dial(ts.Listener.Addr().String(), "/stream", Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if w := c.Welcome(); w.Dim != 2 || w.Algorithm == "" {
		t.Fatalf("welcome = %+v", w)
	}
	lastT := -1
	for i := 0; i < 20; i++ {
		p, err := c.Step([]wire.Point{{float64(i), 1}})
		if err != nil {
			t.Fatal(err)
		}
		ack, err := p.Wait()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ack.ID != p.ID || ack.Accepted != 1 || len(ack.Positions) != 1 {
			t.Fatalf("frame %d ack = %+v", i, ack)
		}
		if ack.T < lastT {
			t.Fatalf("step indices regressed: %d after %d", ack.T, lastT)
		}
		lastT = ack.T
		p.Release()
	}
}

// TestClientStepZeroAlloc gates the client-side steady state at
// 0 allocs/op over a real TCP connection to a real server: Step encodes
// from caller storage into the reused write buffer, Wait blocks for the
// decoded-in-place ack, Release recycles. AllocsPerRun counts global
// mallocs, so the server half of the loop (running in this process) is
// gated too — this is the whole pipeline, socket to socket.
func TestClientStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget is not measurable under -race (the race runtime allocates)")
	}
	ts := testServer(t)
	c, err := Dial(ts.Listener.Addr().String(), "/stream", Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A batch of 8 non-collinear requests keeps the engine on its pooled
	// Weiszfeld path; single in-flight keeps the pipeline depth fixed.
	reqs := make([]wire.Point, 8)
	for i := range reqs {
		reqs[i] = wire.Point{float64(i%3) + 0.25*float64(i), float64((i * 5) % 7)}
	}
	oneStep := func() {
		p, err := c.Step(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	for i := 0; i < 10; i++ {
		oneStep()
	}
	if allocs := testing.AllocsPerRun(200, oneStep); allocs != 0 {
		t.Fatalf("client step allocates %v/op, want 0", allocs)
	}
}
