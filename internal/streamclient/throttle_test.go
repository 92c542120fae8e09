package streamclient

import (
	"bufio"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestThrottleResendAbortsOnDeadConnection is the timer-lifecycle
// regression for the throttle resend path: a frame throttled with a long
// backoff whose connection dies mid-wait must ABORT the scheduled resend
// (counting it in ThrottleAborts) instead of sleeping through the
// teardown and re-encoding a batch its caller no longer guarantees —
// exactly the failover window, where the coordinator has already resent
// the batch through a replacement connection.
func TestThrottleResendAbortsOnDeadConnection(t *testing.T) {
	// A hand-rolled server: handshake, throttle the first step frame with
	// a backoff far longer than the test, then hang until told to drop the
	// connection. Every frame that arrives after the throttle is counted —
	// a resend landing here is the bug.
	throttleSent := make(chan struct{})
	dropConn := make(chan struct{})
	lateFrames := make(chan int, 1)
	addr, _ := fakeServer(t, func(conn net.Conn, br *bufio.Reader) {
		if _, _, err := readFrame(br); err != nil { // the hello
			return
		}
		sendFrame(conn, wire.BinWelcome, welcomeFrame("throttler"))

		var step wire.StepFrame
		tag, payload, err := readFrame(br)
		if err != nil || tag != wire.BinStep || wire.DecodeStep(payload, &step) != nil {
			return
		}
		sendFrame(conn, wire.BinThrottle, wire.AppendThrottle(nil, &wire.ThrottleFrame{
			V: wire.V1, Type: wire.FrameThrottle, ID: step.ID, RetryAfterMS: 60_000}))
		close(throttleSent)

		// Count anything the client still writes, until the test drops the
		// connection out from under the backoff.
		got := make(chan struct{}, 16)
		go func() {
			for {
				if _, _, err := readFrame(br); err != nil {
					return
				}
				got <- struct{}{}
			}
		}()
		late := 0
		for {
			select {
			case <-got:
				late++
			case <-dropConn:
				conn.Close()
				// Drain a moment longer: a buggy resend races the close.
				timeout := time.After(200 * time.Millisecond)
				for {
					select {
					case <-got:
						late++
					case <-timeout:
						lateFrames <- late
						return
					}
				}
			}
		}
	})

	c, err := Dial(addr, "/stream", Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.Step([]wire.Point{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	<-throttleSent
	waitFor(t, "throttle counted", func() bool { return c.Throttles() == 1 })

	// The connection dies while the resend backoff is pending.
	close(dropConn)
	if _, err := p.Wait(); err == nil {
		t.Fatal("pending on a dead connection resolved with a nil error")
	}
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done not closed after the connection dropped")
	}

	waitFor(t, "throttle resend aborted", func() bool { return c.ThrottleAborts() == 1 })
	if late := <-lateFrames; late != 0 {
		t.Fatalf("%d frame(s) written after the throttle on a dead connection, want 0 (aborted resend)", late)
	}
	if c.Err() == nil {
		t.Fatal("Err after drop = nil, want a fatal transport error")
	}
}

// waitFor polls cond until it holds or two seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
