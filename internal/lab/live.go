// The live cell runner: spawn a real mobserve for the cell, feed the
// instance over the streaming transport via internal/streamclient, follow
// the SSE feed for rebalance/failover events, and scrape the final
// /metrics and /state into the summary. Live cells exercise the full
// serving path (process boundary, stream handshake, pipelining), so their
// summaries record real serving facts — but event counts ride the SSE
// drop policy and process scheduling, and are best-effort, not
// byte-reproducible.

package lab

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/streamclient"
	"repro/internal/wire"
)

// liveReadyTimeout bounds how long a cell waits for its spawned mobserve
// to answer GET /metrics before giving up.
const liveReadyTimeout = 15 * time.Second

func (r *Runner) runCellLive(ctx context.Context, c Cell, in *core.Instance) (wire.LabCellSummary, error) {
	if r.MobserveBin == "" {
		return wire.LabCellSummary{}, errors.New("lab: live cells need a mobserve binary (Runner.MobserveBin)")
	}
	cfg := r.Spec.Config(in.Config, c)
	if err := cfg.Validate(); err != nil {
		return wire.LabCellSummary{}, err
	}

	addr, err := reservePort()
	if err != nil {
		return wire.LabCellSummary{}, err
	}
	args := []string{
		"-addr", addr,
		"-dim", strconv.Itoa(cfg.Dim),
		"-D", fmt.Sprint(cfg.D),
		"-m", fmt.Sprint(cfg.M),
		"-delta", fmt.Sprint(cfg.Delta),
		"-k", strconv.Itoa(c.K),
		"-shards", strconv.Itoa(c.Shards),
		"-span", fmt.Sprint(r.Spec.Span),
		"-radius", fmt.Sprint(r.Spec.Radius),
		// The lab feeds one batch per step: coalescing would merge
		// pipelined frames into one engine step and desync the counts.
		"-window", "0s",
		"-queue", "64",
	}
	if r.Spec.Alg != "" {
		args = append(args, "-alg", r.Spec.Alg)
	}
	if cfg.Order == core.AnswerFirst {
		args = append(args, "-answer-first")
	}
	if c.CapMode == "clamp" {
		args = append(args, "-clamp")
	}
	if c.Rebalance == "threshold" {
		args = append(args, "-rebalance", "threshold")
		if r.Spec.RebalanceWindow > 0 {
			args = append(args, "-rebalance-window", strconv.Itoa(r.Spec.RebalanceWindow))
		}
		if r.Spec.RebalanceRatio > 0 {
			args = append(args, "-rebalance-ratio", fmt.Sprint(r.Spec.RebalanceRatio))
		}
		if r.Spec.RebalanceCooldown > 0 {
			args = append(args, "-rebalance-cooldown", strconv.Itoa(r.Spec.RebalanceCooldown))
		}
	}

	cmd := exec.Command(r.MobserveBin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return wire.LabCellSummary{}, fmt.Errorf("lab: spawn mobserve: %w", err)
	}
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()

	base := "http://" + addr
	if err := waitReady(ctx, base, cmd); err != nil {
		return wire.LabCellSummary{}, err
	}

	// Best-effort event counts: the SSE feed's drop policy may lose step
	// events under load, but rebalance/failover markers ride the next
	// delivered event, so the counters only lag, not lose.
	var rebalances, failovers atomic.Int64
	sseCtx, sseCancel := context.WithCancel(context.Background())
	var sseWG sync.WaitGroup
	sseWG.Add(1)
	go func() {
		defer sseWG.Done()
		_ = FollowSSE(sseCtx, base+"/metrics/stream", SSEHandlers{
			Rebalance: func(wire.RebalanceEvent) { rebalances.Add(1) },
			Failover:  func(wire.FailoverEvent) { failovers.Add(1) },
		})
	}()
	defer sseWG.Wait()
	defer sseCancel()

	cl, err := streamclient.Dial(base, "/stream", streamclient.Options{
		Dim:    cfg.Dim,
		Window: c.Window,
	})
	if err != nil {
		return wire.LabCellSummary{}, fmt.Errorf("lab: dial %s: %w", base, err)
	}
	defer cl.Close()

	window := cl.Welcome().Window
	if window < 1 {
		window = 1
	}
	if err := drive(ctx, cl, in, window); err != nil {
		return wire.LabCellSummary{}, err
	}

	var m wire.MetricsResponse
	if err := getJSON(ctx, base+"/metrics", &m); err != nil {
		return wire.LabCellSummary{}, err
	}
	var st wire.StateResponse
	if err := getJSON(ctx, base+"/state", &st); err != nil {
		return wire.LabCellSummary{}, err
	}
	// Give the SSE follower a moment to drain the final events before the
	// server goes away.
	time.Sleep(50 * time.Millisecond)
	sseCancel()
	sseWG.Wait()

	sum := r.summary(c, in)
	sum.Window = window
	sum.T = m.Steps
	sum.Requests = m.Requests
	sum.Algorithm = st.Algorithm
	sum.Cost = st.Cost
	if m.Steps > 0 {
		sum.CostPerStep = st.Cost.Total / float64(m.Steps)
	}
	sum.Clamped = st.Clamped
	sum.CapHits = st.CapHits
	sum.MaxMove = st.MaxMove
	sum.TotalMove = st.TotalMove
	sum.Rebalances = int(rebalances.Load())
	sum.Failovers = int(failovers.Load())
	for _, sh := range st.Shards {
		sum.FinalKs = append(sum.FinalKs, sh.Servers)
	}
	return sum, nil
}

// drive feeds the instance's steps through the stream, keeping up to
// window frames in flight and waiting acks in submission order.
func drive(ctx context.Context, cl *streamclient.Client, in *core.Instance, window int) error {
	pending := make([]*streamclient.Pending, 0, window)
	flush := func(keep int) error {
		for len(pending) > keep {
			p := pending[0]
			copy(pending, pending[1:])
			pending = pending[:len(pending)-1]
			if _, err := p.Wait(); err != nil {
				return err
			}
			p.Release()
		}
		return nil
	}
	for t, step := range in.Steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := flush(window - 1); err != nil {
			return err
		}
		p, err := cl.Step(wire.FromPoints(step.Requests))
		if err != nil {
			return fmt.Errorf("lab: step %d: %w", t, err)
		}
		pending = append(pending, p)
	}
	return flush(0)
}

// reservePort binds an ephemeral loopback port and releases it for the
// spawned server to claim. The classic race (someone else grabbing it in
// between) is tolerable for a lab run and detected by waitReady.
func reservePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// waitReady polls GET /metrics until the spawned server answers, the
// process dies, or the timeout lapses.
func waitReady(ctx context.Context, base string, cmd *exec.Cmd) error {
	//moblint:nondeterminism live-cell process-readiness deadline; no summary field derives from it
	deadline := time.Now().Add(liveReadyTimeout)
	//moblint:nondeterminism live-cell process-readiness deadline; no summary field derives from it
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if cmd.ProcessState != nil {
			return fmt.Errorf("lab: mobserve exited during startup: %v", cmd.ProcessState)
		}
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("lab: mobserve at %s not ready after %v", base, liveReadyTimeout)
}

// GetState scrapes a server's GET /state into v — the dashboard's poll
// companion to the SSE feed (positions and shard layouts are state, not
// events).
func GetState(ctx context.Context, base string, v *wire.StateResponse) error {
	return getJSON(ctx, base+"/state", v)
}

// getJSON fetches url and strictly decodes its JSON body into v.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("lab: %s: %s", url, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	// A live cell's polls cross the process boundary like any frame:
	// decode strictly, so a mobserve speaking a drifted schema fails the
	// cell instead of silently zeroing fields in its summary.
	if err := wire.UnmarshalStrict(data, v); err != nil {
		return fmt.Errorf("lab: %s: %w", url, err)
	}
	return nil
}
