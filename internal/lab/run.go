// The sweep engine: expand the matrix, run every cell through the real
// serving stack, write per-cell summaries, and aggregate the report.
// Cells are independent — the sweep fans them out over a worker pool and
// is resumable per cell (an existing summary.json is adopted, not rerun).

package lab

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Runner executes one sweep of a matrix spec.
type Runner struct {
	// Spec is the matrix to sweep.
	Spec *Spec
	// BaseDir resolves relative trace paths; usually the matrix file's
	// directory.
	BaseDir string
	// OutDir is the results directory of this sweep (results/<stamp>);
	// each cell writes OutDir/<cell>/summary.json.
	OutDir string
	// Parallel bounds concurrently running cells. Default NumCPU.
	Parallel int
	// Rerun forces every cell to run even when a summary already exists.
	Rerun bool
	// MobserveBin is the mobserve binary live cells spawn.
	MobserveBin string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Sweep runs every cell of the matrix and writes OutDir/report.json and
// OutDir/bench.json. Cells whose summary.json already exists (and names
// the same cell) are skipped unless Rerun is set. Cell failures do not
// stop the other cells; Sweep then returns a joined error after writing
// the report over the cells that did complete.
func (r *Runner) Sweep(ctx context.Context) (*wire.LabReport, error) {
	//moblint:nondeterminism sweep wall-time feeds report.json's ElapsedMS, which the byte-determinism contract excludes (summary.json only)
	start := time.Now()
	cells, err := r.Spec.Cells()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.OutDir, 0o755); err != nil {
		return nil, err
	}
	parallel := r.Parallel
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	if parallel > len(cells) {
		parallel = len(cells)
	}
	inst := newInstances(r.Spec, r.BaseDir)

	type outcome struct {
		sum     wire.LabCellSummary
		skipped bool
		err     error
	}
	outcomes := make([]outcome, len(cells))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				cell := cells[i]
				if sum, ok := r.adopt(cell); ok {
					outcomes[i] = outcome{sum: sum, skipped: true}
					r.logf("cell %-40s adopted existing summary", cell.Name)
					continue
				}
				sum, err := r.runCell(ctx, cell, inst)
				if err != nil {
					outcomes[i] = outcome{err: fmt.Errorf("cell %s: %w", cell.Name, err)}
					r.logf("cell %-40s FAILED: %v", cell.Name, err)
					continue
				}
				if err := writeCellSummary(r.OutDir, sum); err != nil {
					outcomes[i] = outcome{err: fmt.Errorf("cell %s: %w", cell.Name, err)}
					continue
				}
				outcomes[i] = outcome{sum: sum}
				r.logf("cell %-40s cost/step %.4g  rebalances %d", cell.Name, sum.CostPerStep, sum.Rebalances)
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()

	report := &wire.LabReport{
		V:     wire.V1,
		Name:  r.Spec.Name,
		Seed:  r.Spec.Seed,
		Cells: len(cells),
	}
	var errs []error
	for _, o := range outcomes {
		switch {
		case o.err != nil:
			errs = append(errs, o.err)
		case o.skipped:
			report.Skipped++
			report.Summaries = append(report.Summaries, o.sum)
		default:
			report.Ran++
			report.Summaries = append(report.Summaries, o.sum)
		}
	}
	sort.Slice(report.Summaries, func(i, j int) bool {
		return report.Summaries[i].Cell < report.Summaries[j].Cell
	})
	report.Bench = BenchEntry(r.Spec.Name, report.Summaries)
	//moblint:nondeterminism ElapsedMS is a report.json field outside the byte-determinism contract
	report.ElapsedMS = time.Since(start).Milliseconds()
	if err := writeReport(r.OutDir, report); err != nil {
		errs = append(errs, err)
	}
	return report, errors.Join(errs...)
}

// adopt loads an existing summary for the cell when resuming. A file that
// does not parse, or names a different cell, is ignored (the cell reruns).
func (r *Runner) adopt(c Cell) (wire.LabCellSummary, bool) {
	if r.Rerun {
		return wire.LabCellSummary{}, false
	}
	data, err := os.ReadFile(filepath.Join(r.OutDir, c.Name, "summary.json"))
	if err != nil {
		return wire.LabCellSummary{}, false
	}
	// Strict parse: a summary with unknown fields (written by a different
	// version) or trailing bytes is not adopted — the cell reruns rather
	// than resume from a document this version might misread.
	var sum wire.LabCellSummary
	if err := wire.UnmarshalStrict(data, &sum); err != nil || sum.Cell != c.Name {
		return wire.LabCellSummary{}, false
	}
	return sum, true
}

func (r *Runner) runCell(ctx context.Context, c Cell, inst *instances) (wire.LabCellSummary, error) {
	in, err := inst.For(c.Workload)
	if err != nil {
		return wire.LabCellSummary{}, err
	}
	if c.Live {
		return r.runCellLive(ctx, c, in)
	}
	return r.runCellInproc(ctx, c, in)
}

// newAlg maps the spec's algorithm choice onto a per-shard controller
// factory, mirroring mobserve's default: MtC for a single unsharded
// server, cluster-and-chase otherwise.
func newAlg(name string, cfg core.Config) (func() core.FleetAlgorithm, error) {
	if name == "" {
		if cfg.Servers() > 1 || cfg.Partition.Shards() > 1 {
			name = "mtck"
		} else {
			name = "mtc"
		}
	}
	switch name {
	case "mtc":
		if cfg.Servers() != 1 {
			return nil, fmt.Errorf("lab: alg mtc is single-server (k=%d)", cfg.Servers())
		}
		return func() core.FleetAlgorithm { return core.Fleet(core.NewMtC()) }, nil
	case "mtck":
		return func() core.FleetAlgorithm { return multi.NewMtCK() }, nil
	case "lazy":
		return func() core.FleetAlgorithm { return multi.NewLazyK() }, nil
	default:
		return nil, fmt.Errorf("lab: unknown algorithm %q (mtc|mtck|lazy)", name)
	}
}

// rebalancer builds the cell's policy instance (policies are stateful and
// must not be shared between cells).
func (r *Runner) rebalancer(c Cell) shard.Rebalancer {
	if c.Rebalance != "threshold" {
		return nil
	}
	return &shard.Threshold{
		WindowSteps: r.Spec.RebalanceWindow,
		Ratio:       r.Spec.RebalanceRatio,
		Cooldown:    r.Spec.RebalanceCooldown,
	}
}

// runCellInproc drives the instance through an in-process
// protocol.Service, step by step, consuming the Watch feed in lockstep so
// rebalance and failover counts are exact and the summary is a
// deterministic function of (spec, seed).
func (r *Runner) runCellInproc(ctx context.Context, c Cell, in *core.Instance) (wire.LabCellSummary, error) {
	cfg := r.Spec.Config(in.Config, c)
	if err := cfg.Validate(); err != nil {
		return wire.LabCellSummary{}, err
	}
	alg, err := newAlg(r.Spec.Alg, cfg)
	if err != nil {
		return wire.LabCellSummary{}, err
	}
	opts := protocol.Options{
		NoCoalesce: true,
		QueueLimit: 8,
		Rebalancer: r.rebalancer(c),
	}
	if c.CapMode == "clamp" {
		opts.Mode = engine.Clamp
	}
	var svc *protocol.Service
	if cfg.Partition.Shards() > 1 {
		svc, err = protocol.NewSharded(cfg, shard.Starts(cfg, r.Spec.Radius), alg, opts)
	} else {
		var starts []geom.Point
		if cfg.Servers() == 1 {
			starts = []geom.Point{geom.Zero(cfg.Dim)}
		} else {
			starts = multi.SpreadStarts(cfg, r.Spec.Radius)
		}
		svc, err = protocol.New(cfg, starts, alg(), opts)
	}
	if err != nil {
		return wire.LabCellSummary{}, err
	}
	defer svc.Close()

	watchCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := svc.Watch(watchCtx)

	rebalances, failovers := 0, 0
	for t, step := range in.Steps {
		if err := ctx.Err(); err != nil {
			return wire.LabCellSummary{}, err
		}
		ack, err := svc.Submit(step.Requests)
		if err != nil {
			return wire.LabCellSummary{}, fmt.Errorf("step %d: %w", t, err)
		}
		ack.Release()
		// Consume the step's Watch event before submitting the next step:
		// with exactly one event outstanding the subscriber buffer can
		// never overflow, so the drop policy never fires and the event
		// counts below are exact, not best-effort.
		for ev := range events {
			if ev.Rebalance != nil {
				rebalances++
			}
			failovers += len(ev.Failovers)
			if ev.T >= ack.T {
				break
			}
		}
	}

	m := svc.Metrics()
	st := svc.State()
	if err := svc.Close(); err != nil {
		return wire.LabCellSummary{}, err
	}
	sum := r.summary(c, in)
	sum.T = m.Steps
	sum.Requests = m.Requests
	sum.Algorithm = st.Algorithm
	sum.Cost = wire.FromCost(st.Cost)
	if m.Steps > 0 {
		sum.CostPerStep = sum.Cost.Total / float64(m.Steps)
	}
	sum.Clamped = st.Clamped
	sum.CapHits = st.CapHits
	sum.MaxMove = st.MaxMove
	sum.TotalMove = st.TotalMove
	sum.Rebalances = rebalances
	sum.Failovers = failovers
	for _, sh := range st.Shards {
		sum.FinalKs = append(sum.FinalKs, sh.Servers)
	}
	return sum, nil
}

// summary seeds the cell-coordinate fields every transport shares.
func (r *Runner) summary(c Cell, in *core.Instance) wire.LabCellSummary {
	transport := "inproc"
	if c.Live {
		transport = "stream"
	}
	return wire.LabCellSummary{
		V:         wire.V1,
		Cell:      c.Name,
		Workload:  c.Workload.Label(),
		Shards:    c.Shards,
		K:         c.K,
		Rebalance: c.Rebalance,
		CapMode:   c.CapMode,
		Transport: transport,
		Seed:      r.Spec.Seed,
	}
}

// BenchEntry aggregates cell summaries into the compact lab_matrix entry
// of the BENCH_*.json trajectory: mean cost/step of static vs rebalanced
// layouts over the axis combinations that ran under both, and the
// cheapest cell per workload.
func BenchEntry(name string, sums []wire.LabCellSummary) wire.LabBenchEntry {
	e := wire.LabBenchEntry{Matrix: name, Cells: len(sums)}

	workloads := map[string]bool{}
	best := map[string]wire.LabCellSummary{}
	// pairKey identifies a cell's coordinates with the rebalance axis
	// removed, so static and threshold runs of the same scenario pair up.
	pairKey := func(s wire.LabCellSummary) string {
		return strings.Join([]string{
			s.Workload, fmt.Sprint(s.Shards), fmt.Sprint(s.K), s.CapMode,
			s.Transport, fmt.Sprint(s.Window),
		}, "|")
	}
	type pair struct {
		static, rebalance *wire.LabCellSummary
	}
	pairs := map[string]*pair{}
	for i := range sums {
		s := &sums[i]
		workloads[s.Workload] = true
		if b, ok := best[s.Workload]; !ok || s.CostPerStep < b.CostPerStep {
			best[s.Workload] = *s
		}
		p := pairs[pairKey(*s)]
		if p == nil {
			p = &pair{}
			pairs[pairKey(*s)] = p
		}
		if s.Rebalance == "static" {
			p.static = s
		} else {
			p.rebalance = s
		}
	}
	for w := range workloads {
		e.Workloads = append(e.Workloads, w)
	}
	sort.Strings(e.Workloads)
	// Sum in sorted key order: float addition is not associative, and the
	// aggregate must be as byte-reproducible as the cell summaries.
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var staticSum, rebSum float64
	n := 0
	for _, k := range keys {
		p := pairs[k]
		if p.static == nil || p.rebalance == nil {
			continue
		}
		staticSum += p.static.CostPerStep
		rebSum += p.rebalance.CostPerStep
		n++
	}
	if n > 0 {
		e.StaticCostPerStep = staticSum / float64(n)
		e.RebalanceCostPerStep = rebSum / float64(n)
		if e.StaticCostPerStep > 0 {
			e.CostSavedFrac = 1 - e.RebalanceCostPerStep/e.StaticCostPerStep
		}
	}
	for _, w := range e.Workloads {
		b := best[w]
		e.Best = append(e.Best, wire.LabBestCell{Workload: w, Cell: b.Cell, CostPerStep: b.CostPerStep})
	}
	return e
}
