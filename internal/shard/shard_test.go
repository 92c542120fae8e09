package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/multi"
)

func shardedConfig(n, k int) core.Config {
	return core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, K: k, Partition: core.UniformPartition(n, 20)}
}

// spreadBatch is the deterministic test workload: r requests per step whose
// axis-0 coordinates sweep the whole partitioned interval, so every shard
// sees traffic.
func spreadBatch(t, r int) []geom.Point {
	out := make([]geom.Point, r)
	for i := range out {
		x := -19 + 38*math.Mod(0.37*float64(t*r+i)+0.11, 1.0)
		y := 5 * math.Sin(float64(t)+float64(i)*1.7)
		out[i] = geom.NewPoint(x, y)
	}
	return out
}

func newMtCK() core.FleetAlgorithm { return multi.NewMtCK() }

// TestRouterMatchesManualSharding: a router step is exactly "route the
// batch by region, step each shard's session with its share" — the
// concurrency must not change any shard's trajectory.
func TestRouterMatchesManualSharding(t *testing.T) {
	const n, k, steps = 4, 2, 60
	cfg := shardedConfig(n, k)
	starts := Starts(cfg, 5)

	r, err := New(cfg, starts, newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	manual := make([]*engine.Session, n)
	for i := range manual {
		s, err := engine.NewSession(cfg, starts[i], newMtCK(), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		manual[i] = s
	}

	for step := 0; step < steps; step++ {
		reqs := spreadBatch(step, 7)
		if err := r.Step(reqs); err != nil {
			t.Fatal(err)
		}
		buckets := make([][]geom.Point, n)
		for _, v := range reqs {
			i := cfg.Partition.ShardOfPoint(v)
			buckets[i] = append(buckets[i], v)
		}
		for i, s := range manual {
			if err := s.Step(buckets[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	if r.T() != steps {
		t.Fatalf("router T = %d, want %d", r.T(), steps)
	}
	var wantCost core.Cost
	res := r.Finish()
	shardRes, err := r.ShardResults()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range manual {
		mr := s.Finish()
		wantCost = wantCost.Add(mr.Cost)
		if !reflect.DeepEqual(shardRes[i], mr) {
			t.Fatalf("shard %d diverged from manual session:\nrouter %+v\nmanual %+v", i, shardRes[i], mr)
		}
	}
	if res.Cost != wantCost {
		t.Fatalf("aggregated cost %v != summed shard costs %v", res.Cost, wantCost)
	}
	if len(res.Final) != n*k {
		t.Fatalf("aggregated result has %d final positions, want %d", len(res.Final), n*k)
	}
}

// TestRouterSnapshotRestoreEquivalence is the shard-wise checkpoint
// invariant: kill a sharded run at any step, restore it from the combined
// snapshot, finish the stream — every shard's final session snapshot is
// byte-identical to the uninterrupted run's.
func TestRouterSnapshotRestoreEquivalence(t *testing.T) {
	const n, k, kill, total = 3, 2, 25, 50
	cfg := shardedConfig(n, k)
	starts := Starts(cfg, 5)

	full, err := New(cfg, starts, newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	half, err := New(cfg, starts, newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < kill; step++ {
		reqs := spreadBatch(step, 5)
		if err := full.Step(reqs); err != nil {
			t.Fatal(err)
		}
		if err := half.Step(reqs); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := Restore(cfg, newMtCK, ck, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.T() != kill {
		t.Fatalf("resumed at T=%d, want %d", resumed.T(), kill)
	}
	for step := kill; step < total; step++ {
		reqs := spreadBatch(step, 5)
		if err := full.Step(reqs); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Step(reqs); err != nil {
			t.Fatal(err)
		}
	}

	// Compare the combined documents and each embedded shard snapshot.
	snapFull, err := full.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapResumed, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapFull, snapResumed) {
		t.Fatalf("combined snapshots differ:\n%s\nvs\n%s", snapFull, snapResumed)
	}
	var a, b struct {
		Shards []json.RawMessage `json:"shards"`
	}
	if err := json.Unmarshal(snapFull, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(snapResumed, &b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Shards {
		if !bytes.Equal(a.Shards[i], b.Shards[i]) {
			t.Fatalf("shard %d snapshot differs after resume:\n%s\nvs\n%s", i, a.Shards[i], b.Shards[i])
		}
	}
	if !reflect.DeepEqual(full.Finish(), resumed.Finish()) {
		t.Fatal("aggregated results diverged after resume")
	}
}

// TestRestoreRejectsMismatchedLayout: a combined snapshot only restores
// under the exact shard layout it was taken with.
func TestRestoreRejectsMismatchedLayout(t *testing.T) {
	cfg := shardedConfig(3, 1)
	r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(spreadBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	ck, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	moved := cfg
	moved.Partition = core.Partition{-3, 3}
	if _, err := Restore(moved, newMtCK, ck, engine.Options{}); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("restore with moved boundaries = %v, want partition mismatch", err)
	}
	fewer := cfg
	fewer.Partition = core.UniformPartition(2, 20)
	if _, err := Restore(fewer, newMtCK, ck, engine.Options{}); err == nil {
		t.Fatal("restore with fewer shards must fail")
	}
	biggerK := cfg
	biggerK.K = 2
	if _, err := Restore(biggerK, newMtCK, ck, engine.Options{}); err == nil {
		t.Fatal("restore with a different per-shard fleet size must fail")
	}
}

// TestRouterObservers: router-level observers see one merged StepInfo per
// global step — requests counted once, costs summed across shards — so
// engine.Metrics and engine.MoveStats work unchanged on a sharded run.
func TestRouterObservers(t *testing.T) {
	const n, k, steps, perStep = 3, 2, 40, 6
	cfg := shardedConfig(n, k)
	metrics := &engine.Metrics{}
	moves := &engine.MoveStats{}
	r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{Observers: []engine.Observer{metrics, moves}})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		if err := r.Step(spreadBatch(step, perStep)); err != nil {
			t.Fatal(err)
		}
	}
	if metrics.Steps != steps || metrics.Requests != steps*perStep {
		t.Fatalf("metrics = %d steps / %d requests, want %d / %d", metrics.Steps, metrics.Requests, steps, steps*perStep)
	}
	// The observer accumulates (sum over shards) per step, then over steps;
	// Cost() sums per-shard running totals — same quantity, different float
	// association, so compare with a relative tolerance.
	if got, want := metrics.Cost.Total(), r.Cost().Total(); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("observed cost %v != aggregated cost %v", metrics.Cost, r.Cost())
	}
	if moves.Steps != steps {
		t.Fatalf("move stats saw %d steps, want %d", moves.Steps, steps)
	}
	states := r.States()
	reqSum := 0
	for _, st := range states {
		reqSum += st.Requests
	}
	if reqSum != steps*perStep {
		t.Fatalf("per-shard request counters sum to %d, want %d", reqSum, steps*perStep)
	}
	res := r.Finish()
	if moves.MaxMove != res.MaxMove {
		t.Fatalf("move stats MaxMove %v != result MaxMove %v", moves.MaxMove, res.MaxMove)
	}
}

// TestStartsLayout: every shard's default servers start strictly inside
// their own region, so the initial layout routes to itself.
func TestStartsLayout(t *testing.T) {
	cfg := shardedConfig(4, 3)
	starts := Starts(cfg, 5)
	if len(starts) != 4 {
		t.Fatalf("got %d fleets, want 4", len(starts))
	}
	for i, fleet := range starts {
		if len(fleet) != 3 {
			t.Fatalf("shard %d has %d servers, want 3", i, len(fleet))
		}
		for j, p := range fleet {
			if got := cfg.Partition.ShardOfPoint(p); got != i {
				t.Errorf("shard %d server %d at %v routes to shard %d", i, j, p, got)
			}
		}
	}
}

// TestRouterStepValidation: malformed batches are rejected before any
// shard sees them (recoverable), and a finished router refuses to step.
func TestRouterStepValidation(t *testing.T) {
	cfg := shardedConfig(2, 1)
	r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step([]geom.Point{geom.NewPoint(1, 2, 3)}); err == nil {
		t.Fatal("dim-3 request must be rejected")
	}
	if err := r.Step([]geom.Point{geom.NewPoint(math.NaN(), 0)}); err == nil {
		t.Fatal("non-finite request must be rejected")
	}
	if err := r.Step(spreadBatch(0, 3)); err != nil {
		t.Fatalf("valid step after rejected batches: %v", err)
	}
	if r.T() != 1 {
		t.Fatalf("T = %d, want 1 (bad batches must not consume steps)", r.T())
	}
	r.Finish()
	if err := r.Step(spreadBatch(1, 3)); err != ErrFinished {
		t.Fatalf("step after Finish = %v, want ErrFinished", err)
	}
}

// TestRouterStepAllocBudget pins a warm router step driving MtCK: with one
// shard the step runs inline and allocates nothing; with more, the only
// allocations are engine.StepAll's goroutine fan-out, at most
// 2·shards+2 per step.
func TestRouterStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget is not measurable under -race (the race runtime allocates)")
	}
	const totalServers, perStep = 16, 128
	batches := make([][]geom.Point, 8)
	for i := range batches {
		batches[i] = spreadBatch(i, perStep)
	}
	for _, n := range []int{1, 2, 4, 8} {
		cfg := shardedConfig(n, totalServers/n)
		r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		step := func() {
			if err := r.Step(batches[i%len(batches)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for w := 0; w < 2*len(batches); w++ {
			step()
		}
		budget := 0.0
		if n > 1 {
			budget = float64(2*n + 2)
		}
		if allocs := testing.AllocsPerRun(50, step); allocs > budget {
			t.Errorf("shards=%d: warm router step allocates %v/op, budget %v", n, allocs, budget)
		} else {
			t.Logf("shards=%d: %v allocs/op (budget %v)", n, allocs, budget)
		}
	}
}
