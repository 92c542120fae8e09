package multi

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/median"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func pt(coords ...float64) geom.Point { return geom.NewPoint(coords...) }

func fleetCfg(k int) core.Config {
	return core.Config{Dim: 2, D: 2, M: 1, Delta: 0, Order: core.MoveFirst, K: k}
}

func fleetInstance(t *testing.T, k, T int, seed uint64) *core.FleetInstance {
	t.Helper()
	cfg := fleetCfg(k)
	src := workload.Clusters{K: k, Sigma: 0.5, SwitchProb: 0.05, Requests: 2}.
		Generate(xrand.New(seed), cfg, T)
	in := &core.FleetInstance{Config: cfg, Starts: SpreadStarts(cfg, 5), Steps: src.Steps}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestConfigValidate(t *testing.T) {
	if err := fleetCfg(3).Validate(); err != nil {
		t.Fatal(err)
	}
	// K=0 means a single server and stays valid; negative fleets do not.
	if err := fleetCfg(0).Validate(); err != nil {
		t.Fatalf("K=0 rejected: %v", err)
	}
	if fleetCfg(0).Servers() != 1 {
		t.Fatal("K=0 should mean one server")
	}
	bad := fleetCfg(-1)
	if err := bad.Validate(); err == nil {
		t.Fatal("K=-1 accepted")
	}
	bad = fleetCfg(2)
	bad.D = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad D accepted")
	}
}

func TestInstanceValidate(t *testing.T) {
	in := fleetInstance(t, 2, 10, 1)
	in.Starts = in.Starts[:1]
	if err := in.Validate(); err == nil {
		t.Fatal("start-count mismatch accepted")
	}
	in = fleetInstance(t, 2, 10, 1)
	in.Steps = nil
	if err := in.Validate(); err == nil {
		t.Fatal("empty steps accepted")
	}
}

func TestServeCostNearest(t *testing.T) {
	positions := []geom.Point{pt(0, 0), pt(10, 0)}
	reqs := []geom.Point{pt(1, 0), pt(9, 0)}
	if got := ServeCost(positions, reqs); got != 2 {
		t.Fatalf("ServeCost = %v, want 2", got)
	}
}

func TestRunLazyCost(t *testing.T) {
	cfg := fleetCfg(2)
	in := &core.FleetInstance{
		Config: cfg,
		Starts: []geom.Point{pt(0, 0), pt(10, 0)},
		Steps: []core.Step{
			{Requests: []geom.Point{pt(1, 0)}},
			{Requests: []geom.Point{pt(9, 0)}},
		},
	}
	res, err := Run(in, NewLazyK(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Move != 0 || res.Cost.Serve != 2 {
		t.Fatalf("lazy cost = %+v", res.Cost)
	}
}

func TestMtCKRespectsCap(t *testing.T) {
	in := fleetInstance(t, 3, 100, 2)
	res, err := Run(in, NewMtCK(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMove > in.Config.OnlineCap()*(1+1e-9) {
		t.Fatalf("MaxMove = %v", res.MaxMove)
	}
}

func TestMtCKBeatsLazyOnClusters(t *testing.T) {
	in := fleetInstance(t, 2, 300, 3)
	mtc, err := Run(in, NewMtCK(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Run(in, NewLazyK(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if mtc.Cost.Total() >= lazy.Cost.Total() {
		t.Fatalf("MtC-k (%v) did not beat Lazy-k (%v)", mtc.Cost.Total(), lazy.Cost.Total())
	}
}

func TestMoreServersHelp(t *testing.T) {
	// On a 3-cluster workload, K=3 should beat K=1 clearly.
	costAt := func(k int) float64 {
		sum := 0.0
		for seed := uint64(0); seed < 3; seed++ {
			cfg := fleetCfg(k)
			src := workload.Clusters{K: 3, Sigma: 0.5, SwitchProb: 0, Requests: 2}.
				Generate(xrand.New(seed), cfg, 200)
			in := &core.FleetInstance{Config: cfg, Starts: SpreadStarts(cfg, 10), Steps: src.Steps}
			res, err := Run(in, NewMtCK(), 0)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Cost.Total()
		}
		return sum
	}
	c1, c3 := costAt(1), costAt(3)
	if c3 >= c1 {
		t.Fatalf("K=3 (%v) not better than K=1 (%v)", c3, c1)
	}
}

func TestRunRejectsWrongArity(t *testing.T) {
	in := fleetInstance(t, 2, 5, 4)
	if _, err := Run(in, &badArity{}, 0); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

type badArity struct{ pos []geom.Point }

func (b *badArity) Name() string                             { return "bad" }
func (b *badArity) Reset(_ core.Config, starts []geom.Point) { b.pos = starts }
func (b *badArity) Move(_ []geom.Point) []geom.Point         { return b.pos[:1] }

func TestRunRejectsOverspeed(t *testing.T) {
	in := fleetInstance(t, 2, 5, 5)
	if _, err := Run(in, &teleporter{}, 0); err == nil {
		t.Fatal("teleporting fleet accepted")
	}
}

func TestClampModeTamesTeleporter(t *testing.T) {
	// The same fleet that strict mode rejects finishes under Clamp, with
	// every server held to the cap and the clamps counted.
	in := fleetInstance(t, 2, 5, 5)
	res, err := engine.Run(in, &teleporter{}, engine.Options{Mode: engine.Clamp})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clamped == 0 {
		t.Fatal("no clamped moves counted")
	}
	if res.MaxMove > in.Config.OnlineCap()*(1+1e-9) {
		t.Fatalf("clamped fleet still moved %v", res.MaxMove)
	}
}

type teleporter struct{ pos []geom.Point }

func (b *teleporter) Name() string                             { return "teleport" }
func (b *teleporter) Reset(_ core.Config, starts []geom.Point) { b.pos = starts }
func (b *teleporter) Move(reqs []geom.Point) []geom.Point {
	if len(reqs) > 0 {
		out := make([]geom.Point, len(b.pos))
		for i := range out {
			out[i] = reqs[0].Clone()
		}
		b.pos = out
	}
	return b.pos
}

func TestSpreadStarts(t *testing.T) {
	cfg := fleetCfg(4)
	starts := SpreadStarts(cfg, 5)
	if len(starts) != 4 {
		t.Fatalf("got %d starts", len(starts))
	}
	for _, s := range starts {
		if math.Abs(geom.Dist(pt(0, 0), s)-5) > 1e-9 {
			t.Fatalf("start %v not on radius-5 circle", s)
		}
	}
	// 1-D spread.
	cfg1 := core.Config{Dim: 1, D: 1, M: 1, K: 3}
	s1 := SpreadStarts(cfg1, 4)
	if s1[0][0] != -4 || s1[2][0] != 4 {
		t.Fatalf("1-D spread = %v", s1)
	}
	// K=1 sits at the origin.
	single := SpreadStarts(core.Config{Dim: 2, D: 1, M: 1, K: 1}, 9)
	if !single[0].Equal(pt(0, 0)) {
		t.Fatalf("single start = %v", single[0])
	}
}

// allocBatches are two steps' requests for a 4-server fleet spread on a
// radius-5 circle. Each server sees its own cluster, sized to reach every
// solver path: server 0 gets 1 request, server 1 gets 2, server 2 gets 3
// (a non-collinear triangle in the first batch, a collinear triple in the
// second) and server 3 gets 5 (the Weiszfeld iteration).
var allocBatches = [2][]geom.Point{
	{
		pt(5.2, 0.1),
		pt(0.2, 5.1), pt(-0.3, 4.8),
		pt(-5, 0.4), pt(-5.4, -0.2), pt(-4.7, -0.3),
		pt(0, -5), pt(0.4, -5.2), pt(-0.3, -4.7), pt(0.2, -4.6), pt(-0.4, -5.3),
	},
	{
		pt(4.9, -0.2),
		pt(0.1, 5.3), pt(-0.2, 4.9),
		pt(-5.4, 0.1), pt(-5, 0.1), pt(-4.6, 0.1),
		pt(0.1, -5.1), pt(0.3, -4.8), pt(-0.2, -5.3), pt(0.4, -5.4), pt(-0.5, -4.9),
	},
}

// TestMtCKSessionStepZeroAlloc pins a warm engine step driving MtCK at
// 0 allocs/op across batches that give servers 1, 2, 3 (non-collinear
// and collinear) and more than 3 requests.
func TestMtCKSessionStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget is not measurable under -race (the race runtime allocates)")
	}
	cfg := fleetCfg(4)
	alg := NewMtCK()
	sess, err := engine.NewSession(cfg, SpreadStarts(cfg, 5), alg, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		for _, batch := range allocBatches {
			if err := sess.Step(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		step()
	}
	// The batches must still reach the paths they were built for.
	for j, want := range []int{1, 2, 3, 5} {
		if got := len(alg.assigned[j]); got != want {
			t.Fatalf("server %d was assigned %d requests, want %d", j, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("warm MtCK session step allocates %v/op, want 0", allocs)
	}
}

// moveAllocating is MtCK.Move as it was before it kept its buffers: fresh
// buckets, median.Closest and geom.MoveToward every step.
func moveAllocating(cfg core.Config, pos, requests []geom.Point) []geom.Point {
	if len(requests) == 0 {
		return pos
	}
	assigned := make([][]geom.Point, len(pos))
	for _, v := range requests {
		bestJ, bestD := 0, math.Inf(1)
		for j, p := range pos {
			if d := geom.Dist(p, v); d < bestD {
				bestD, bestJ = d, j
			}
		}
		assigned[bestJ] = append(assigned[bestJ], v)
	}
	for j := range pos {
		batch := assigned[j]
		if len(batch) == 0 {
			continue
		}
		c := median.Closest(batch, pos[j], median.Options{})
		dist := geom.Dist(pos[j], c)
		speed := math.Min(1, float64(len(batch))/cfg.D)
		step := math.Min(speed*dist, cfg.OnlineCap())
		pos[j] = geom.MoveToward(pos[j], c, step)
	}
	return pos
}

// TestMtCKMatchesAllocatingMove replays a clustered workload through MtCK
// and through the allocating Move it replaced, requiring bit-identical
// positions after every step.
func TestMtCKMatchesAllocatingMove(t *testing.T) {
	cfg := fleetCfg(4)
	src := workload.Clusters{K: 4, Sigma: 0.5, SwitchProb: 0.05, Requests: 24}.
		Generate(xrand.New(3), cfg, 400)
	in := &core.FleetInstance{Config: cfg, Starts: SpreadStarts(cfg, 5), Steps: src.Steps}
	alg := NewMtCK()
	alg.Reset(in.Config, in.Starts)
	ref := make([]geom.Point, len(in.Starts))
	for j, s := range in.Starts {
		ref[j] = s.Clone()
	}
	for step, s := range in.Steps {
		got := alg.Move(s.Requests)
		ref = moveAllocating(in.Config, ref, s.Requests)
		for j := range ref {
			for k := range ref[j] {
				if math.Float64bits(got[j][k]) != math.Float64bits(ref[j][k]) {
					t.Fatalf("step %d server %d: %v, allocating Move %v", step, j, got[j], ref[j])
				}
			}
		}
	}
}

// TestMtCKNearestTieKeepsFirst pins the nearest-server tie rule: when two
// servers' squared distances differ but their distances round to the same
// float64, the request goes to the first server, exactly as a scan over
// Dist assigns it — not to the one with the smaller squared distance.
func TestMtCKNearestTieKeepsFirst(t *testing.T) {
	v := pt(0, 0)
	var p0, p1 geom.Point
	for i := 0; i < 100 && p1 == nil; i++ {
		p0 = pt(1.5, 0.7+float64(i)*1e-3)
		for k := 1; k < 8 && p1 == nil; k++ {
			c := pt(1.5, p0[1]-float64(k)*0x1p-52)
			if geom.DistSq(c, v) < geom.DistSq(p0, v) && geom.Dist(c, v) == geom.Dist(p0, v) {
				p1 = c
			}
		}
	}
	if p1 == nil {
		t.Fatal("no rounding tie found near p0")
	}
	cfg := fleetCfg(2)
	alg := NewMtCK()
	alg.Reset(cfg, []geom.Point{p0, p1})
	alg.Move([]geom.Point{v})
	if len(alg.assigned[0]) != 1 || len(alg.assigned[1]) != 0 {
		t.Fatalf("tied request assigned %d/%d to servers 0/1, want it on server 0",
			len(alg.assigned[0]), len(alg.assigned[1]))
	}
}
