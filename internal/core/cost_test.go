package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

func TestCostTotalAdd(t *testing.T) {
	a := Cost{Move: 2, Serve: 3}
	b := Cost{Move: 5, Serve: 7}
	if a.Total() != 5 {
		t.Fatalf("Total = %v", a.Total())
	}
	s := a.Add(b)
	if s.Move != 7 || s.Serve != 10 {
		t.Fatalf("Add = %+v", s)
	}
}

func TestCostString(t *testing.T) {
	s := Cost{Move: 1, Serve: 2}.String()
	if !strings.Contains(s, "total=3") {
		t.Fatalf("String = %q", s)
	}
}

func TestStepCostMoveFirst(t *testing.T) {
	cfg := Config{Dim: 1, D: 3, M: 1, Order: MoveFirst}
	from, to := pt(0.0), pt(2.0)
	reqs := []geom.Point{pt(5.0), pt(-1.0)}
	c := StepCost(cfg, from, to, reqs)
	// Move: 3 * 2 = 6. Serve from `to`=2: |5-2| + |-1-2| = 3 + 3 = 6.
	if c.Move != 6 {
		t.Fatalf("Move = %v", c.Move)
	}
	if c.Serve != 6 {
		t.Fatalf("Serve = %v", c.Serve)
	}
}

func TestStepCostAnswerFirst(t *testing.T) {
	cfg := Config{Dim: 1, D: 3, M: 1, Order: AnswerFirst}
	from, to := pt(0.0), pt(2.0)
	reqs := []geom.Point{pt(5.0), pt(-1.0)}
	c := StepCost(cfg, from, to, reqs)
	// Move unchanged: 6. Serve from `from`=0: 5 + 1 = 6.
	if c.Move != 6 {
		t.Fatalf("Move = %v", c.Move)
	}
	if c.Serve != 6 {
		t.Fatalf("Serve = %v", c.Serve)
	}
	// A case where the two orders differ.
	reqs = []geom.Point{pt(2.0)}
	mf := StepCost(Config{Dim: 1, D: 3, Order: MoveFirst}, from, to, reqs)
	af := StepCost(cfg, from, to, reqs)
	if mf.Serve != 0 || af.Serve != 2 {
		t.Fatalf("serve order mismatch: move-first=%v answer-first=%v", mf.Serve, af.Serve)
	}
}

func TestStepCostNoRequests(t *testing.T) {
	cfg := Config{Dim: 2, D: 2, M: 1}
	c := StepCost(cfg, pt(0, 0), pt(1, 0), nil)
	if c.Serve != 0 || c.Move != 2 {
		t.Fatalf("StepCost = %+v", c)
	}
}

func TestTrajectoryCost(t *testing.T) {
	in := &Instance{
		Config: Config{Dim: 1, D: 2, M: 1, Order: MoveFirst},
		Start:  pt(0.0),
		Steps: []Step{
			{Requests: []geom.Point{pt(1.0)}},
			{Requests: []geom.Point{pt(2.0)}},
		},
	}
	positions := []geom.Point{pt(0.0), pt(1.0), pt(2.0)}
	c, err := TrajectoryCost(in, positions)
	if err != nil {
		t.Fatal(err)
	}
	// Moves: 2*1 + 2*1 = 4. Serves: 0 + 0 = 0.
	if c.Move != 4 || c.Serve != 0 {
		t.Fatalf("TrajectoryCost = %+v", c)
	}
}

func TestTrajectoryCostErrors(t *testing.T) {
	in := &Instance{
		Config: Config{Dim: 1, D: 1, M: 1},
		Start:  pt(0.0),
		Steps:  []Step{{Requests: []geom.Point{pt(1.0)}}},
	}
	if _, err := TrajectoryCost(in, []geom.Point{pt(0.0)}); err == nil {
		t.Fatal("short trajectory accepted")
	}
	if _, err := TrajectoryCost(in, []geom.Point{pt(5.0), pt(6.0)}); err == nil {
		t.Fatal("wrong start accepted")
	}
}

func TestTrajectoryCostMatchesManualSum(t *testing.T) {
	in := &Instance{
		Config: Config{Dim: 2, D: 4, M: 1, Order: AnswerFirst},
		Start:  pt(0, 0),
		Steps: []Step{
			{Requests: []geom.Point{pt(3, 4)}},
			{Requests: []geom.Point{pt(0, 0), pt(1, 1)}},
		},
	}
	positions := []geom.Point{pt(0, 0), pt(1, 0), pt(1, 1)}
	c, err := TrajectoryCost(in, positions)
	if err != nil {
		t.Fatal(err)
	}
	want := StepCost(in.Config, positions[0], positions[1], in.Steps[0].Requests).
		Add(StepCost(in.Config, positions[1], positions[2], in.Steps[1].Requests))
	if math.Abs(c.Total()-want.Total()) > 1e-12 {
		t.Fatalf("TrajectoryCost = %v, want %v", c, want)
	}
}

// TestNearestServeCostIsMinDist pins NearestServeCost's single square root
// per request to the per-server definition bit for bit: Σ_v min_j Dist.
func TestNearestServeCostIsMinDist(t *testing.T) {
	r := xrand.New(5)
	for iter := 0; iter < 300; iter++ {
		dim := 1 + r.IntN(3)
		scale := math.Pow(10, r.Range(-6, 6))
		mk := func(n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				p := make(geom.Point, dim)
				for k := range p {
					p[k] = r.Range(-scale, scale)
				}
				pts[i] = p
			}
			return pts
		}
		pos, reqs := mk(1+r.IntN(8)), mk(r.IntN(20))
		want := 0.0
		for _, v := range reqs {
			best := math.Inf(1)
			for _, p := range pos {
				best = math.Min(best, geom.Dist(p, v))
			}
			want += best
		}
		if got := NearestServeCost(pos, reqs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NearestServeCost = %v, per-server Dist sum = %v", got, want)
		}
	}
}
