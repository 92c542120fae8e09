package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// randPoint draws a point in [-scale, scale]^d.
func randPoint(r *xrand.Rand, d int, scale float64) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = r.Range(-scale, scale)
	}
	return p
}

// TestMetricAxioms verifies symmetry, identity, and the triangle
// inequality of Dist on random triples in dimensions 1..4.
func TestMetricAxioms(t *testing.T) {
	r := xrand.New(101)
	for iter := 0; iter < 5000; iter++ {
		d := 1 + r.IntN(4)
		a, b, c := randPoint(r, d, 100), randPoint(r, d, 100), randPoint(r, d, 100)
		if Dist(a, a) != 0 {
			t.Fatalf("Dist(a,a) = %v", Dist(a, a))
		}
		if Dist(a, b) != Dist(b, a) {
			t.Fatalf("asymmetric: %v vs %v", Dist(a, b), Dist(b, a))
		}
		lhs := Dist(a, c)
		rhs := Dist(a, b) + Dist(b, c)
		if lhs > rhs*(1+1e-12)+1e-12 {
			t.Fatalf("triangle inequality violated: %v > %v", lhs, rhs)
		}
	}
}

// TestMoveTowardRespectsStep: the resulting displacement never exceeds the
// step and the result lies on the segment [p, target].
func TestMoveTowardRespectsStep(t *testing.T) {
	r := xrand.New(102)
	for iter := 0; iter < 5000; iter++ {
		d := 1 + r.IntN(3)
		p := randPoint(r, d, 50)
		q := randPoint(r, d, 50)
		step := r.Range(0, 30)
		got := MoveToward(p, q, step)
		moved := Dist(p, got)
		if moved > step*(1+1e-12)+1e-12 {
			t.Fatalf("moved %v > step %v", moved, step)
		}
		seg := NewSegment(p, q)
		if seg.DistTo(got) > 1e-9*(1+Dist(p, q)) {
			t.Fatalf("result %v off segment [%v,%v]", got, p, q)
		}
	}
}

// TestMoveTowardReducesDistance: moving toward the target never increases
// distance to it.
func TestMoveTowardReducesDistance(t *testing.T) {
	r := xrand.New(103)
	for iter := 0; iter < 5000; iter++ {
		d := 1 + r.IntN(3)
		p := randPoint(r, d, 50)
		q := randPoint(r, d, 50)
		step := r.Range(0, 200)
		got := MoveToward(p, q, step)
		before := Dist(p, q)
		after := Dist(got, q)
		if after > before*(1+1e-12)+1e-12 {
			t.Fatalf("distance grew: %v -> %v", before, after)
		}
		// Exactly min(step, before) of progress is made.
		want := math.Max(before-step, 0)
		if math.Abs(after-want) > 1e-9*(1+before) {
			t.Fatalf("progress wrong: after=%v want=%v", after, want)
		}
	}
}

// TestLerpDistProportional: Dist(p, Lerp(p,q,t)) == t·Dist(p,q) for t in [0,1].
func TestLerpDistProportional(t *testing.T) {
	r := xrand.New(104)
	for iter := 0; iter < 3000; iter++ {
		d := 1 + r.IntN(3)
		p := randPoint(r, d, 50)
		q := randPoint(r, d, 50)
		tt := r.Float64()
		got := Dist(p, Lerp(p, q, tt))
		want := tt * Dist(p, q)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("Lerp distance %v want %v", got, want)
		}
	}
}

// TestSegmentClosestToIsClosest: the returned point beats random points of
// the segment.
func TestSegmentClosestToIsClosest(t *testing.T) {
	r := xrand.New(105)
	for iter := 0; iter < 2000; iter++ {
		d := 1 + r.IntN(3)
		s := NewSegment(randPoint(r, d, 20), randPoint(r, d, 20))
		p := randPoint(r, d, 40)
		best, _ := s.ClosestTo(p)
		bd := Dist(p, best)
		for k := 0; k < 10; k++ {
			alt := s.At(r.Float64())
			if Dist(p, alt) < bd-1e-9 {
				t.Fatalf("ClosestTo not optimal: %v vs %v", bd, Dist(p, alt))
			}
		}
	}
}

// TestProjectOrthogonal: the residual p - proj is orthogonal to the line
// direction.
func TestProjectOrthogonal(t *testing.T) {
	r := xrand.New(106)
	for iter := 0; iter < 2000; iter++ {
		d := 2 + r.IntN(2)
		a := randPoint(r, d, 20)
		b := randPoint(r, d, 20)
		if Dist(a, b) < 1e-6 {
			continue
		}
		l := NewLine(a, b)
		p := randPoint(r, d, 40)
		proj, _ := l.Project(p)
		if dot := p.Sub(proj).Dot(l.Dir); math.Abs(dot) > 1e-8 {
			t.Fatalf("projection residual not orthogonal: dot=%v", dot)
		}
	}
}

// TestCentroidMinimizesSumSq uses testing/quick: the centroid minimizes the
// sum of squared distances against random perturbations.
func TestCentroidMinimizesSumSq(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.IntN(8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPoint(r, 2, 10)
		}
		c := Centroid(pts)
		sumSq := func(q Point) float64 {
			s := 0.0
			for _, p := range pts {
				s += DistSq(q, p)
			}
			return s
		}
		base := sumSq(c)
		for k := 0; k < 8; k++ {
			perturbed := c.Add(randPoint(r, 2, 1))
			if sumSq(perturbed) < base-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundsContainAll via testing/quick.
func TestBoundsContainAll(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.IntN(20)
		d := 1 + r.IntN(3)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPoint(r, d, 1000)
		}
		b := Bounds(pts)
		for _, p := range pts {
			if !b.Contains(p, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSpreadVsBounds: diameter is at least the largest box side and at most
// the box diagonal.
func TestSpreadVsBounds(t *testing.T) {
	r := xrand.New(107)
	for iter := 0; iter < 1000; iter++ {
		n := 2 + r.IntN(10)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPoint(r, 2, 100)
		}
		sp := Spread(pts)
		b := Bounds(pts)
		if sp > b.Diagonal()*(1+1e-12) {
			t.Fatalf("spread %v exceeds diagonal %v", sp, b.Diagonal())
		}
		side := math.Max(b.Max[0]-b.Min[0], b.Max[1]-b.Min[1])
		if sp < side*(1-1e-12) {
			t.Fatalf("spread %v below max side %v", sp, side)
		}
	}
}

// TestSpreadIsMaxPairwiseDist pins Spread's single square root to the
// per-pair definition bit for bit: the largest Dist over all pairs.
func TestSpreadIsMaxPairwiseDist(t *testing.T) {
	r := xrand.New(109)
	for iter := 0; iter < 1000; iter++ {
		n := 1 + r.IntN(12)
		dim := 1 + r.IntN(4)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPoint(r, dim, math.Pow(10, r.Range(-9, 9)))
		}
		want := 0.0
		for i := range pts {
			for j := i + 1; j < n; j++ {
				want = math.Max(want, Dist(pts[i], pts[j]))
			}
		}
		if got := Spread(pts); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Spread = %v, max pairwise Dist = %v", got, want)
		}
	}
}

// TestSpreadPanicsOnMixedDims: a planar point next to a 3-D one is a
// dimension mismatch whichever comes first.
func TestSpreadPanicsOnMixedDims(t *testing.T) {
	for _, pts := range [][]Point{
		{NewPoint(0, 0), NewPoint(1, 2, 3)},
		{NewPoint(1, 2, 3), NewPoint(0, 0)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Spread(%v) did not panic", pts)
				}
			}()
			Spread(pts)
		}()
	}
}
