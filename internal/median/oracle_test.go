package median

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// The frozen bitwise oracle: the allocating solver exactly as it stood
// before the pooled, kernel-dispatched one replaced it. The production
// solver must reproduce these functions bit for bit on every input they
// terminate on; the tests in into_test.go hold it to that.

// solveOracle is Solve as it stood: geom.Collinear and collinearMedian
// for collinear sets, the allocating closed form and iteration otherwise.
func solveOracle(pts []geom.Point, opts Options) Set {
	if len(pts) == 0 {
		panic("median: Solve on empty point set")
	}
	o := opts.withDefaults()
	if len(pts) == 1 {
		p := pts[0].Clone()
		return Set{Seg: geom.NewSegment(p, p), Unique: true}
	}
	spread := geom.Spread(pts)
	if spread == 0 {
		p := pts[0].Clone()
		return Set{Seg: geom.NewSegment(p, p), Unique: true}
	}
	if line, ok := geom.Collinear(pts, o.CollinearTol*spread); ok {
		return collinearMedian(pts, line)
	}
	if len(pts) == 3 {
		c := threePointsOracle(pts[0], pts[1], pts[2])
		return Set{Seg: geom.NewSegment(c, c), Unique: true}
	}
	c := weiszfeld(pts, o, spread)
	return Set{Seg: geom.NewSegment(c, c), Unique: true}
}

// collinearMedian solves the problem exactly on a line: project all points
// to scalar parameters, take the middle order statistic(s).
func collinearMedian(pts []geom.Point, line geom.Line) Set {
	n := len(pts)
	ts := make([]float64, n)
	for i, p := range pts {
		_, t := line.Project(p)
		ts[i] = t
	}
	sort.Float64s(ts)
	at := func(t float64) geom.Point { return line.Origin.Add(line.Dir.Scale(t)) }
	if n%2 == 1 {
		c := at(ts[n/2])
		return Set{Seg: geom.NewSegment(c, c), Unique: true}
	}
	lo, hi := ts[n/2-1], ts[n/2]
	if lo == hi {
		c := at(lo)
		return Set{Seg: geom.NewSegment(c, c), Unique: true}
	}
	return Set{Seg: geom.NewSegment(at(lo), at(hi)), Unique: false}
}

// closestOracle is Closest over solveOracle.
func closestOracle(pts []geom.Point, anchor geom.Point, opts Options) geom.Point {
	set := solveOracle(pts, opts)
	if set.Unique {
		return set.Seg.A
	}
	c, _ := set.Seg.ClosestTo(anchor)
	return c
}

// weiszfeld runs the Weiszfeld fixed-point iteration with the Vardi–Zhang
// correction. pts are guaranteed non-collinear, so the minimizer is unique
// and the objective is strictly convex on the affine hull.
func weiszfeld(pts []geom.Point, o Options, spread float64) geom.Point {
	y := geom.Centroid(pts)
	tol := o.Tol * spread
	snapTol := 1e-14 * spread

	for iter := 0; iter < o.MaxIter; iter++ {
		next, done := weiszfeldStep(pts, y, snapTol)
		if done {
			return next
		}
		if geom.Dist(y, next) <= tol {
			return next
		}
		y = next
	}
	return y
}

// weiszfeldStep performs one iteration from y. done reports that y (or the
// returned point) is optimal and iteration should stop.
func weiszfeldStep(pts []geom.Point, y geom.Point, snapTol float64) (geom.Point, bool) {
	d := y.Dim()
	numer := geom.Zero(d)
	denom := 0.0
	// eta counts input points coinciding with y; r accumulates the
	// direction Σ_{v_i != y} (v_i - y)/d_i.
	eta := 0.0
	r := geom.Zero(d)
	for _, v := range pts {
		di := geom.Dist(y, v)
		if di <= snapTol {
			eta++
			continue
		}
		w := 1 / di
		denom += w
		for k := 0; k < d; k++ {
			numer[k] += v[k] * w
			r[k] += (v[k] - y[k]) * w
		}
	}
	if denom == 0 {
		// All points coincide with y; y is trivially optimal.
		return y.Clone(), true
	}
	tPlain := numer.Scale(1 / denom)
	if eta == 0 {
		return tPlain, false
	}
	// Vardi–Zhang: y sits on an input point with multiplicity eta. y is
	// optimal iff ||r|| <= eta; otherwise blend the plain step with y.
	rNorm := r.Norm()
	if rNorm <= eta {
		return y.Clone(), true
	}
	beta := eta / rNorm
	next := tPlain.Scale(1 - beta).Add(y.Scale(beta))
	return next, false
}

// errOracleRecursed marks the one input class the oracle has no answer
// for: its numerically-parallel fallback re-entered the closed form
// through Point and recursed until the stack overflowed.
const errOracleRecursed = "threePointsOracle: the fallback would recurse without end"

// threePointsOracle is the allocating closed form (Fermat–Torricelli
// construction), verbatim except that its degenerate fallback panics
// instead of recursing.
func threePointsOracle(a, b, c geom.Point) geom.Point {
	if line, ok := geom.Collinear([]geom.Point{a, b, c}, 1e-12*(1+geom.Spread([]geom.Point{a, b, c}))); ok {
		if line.Dir.NormSq() == 0 {
			return a.Clone()
		}
		_, ta := line.Project(a)
		_, tb := line.Project(b)
		_, tc := line.Project(c)
		mid := ta + tb + tc - math.Min(ta, math.Min(tb, tc)) - math.Max(ta, math.Max(tb, tc))
		return line.Origin.Add(line.Dir.Scale(mid))
	}
	if wideAngleOracle(a, b, c) {
		return a.Clone()
	}
	if wideAngleOracle(b, a, c) {
		return b.Clone()
	}
	if wideAngleOracle(c, a, b) {
		return c.Clone()
	}
	ab := b.Sub(a)
	ac := c.Sub(a)
	e1 := ab.Unit()
	acPerp := ac.Sub(e1.Scale(ac.Dot(e1)))
	e2 := acPerp.Unit()
	ax, ay := 0.0, 0.0
	bx, by := ab.Dot(e1), ab.Dot(e2)
	cx, cy := ac.Dot(e1), ac.Dot(e2)

	apexBC := apex2D(bx, by, cx, cy, ax, ay)
	apexAC := apex2D(ax, ay, cx, cy, bx, by)
	px, py, ok := intersect2D(ax, ay, apexBC[0], apexBC[1], bx, by, apexAC[0], apexAC[1])
	if !ok {
		panic(errOracleRecursed)
	}
	return a.Add(e1.Scale(px)).Add(e2.Scale(py))
}

func wideAngleOracle(v, u, w geom.Point) bool {
	x := u.Sub(v)
	y := w.Sub(v)
	return x.Dot(y) <= -0.5*x.Norm()*y.Norm()+1e-15
}
