package median

import (
	"math"

	"repro/internal/geom"
)

// ThreePoints returns the exact geometric median (Fermat–Torricelli point)
// of three points in any dimension using the classical construction:
//
//   - if the points are collinear, the middle point is the median;
//   - if one vertex's angle is at least 120°, that vertex is the median;
//   - otherwise the median is the first isogonic center, found by
//     intersecting the lines from two vertices to the apexes of
//     equilateral triangles erected externally on the opposite sides.
//
// For dimensions above 2 the computation happens in the triangle's own
// plane via an orthonormal basis. The result is exact up to floating
// point and serves both as a fast path and as an independent oracle for
// the Weiszfeld iteration. When the two lines are numerically parallel
// (a tiny triangle) it falls back to the Weiszfeld iteration.
func ThreePoints(a, b, c geom.Point) geom.Point {
	tri := [3]geom.Point{a, b, c}
	sc := scratchPool.Get().(*scratch)
	p := sc.threePoints(nil, tri[:])
	scratchPool.Put(sc)
	return p
}

// threePoints writes ThreePoints(pts[0], pts[1], pts[2]) into dst, with
// every vector intermediate in scratch buffers.
//
//moblint:hotpath
func (sc *scratch) threePoints(dst geom.Point, pts []geom.Point) geom.Point {
	a, b, c := pts[0], pts[1], pts[2]
	spread := geom.Spread(pts)
	if sc.collinear(pts, 1e-12*(1+spread)) {
		// Middle point along the line through a with direction sc.dir:
		// project and take the median parameter.
		dir := sc.dir
		if dir.NormSq() == 0 {
			return geom.CopyInto(dst, a)
		}
		ta, tb, tc := project(a, a, dir), project(b, a, dir), project(c, a, dir)
		mid := ta + tb + tc - math.Min(ta, math.Min(tb, tc)) - math.Max(ta, math.Max(tb, tc))
		return sc.lineAt(dst, a, mid)
	}
	// 120° rule: the dot product test (u·v ≤ −|u||v|/2) detects an angle
	// of at least 120° at the shared vertex.
	if wideAngle(a, b, c) {
		return geom.CopyInto(dst, a)
	}
	if wideAngle(b, a, c) {
		return geom.CopyInto(dst, b)
	}
	if wideAngle(c, a, b) {
		return geom.CopyInto(dst, c)
	}
	// Work in the triangle's plane: orthonormal basis (e1, e2) at a.
	d := a.Dim()
	sc.ab, sc.ac = resizePoint(sc.ab, d), resizePoint(sc.ac, d)
	sc.e1, sc.e2 = resizePoint(sc.e1, d), resizePoint(sc.e2, d)
	ab, ac, e1, e2 := sc.ab, sc.ac, sc.e1, sc.e2
	for k := range ab {
		ab[k] = b[k] - a[k]
		ac[k] = c[k] - a[k]
	}
	unitInto(e1, ab)
	// e2 = unit(ac - (ac·e1)·e1), built in e2 itself.
	acE1 := ac.Dot(e1)
	for k := range e2 {
		e2[k] = ac[k] - acE1*e1[k]
	}
	unitInto(e2, e2)
	// 2-D coordinates.
	ax, ay := 0.0, 0.0
	bx, by := ab.Dot(e1), ab.Dot(e2) // by == 0 by construction
	cx, cy := ac.Dot(e1), ac.Dot(e2)

	apexBC := apex2D(bx, by, cx, cy, ax, ay)
	apexAC := apex2D(ax, ay, cx, cy, bx, by)
	// Intersect line a→apexBC with line b→apexAC.
	px, py, ok := intersect2D(ax, ay, apexBC[0], apexBC[1], bx, by, apexAC[0], apexAC[1])
	if !ok {
		// Numerically degenerate: solve by iteration instead.
		return sc.weiszfeld(dst, pts, Options{}.withDefaults(), spread)
	}
	dst = resizePoint(dst, d)
	for k := range dst {
		dst[k] = a[k] + px*e1[k] + py*e2[k]
	}
	return dst
}

// project returns the parameter t of p's projection onto the line through
// origin with direction dir (geom.Line.Project's arithmetic).
func project(p, origin, dir geom.Point) float64 {
	t := 0.0
	for k := range p {
		t += (p[k] - origin[k]) * dir[k]
	}
	return t
}

// unitInto writes v.Unit() into dst (which may alias v) with Unit's
// arithmetic.
func unitInto(dst, v geom.Point) {
	n := v.Norm()
	if n == 0 {
		panic("median: unit of zero vector")
	}
	inv := 1 / n
	for k := range dst {
		dst[k] = inv * v[k]
	}
}

// wideAngle reports whether the angle at v (between u and w) is >= 120°.
func wideAngle(v, u, w geom.Point) bool {
	xy, xx, yy := 0.0, 0.0, 0.0
	for k := range v {
		x, y := u[k]-v[k], w[k]-v[k]
		xy += x * y
		xx += x * x
		yy += y * y
	}
	return xy <= -0.5*math.Sqrt(xx)*math.Sqrt(yy)+1e-15
}

// apex2D returns the apex of the equilateral triangle erected on segment
// (x1,y1)-(x2,y2) on the side opposite to the reference point (rx,ry).
func apex2D(x1, y1, x2, y2, rx, ry float64) [2]float64 {
	mx, my := (x1+x2)/2, (y1+y2)/2
	// Perpendicular to the segment.
	px, py := -(y2 - y1), x2-x1
	h := math.Sqrt(3) / 2
	// Place the apex away from the reference point.
	if (rx-mx)*px+(ry-my)*py > 0 {
		px, py = -px, -py
	}
	return [2]float64{mx + h*px, my + h*py}
}

// intersect2D intersects lines p1→p2 and p3→p4, returning ok=false for
// (near-)parallel lines.
func intersect2D(x1, y1, x2, y2, x3, y3, x4, y4 float64) (float64, float64, bool) {
	d1x, d1y := x2-x1, y2-y1
	d2x, d2y := x4-x3, y4-y3
	den := d1x*d2y - d1y*d2x
	scale := math.Abs(d1x*d2y) + math.Abs(d1y*d2x)
	if math.Abs(den) <= 1e-14*(1+scale) {
		return 0, 0, false
	}
	t := ((x3-x1)*d2y - (y3-y1)*d2x) / den
	return x1 + t*d1x, y1 + t*d1y, true
}
