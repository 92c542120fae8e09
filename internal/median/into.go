package median

import (
	"math"
	"sort"
	"sync"

	"repro/internal/geom"
)

// ClosestInto is Closest writing into dst (grown as needed): the same
// point, computed with every solver intermediate kept in a pooled scratch
// area, so once the pool and dst have grown to the working dimension a
// call allocates nothing on any path — collinear, the 3-point closed form
// and the Weiszfeld iteration alike.
//
//moblint:hotpath
func ClosestInto(dst geom.Point, pts []geom.Point, anchor geom.Point, opts Options) geom.Point {
	if len(pts) == 0 {
		panic("median: ClosestInto on empty point set")
	}
	o := opts.withDefaults()
	if len(pts) == 1 {
		return geom.CopyInto(dst, pts[0])
	}
	spread := geom.Spread(pts)
	if spread == 0 {
		return geom.CopyInto(dst, pts[0])
	}
	sc := scratchPool.Get().(*scratch)
	if sc.collinear(pts, o.CollinearTol*spread) {
		dst = sc.collinearClosest(dst, pts, anchor)
	} else {
		dst = sc.nonCollinear(dst, pts, o, spread)
	}
	scratchPool.Put(sc)
	return dst
}

// nonCollinear writes the unique minimizer of a non-collinear set into
// dst: the closed form for three points, the Weiszfeld iteration for more.
func (sc *scratch) nonCollinear(dst geom.Point, pts []geom.Point, o Options, spread float64) geom.Point {
	if len(pts) == 3 {
		return sc.threePoints(dst, pts)
	}
	return sc.weiszfeld(dst, pts, o, spread)
}

// scratch holds every intermediate the solver needs, pooled so repeated
// ClosestInto calls allocate nothing once the buffers have grown to the
// working dimension.
type scratch struct {
	dir, a, b         geom.Point
	y, next, numer, r geom.Point
	ab, ac, e1, e2    geom.Point
	ts                []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func resizePoint(p geom.Point, d int) geom.Point {
	if cap(p) < d {
		return make(geom.Point, d)
	}
	return p[:d]
}

// collinear mirrors geom.Collinear's arithmetic without allocating. On a
// collinear set it returns true with the supporting line stored as
// (pts[0], sc.dir). When every point's squared distance from pts[0]
// underflows to 0, sc.dir is the zero vector, as geom.Collinear's is for a
// coincident set.
func (sc *scratch) collinear(pts []geom.Point, tol float64) bool {
	d := pts[0].Dim()
	var far geom.Point
	maxD := 0.0
	for _, p := range pts {
		if dd := geom.DistSq(pts[0], p); dd > maxD {
			maxD = dd
			far = p
		}
	}
	sc.dir = resizePoint(sc.dir, d)
	dir := sc.dir
	if maxD == 0 {
		clear(dir)
		return true
	}
	// dir = (far - pts[0]).Unit(), with Sub/NormSq/Scale's exact order.
	o := pts[0]
	normSq := 0.0
	for k := range dir {
		v := far[k] - o[k]
		dir[k] = v
		normSq += v * v
	}
	inv := 1 / math.Sqrt(normSq)
	for k := range dir {
		dir[k] = inv * dir[k]
	}
	if len(pts) <= 2 {
		return true
	}
	for _, p := range pts {
		// line.DistTo(p) with Project/Dist's exact arithmetic.
		t := project(p, o, dir)
		distSq := 0.0
		for k := range p {
			dd := p[k] - (o[k] + t*dir[k])
			distSq += dd * dd
		}
		if math.Sqrt(distSq) > tol {
			return false
		}
	}
	return true
}

// lineAt writes origin + t·sc.dir into dst: with origin = pts[0], the
// point at parameter t on the line sc.collinear stored.
func (sc *scratch) lineAt(dst geom.Point, origin geom.Point, t float64) geom.Point {
	dst = resizePoint(dst, len(origin))
	for k := range dst {
		dst[k] = origin[k] + t*sc.dir[k]
	}
	return dst
}

// middle returns the two middle order statistics of the points'
// parameters along the line sc.collinear stored; the collinear 1-median's
// minimizer set is the segment between them. single reports that it is
// one point: an odd count, or equal middle parameters.
func (sc *scratch) middle(pts []geom.Point) (lo, hi float64, single bool) {
	n := len(pts)
	if cap(sc.ts) < n {
		sc.ts = make([]float64, n)
	}
	ts := sc.ts[:n]
	for i, p := range pts {
		ts[i] = project(p, pts[0], sc.dir)
	}
	sort.Float64s(ts)
	if n%2 == 1 {
		return ts[n/2], ts[n/2], true
	}
	lo, hi = ts[n/2-1], ts[n/2]
	return lo, hi, lo == hi
}

// collinearClosest writes the point of the collinear minimizer set
// closest to anchor into dst.
func (sc *scratch) collinearClosest(dst geom.Point, pts []geom.Point, anchor geom.Point) geom.Point {
	o := pts[0]
	lo, hi, single := sc.middle(pts)
	if single {
		return sc.lineAt(dst, o, lo)
	}
	// Segment [at(lo), at(hi)]; pick its point closest to anchor with
	// geom.Segment.ClosestTo's exact arithmetic.
	sc.a = sc.lineAt(sc.a, o, lo)
	sc.b = sc.lineAt(sc.b, o, hi)
	a, b := sc.a, sc.b
	den := 0.0
	for k := range a {
		v := b[k] - a[k]
		den += v * v
	}
	if den == 0 {
		return geom.CopyInto(dst, a)
	}
	t := 0.0
	for k := range a {
		t += (anchor[k] - a[k]) * (b[k] - a[k])
	}
	t /= den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return geom.LerpInto(dst, a, b, t)
}

// weiszfeld runs the Weiszfeld fixed-point iteration with the Vardi–Zhang
// correction (which handles iterates landing exactly on an input point),
// starting from the centroid, and writes the result into dst. pts are
// guaranteed non-collinear, so the minimizer is unique and the objective
// is strictly convex on the affine hull. Planar inputs run the 2-D kernel;
// every other dimension the generic loop over scratch buffers. Both do the
// same floating-point operations in the same order, so the kernel choice
// never changes a result bit.
//
//moblint:hotpath
func (sc *scratch) weiszfeld(dst geom.Point, pts []geom.Point, o Options, spread float64) geom.Point {
	tol := o.Tol * spread
	snapTol := 1e-14 * spread
	d := pts[0].Dim()
	if d == 2 {
		y0, y1 := weiszfeld2D(pts, o.MaxIter, tol, snapTol)
		dst = resizePoint(dst, 2)
		dst[0], dst[1] = y0, y1
		return dst
	}
	sc.y = resizePoint(sc.y, d)
	sc.next = resizePoint(sc.next, d)
	sc.numer = resizePoint(sc.numer, d)
	sc.r = resizePoint(sc.r, d)
	y, next := sc.y, sc.next

	// Start at the centroid (geom.Centroid's sum-then-scale order).
	clear(y)
	for _, p := range pts {
		for k := range y {
			y[k] += p[k]
		}
	}
	s := 1 / float64(len(pts))
	for k := range y {
		y[k] = s * y[k]
	}

	res := y
	for iter := 0; iter < o.MaxIter; iter++ {
		done := sc.weiszfeldStepInto(next, pts, y, snapTol)
		if done || geom.Dist(y, next) <= tol {
			res = next
			break
		}
		y, next = next, y
		res = y
	}
	// y and next stay two distinct buffers across the swaps; keep both for
	// the next pooled use.
	sc.y, sc.next = y, next
	return geom.CopyInto(dst, res)
}

// weiszfeldStepInto performs one iteration from y, writing the new iterate
// into next; done reports that next is optimal and iteration should stop.
// It is the generic-dimension step; weiszfeldStep2D is the planar one.
//
//moblint:hotpath
func (sc *scratch) weiszfeldStepInto(next geom.Point, pts []geom.Point, y geom.Point, snapTol float64) bool {
	d := len(y)
	numer, r := sc.numer[:d], sc.r[:d]
	clear(numer)
	clear(r)
	denom := 0.0
	// eta counts input points coinciding with y; r accumulates the
	// direction Σ_{v_i != y} (v_i - y)/d_i.
	eta := 0.0
	for _, v := range pts {
		v = v[:d]
		// di = geom.Dist(y, v), inlined.
		s := 0.0
		for k, yk := range y {
			e := yk - v[k]
			s += e * e
		}
		di := math.Sqrt(s)
		if di <= snapTol {
			eta++
			continue
		}
		w := 1 / di
		denom += w
		for k, vk := range v {
			numer[k] += vk * w
			r[k] += (vk - y[k]) * w
		}
	}
	if denom == 0 {
		// All points coincide with y; y is trivially optimal.
		copy(next, y)
		return true
	}
	inv := 1 / denom
	if eta == 0 {
		for k := range next {
			next[k] = inv * numer[k]
		}
		return false
	}
	// Vardi–Zhang: y sits on an input point with multiplicity eta. y is
	// optimal iff ||r|| <= eta; otherwise blend the plain step with y.
	rNorm := 0.0
	for _, rk := range r {
		rNorm += rk * rk
	}
	rNorm = math.Sqrt(rNorm)
	if rNorm <= eta {
		copy(next, y)
		return true
	}
	beta := eta / rNorm
	for k := range next {
		next[k] = (1-beta)*(inv*numer[k]) + beta*y[k]
	}
	return false
}

// weiszfeld2D is the Weiszfeld loop for planar inputs, with the iterate
// held in locals instead of scratch buffers.
//
//moblint:hotpath
func weiszfeld2D(pts []geom.Point, maxIter int, tol, snapTol float64) (float64, float64) {
	y0, y1 := 0.0, 0.0
	for _, p := range pts {
		y0 += p[0]
		y1 += p[1]
	}
	s := 1 / float64(len(pts))
	y0, y1 = s*y0, s*y1
	for iter := 0; iter < maxIter; iter++ {
		n0, n1, done := weiszfeldStep2D(pts, y0, y1, snapTol)
		if done {
			return n0, n1
		}
		// geom.Dist(y, next), inlined.
		e0, e1 := y0-n0, y1-n1
		dd := 0.0
		dd += e0 * e0
		dd += e1 * e1
		if math.Sqrt(dd) <= tol {
			return n0, n1
		}
		y0, y1 = n0, n1
	}
	return y0, y1
}

// weiszfeldStep2D is weiszfeldStepInto for d == 2: the numerator, the
// residual and the denominator live in locals, and each accumulator sees
// the generic step's operations in the generic step's order.
//
//moblint:hotpath
func weiszfeldStep2D(pts []geom.Point, y0, y1, snapTol float64) (float64, float64, bool) {
	numer0, numer1, r0, r1 := 0.0, 0.0, 0.0, 0.0
	denom, eta := 0.0, 0.0
	for _, v := range pts {
		v0, v1 := v[0], v[1]
		e0, e1 := y0-v0, y1-v1
		s := 0.0
		s += e0 * e0
		s += e1 * e1
		di := math.Sqrt(s)
		if di <= snapTol {
			eta++
			continue
		}
		w := 1 / di
		denom += w
		numer0 += v0 * w
		r0 += (v0 - y0) * w
		numer1 += v1 * w
		r1 += (v1 - y1) * w
	}
	if denom == 0 {
		return y0, y1, true
	}
	inv := 1 / denom
	if eta == 0 {
		return inv * numer0, inv * numer1, false
	}
	rNorm := 0.0
	rNorm += r0 * r0
	rNorm += r1 * r1
	rNorm = math.Sqrt(rNorm)
	if rNorm <= eta {
		return y0, y1, true
	}
	beta := eta / rNorm
	return (1-beta)*(inv*numer0) + beta*y0, (1-beta)*(inv*numer1) + beta*y1, false
}
