// Package median computes the geometric median (1-median, Fermat–Weber
// point) of a finite point set in ℝ^d — the point c minimizing
// Σ_i d(c, v_i) — which is the target point of the paper's Move-to-Center
// algorithm.
//
// For point sets that are not collinear the minimizer is unique: three
// points take the exact Fermat–Torricelli construction (ThreePoints), more
// take the Weiszfeld iteration with the Vardi–Zhang correction (which
// handles iterates landing exactly on an input point). For collinear sets
// (including all 1-D inputs) the minimizer set is computed exactly: it is a
// single point for an odd number of points and a closed segment between the
// two middle order statistics for an even number. The paper's tie-break —
// "if c is not unique, pick the one minimizing d(P_Alg, c)" — is provided
// by Closest.
package median

import (
	"repro/internal/geom"
)

// Options controls the iterative solver. The zero value selects defaults.
type Options struct {
	// Tol is the convergence tolerance on iterate movement, relative to the
	// spread of the input. Default 1e-12.
	Tol float64
	// MaxIter bounds the Weiszfeld iterations. Default 10000.
	MaxIter int
	// CollinearTol is the absolute tolerance used to classify a point set
	// as collinear, relative to its spread. Default 1e-10.
	CollinearTol float64
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10000
	}
	if o.CollinearTol <= 0 {
		o.CollinearTol = 1e-10
	}
	return o
}

// Set describes the full minimizer set of the 1-median objective. For
// non-collinear inputs it is a single point (Unique == true and the
// degenerate segment A == B). For collinear inputs with an even count it
// may be a proper segment.
type Set struct {
	// Seg spans the minimizer set; for a unique minimizer Seg.A == Seg.B.
	Seg geom.Segment
	// Unique reports whether the minimizer is a single point.
	Unique bool
}

// Solve returns the minimizer set of Σ d(c, v_i). It panics on an empty
// input or mixed dimensions.
func Solve(pts []geom.Point, opts Options) Set {
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
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if sc.collinear(pts, o.CollinearTol*spread) {
		lo, hi, single := sc.middle(pts)
		a := sc.lineAt(nil, pts[0], lo)
		if single {
			return Set{Seg: geom.NewSegment(a, a), Unique: true}
		}
		return Set{Seg: geom.NewSegment(a, sc.lineAt(nil, pts[0], hi)), Unique: false}
	}
	c := sc.nonCollinear(nil, pts, o, spread)
	return Set{Seg: geom.NewSegment(c, c), Unique: true}
}

// Closest returns the point of the minimizer set closest to anchor — the
// paper's tie-break rule for the Move-to-Center algorithm.
func Closest(pts []geom.Point, anchor geom.Point, opts Options) geom.Point {
	return ClosestInto(nil, pts, anchor, opts)
}

// Point returns an arbitrary minimizer (the midpoint of the minimizer set
// when it is a segment).
func Point(pts []geom.Point, opts Options) geom.Point {
	set := Solve(pts, opts)
	if set.Unique {
		return set.Seg.A
	}
	return set.Seg.At(0.5)
}

// Cost returns Σ d(c, v_i) for the given center.
func Cost(c geom.Point, pts []geom.Point) float64 { return geom.SumDist(c, pts) }
