package median

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// requireBitEqual asserts got and want match coordinate for coordinate at
// the float64-bit level — the contract ClosestInto makes with Closest is
// bit-identical arithmetic, not approximate agreement, because a cluster
// mirrors positions across transports and processes by value.
func requireBitEqual(t *testing.T, name string, got, want geom.Point) {
	t.Helper()
	if got.Dim() != want.Dim() {
		t.Fatalf("%s: dim %d != %d", name, got.Dim(), want.Dim())
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: coord %d: %x != %x (%v vs %v)",
				name, k, math.Float64bits(got[k]), math.Float64bits(want[k]), got[k], want[k])
		}
	}
}

// underflowTriple is a set whose squared distances from its first point
// both underflow to 0 while its spread stays positive: the collinearity
// test sees a zero direction there.
var underflowTriple = []geom.Point{{0, 0}, {1e-162, 0}, {-1e-162, 0}}

// tinyTriangle is the equilateral triangle of side 4e-8, small enough
// that the closed form's absolute parallel-line test fires although the
// triangle is far from collinear.
var tinyTriangle = []geom.Point{{0, 0}, {4e-8, 0}, {2e-8, 0.866 * 4e-8}}

// TestClosestIntoMatchesClosest pins ClosestInto and Closest to the frozen
// oracle bitwise across every solver path: single point, coincident set,
// two points, collinear odd and even (both the lo==hi degenerate and the
// segment tie-break), three points collinear, wide-angled and isogonic,
// and the n>3 Weiszfeld loop in 2-D and 3-D.
func TestClosestIntoMatchesClosest(t *testing.T) {
	anchor2 := geom.Point{0.3, -1.7}
	cases := []struct {
		name string
		pts  []geom.Point
	}{
		{"single", []geom.Point{{1.5, 2.5}}},
		{"coincident", []geom.Point{{1, 1}, {1, 1}, {1, 1}}},
		{"two-points", []geom.Point{{0, 0}, {2, 4}}},
		{"collinear-odd", []geom.Point{{0, 0}, {1, 1}, {5, 5}}},
		{"collinear-even-distinct", []geom.Point{{0, 0}, {1, 1}, {3, 3}, {9, 9}}},
		{"collinear-even-tied", []geom.Point{{0, 0}, {2, 2}, {2, 2}, {9, 9}}},
		{"three-noncollinear", []geom.Point{{0, 0}, {4, 0}, {1, 3}}},
		{"three-wide-angle", []geom.Point{{0, 0}, {10, 0.3}, {-10, 0.3}}},
		{"three-underflow", underflowTriple},
		{"weiszfeld", []geom.Point{{0, 0}, {4, 0}, {1, 3}, {-2, 1}, {3, 3}}},
		{"weiszfeld-on-optimal-data-point", []geom.Point{{0, 0}, {6, 1}, {6, -1}, {-3, 3}, {-3, -3}, {-6, 0}}},
		// The centroid is exactly the first input point, which is not
		// optimal: the first step is the Vardi–Zhang blend.
		{"weiszfeld-off-data-point", []geom.Point{{1.5, 2.25}, {11.5, 2.25}, {11.5, 4.25}, {11.5, 0.25}, {-28.5, 2.25}}},
		{"weiszfeld-off-data-point-3d", []geom.Point{{1.5, 2.25, 0.5}, {11.5, 2.25, 1.5}, {11.5, 4.25, -0.5}, {11.5, 0.25, 0.5}, {-28.5, 2.25, 0.5}}},
		{"weiszfeld-3d", []geom.Point{{0, 0, 1}, {4, 0, 0}, {1, 3, 2}, {-2, 1, 0}, {3, 3, -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			anchor := anchor2
			if d := tc.pts[0].Dim(); d != 2 {
				anchor = make(geom.Point, d)
			}
			// Converged, and cut after one and two steps so that each
			// step's own rounding reaches the result.
			for _, opts := range []Options{{}, {MaxIter: 1}, {MaxIter: 2}} {
				want := closestOracle(tc.pts, anchor, opts)
				requireBitEqual(t, tc.name+" Closest", Closest(tc.pts, anchor, opts), want)
				got := ClosestInto(nil, tc.pts, anchor, opts)
				requireBitEqual(t, tc.name, got, want)
				// Repeat through the pool with a reused destination: pooled
				// scratch state from the previous call must not leak in.
				reuse := make(geom.Point, 0, 8)
				for i := 0; i < 3; i++ {
					reuse = ClosestInto(reuse, tc.pts, anchor, opts)
					requireBitEqual(t, tc.name+" reused", reuse, want)
				}
			}
		})
	}
}

// randomSet draws n points in dim dimensions. With probability 1/4 the
// points lie on one line, so the collinear paths get exercised too, and
// with probability 1/4 they sit on a small integer grid, where duplicates
// and iterates landing on input points (the Vardi–Zhang step) are common.
func randomSet(rng *rand.Rand, dim, n int) []geom.Point {
	shape := rng.Intn(4)
	collinear, grid := shape == 0, shape == 1
	dir := make(geom.Point, dim)
	for k := range dir {
		dir[k] = rng.NormFloat64()
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		s := rng.NormFloat64() * 10
		for k := range p {
			switch {
			case collinear:
				p[k] = s * dir[k]
			case grid:
				p[k] = float64(rng.Intn(7) - 3)
			default:
				p[k] = rng.NormFloat64() * 10
			}
		}
		pts[i] = p
	}
	return pts
}

// TestClosestIntoMatchesClosestRandom hammers the equivalence with the
// frozen oracle over random sets of every size 1..12 in 1–4 dimensions —
// ClosestInto, Closest and Solve alike — interleaving calls so the pooled
// scratch is constantly re-entered at different shapes. Half the trials
// stop the iteration after 1–3 steps: a converged iterate forgets the
// rounding of early steps, a truncated one exposes every operation.
func TestClosestIntoMatchesClosestRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dst geom.Point
	for trial := 0; trial < 2000; trial++ {
		dim := 1 + rng.Intn(4)
		pts := randomSet(rng, dim, 1+rng.Intn(12))
		anchor := make(geom.Point, dim)
		for k := range anchor {
			anchor[k] = rng.NormFloat64() * 10
		}
		var opts Options
		if rng.Intn(2) == 0 {
			opts.MaxIter = 1 + rng.Intn(3)
		}
		want := closestOracle(pts, anchor, opts)
		dst = ClosestInto(dst, pts, anchor, opts)
		requireBitEqual(t, "ClosestInto", dst, want)
		requireBitEqual(t, "Closest", Closest(pts, anchor, opts), want)

		got, ref := Solve(pts, opts), solveOracle(pts, opts)
		if got.Unique != ref.Unique {
			t.Fatalf("trial %d: Solve unique %v, oracle %v", trial, got.Unique, ref.Unique)
		}
		requireBitEqual(t, "Solve A", got.Seg.A, ref.Seg.A)
		requireBitEqual(t, "Solve B", got.Seg.B, ref.Seg.B)
	}
}

// TestVardiZhangStepMatchesOracle pins the Vardi–Zhang blend bit for bit.
// Each set's centroid is exactly its first point (the others are random
// multiples of 1/8 and the first is their mean), so the iteration starts
// on an input point; cut after one step, the result is the blend itself.
func TestVardiZhangStepMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	blends := 0
	for trial := 0; trial < 1000; trial++ {
		dim := 2 + rng.Intn(2)
		pts := make([]geom.Point, 5)
		pts[0] = make(geom.Point, dim)
		for i := 1; i < len(pts); i++ {
			p := make(geom.Point, dim)
			for k := range p {
				p[k] = float64(rng.Intn(321)-160) / 8
				pts[0][k] += p[k] / 4
			}
			pts[i] = p
		}
		if !geom.Centroid(pts).Equal(pts[0]) {
			continue
		}
		for _, opts := range []Options{{MaxIter: 1}, {MaxIter: 2}, {}} {
			want := closestOracle(pts, pts[0], opts)
			requireBitEqual(t, fmt.Sprintf("set %v maxIter %d", pts, opts.MaxIter),
				ClosestInto(nil, pts, pts[0], opts), want)
			if opts.MaxIter == 1 && !want.Equal(pts[0]) {
				blends++
			}
		}
	}
	if blends < 100 {
		t.Fatalf("only %d sets reached the blend", blends)
	}
}

// TestClosestIntoConcurrent runs the pooled solver from several
// goroutines at once, as concurrent shard steps do, over sets of every
// path and dimension; each result must still equal the oracle's.
func TestClosestIntoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type job struct {
		pts  []geom.Point
		want geom.Point
	}
	jobs := make([]job, 200)
	for i := range jobs {
		pts := randomSet(rng, 1+rng.Intn(4), 1+rng.Intn(12))
		jobs[i] = job{pts, closestOracle(pts, pts[0], Options{})}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst geom.Point
			for r := 0; r < 5; r++ {
				for i := range jobs {
					j := jobs[(i+g*50)%len(jobs)]
					dst = ClosestInto(dst, j.pts, j.pts[0], Options{})
					if !dst.Equal(j.want) {
						t.Errorf("goroutine %d: ClosestInto(%v) = %v, oracle %v", g, j.pts, dst, j.want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestThreePointsMatchesOracle pins the pooled closed form to the frozen
// allocating one bitwise over random triangles in 1–4 dimensions, plus
// the collinear, coincident, wide-angle and underflow shapes.
func TestThreePointsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := [][]geom.Point{
		{{0, 0}, {5, 5}, {2, 2}},
		{{1, 1}, {1, 1}, {1, 1}},
		{{0, 0}, {10, 0.3}, {-10, 0.3}},
		{{0, 0}, {1, 0}, {math.Cos(2 * math.Pi / 3), math.Sin(2 * math.Pi / 3)}},
		underflowTriple,
	}
	for trial := 0; trial < 500; trial++ {
		sets = append(sets, randomSet(rng, 1+rng.Intn(4), 3))
	}
	for i, pts := range sets {
		want := threePointsOracle(pts[0], pts[1], pts[2])
		got := ThreePoints(pts[0], pts[1], pts[2])
		requireBitEqual(t, fmt.Sprintf("set %d %v", i, pts), got, want)
	}
}

// TestThreePointsTinyTriangle is the regression test for the closed
// form's degenerate fallback: on a tiny non-collinear triangle the
// parallel-line test fires, and the fallback used to re-enter ThreePoints
// through Point until the stack overflowed. It must now run the Weiszfeld
// iteration directly, in ThreePoints and in ClosestInto alike.
func TestThreePointsTinyTriangle(t *testing.T) {
	a, b, c := tinyTriangle[0], tinyTriangle[1], tinyTriangle[2]
	func() {
		defer func() {
			if r := recover(); r != errOracleRecursed {
				t.Fatalf("the oracle did not reach its degenerate fallback (recovered %v)", r)
			}
		}()
		threePointsOracle(a, b, c)
	}()
	want := weiszfeld(tinyTriangle, Options{}.withDefaults(), geom.Spread(tinyTriangle))
	requireBitEqual(t, "ThreePoints", ThreePoints(a, b, c), want)
	requireBitEqual(t, "ClosestInto", ClosestInto(nil, tinyTriangle, a, Options{}), want)
	// And it is a minimizer: no nearby point at a thousandth of the side
	// serves the three points cheaper.
	base := Cost(want, tinyTriangle)
	for _, delta := range []geom.Point{{4e-11, 0}, {-4e-11, 0}, {0, 4e-11}, {0, -4e-11}} {
		if Cost(want.Add(delta), tinyTriangle) < base {
			t.Fatalf("tiny triangle median %v is beaten by %v", want, want.Add(delta))
		}
	}
}

// TestClosestIntoAllocFree pins the pooled-path allocation contract on
// every solver path: after warmup, collinear sets, the 3-point closed form
// (isogonic, wide-angle, collinear and degenerate) and the Weiszfeld loop
// in 2-D and 3-D run at 0 allocs/op.
func TestClosestIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget is not measurable under -race (the race runtime allocates)")
	}
	for _, tc := range []struct {
		name string
		pts  []geom.Point
	}{
		{"collinear", []geom.Point{{0, 0}, {1, 1}, {3, 3}, {9, 9}}},
		{"three-noncollinear", []geom.Point{{0, 0}, {4, 0}, {1, 3}}},
		{"three-wide-angle", []geom.Point{{0, 0}, {10, 0.3}, {-10, 0.3}}},
		{"three-collinear", []geom.Point{{0, 0}, {1, 1}, {5, 5}}},
		{"three-tiny", tinyTriangle},
		{"weiszfeld", []geom.Point{{0, 0}, {4, 0}, {1, 3}, {-2, 1}, {3, 3}}},
		{"weiszfeld-3d", []geom.Point{{0, 0, 1}, {4, 0, 0}, {1, 3, 2}, {-2, 1, 0}, {3, 3, -1}}},
	} {
		anchor := make(geom.Point, tc.pts[0].Dim())
		dst := ClosestInto(nil, tc.pts, anchor, Options{})
		allocs := testing.AllocsPerRun(200, func() {
			dst = ClosestInto(dst, tc.pts, anchor, Options{})
		})
		if allocs != 0 {
			t.Errorf("%s: ClosestInto allocates %v/op, want 0", tc.name, allocs)
		}
	}
}
