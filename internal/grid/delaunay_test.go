package grid_test

import (
	"fmt"
	"math"
	"testing"

	"cij/internal/check"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/grid"
)

// requireDelaunay checks the structure of pts' triangulation without any
// brute force: every distinct point is exactly one real vertex and every
// input maps to the vertex at its coordinates; twins pair up with
// reversed endpoints and only the frame's four outer edges lack one;
// every triangle is counter-clockwise and every interior edge locally
// Delaunay, both by exact signs; and the Delaunay graph is symmetric.
// The signs come from the filtered predicates, which FuzzPredicates holds
// to math/big.
func requireDelaunay(t *testing.T, name string, pts []geom.Point) {
	t.Helper()
	tr := grid.Triangulate(pts, dataset.Domain)
	verts, n := tr.Verts(), tr.Real()
	tri, twin := tr.Tri(), tr.Twin()
	orient, incircle := grid.Orient, grid.Incircle
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", name, fmt.Sprintf(format, args...))
	}

	distinct := make(map[geom.Point]bool)
	for _, p := range pts {
		distinct[p] = true
	}
	if n != len(distinct) || len(verts) != n+4 {
		fail("%d real vertices and %d in all, want %d distinct points plus 4 sentinels", n, len(verts), len(distinct))
	}
	seen := make([]bool, len(pts))
	for v := 0; v < n; v++ {
		if !distinct[verts[v]] {
			fail("vertex %d at %v is not an input point (or repeats one)", v, verts[v])
		}
		delete(distinct, verts[v])
		for _, i := range tr.Members(v) {
			if seen[i] || pts[i] != verts[v] {
				fail("input %d at %v merged into vertex %d at %v", i, pts[i], v, verts[v])
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			fail("input %d at %v belongs to no vertex", i, pts[i])
		}
	}

	if want := 3 * (2 + 2*n); len(tri) != want || len(twin) != want {
		fail("%d half-edges, want %d", len(tri), want)
	}
	next := func(e int) int { return e - e%3 + (e+1)%3 }
	prev := func(e int) int { return e - e%3 + (e+2)%3 }
	outer := 0
	for e := range tri {
		f := int(twin[e])
		if f < 0 {
			outer++
			if int(tri[e]) < n || int(tri[next(e)]) < n {
				fail("half-edge %d from a real vertex has no twin", e)
			}
			continue
		}
		if int(twin[f]) != e || tri[e] != tri[next(f)] || tri[next(e)] != tri[f] {
			fail("half-edges %d and %d are not twins", e, f)
		}
		if e < f && incircle(verts[tri[e]], verts[tri[next(e)]], verts[tri[prev(e)]], verts[tri[prev(f)]]) > 0 {
			fail("edge %d–%d is not locally Delaunay", tri[e], tri[f])
		}
	}
	if outer != 4 {
		fail("%d half-edges without a twin, want the frame's 4", outer)
	}
	for e := 0; e < len(tri); e += 3 {
		if orient(verts[tri[e]], verts[tri[e+1]], verts[tri[e+2]]) <= 0 {
			fail("triangle %d is not counter-clockwise", e/3)
		}
	}

	for v := 0; v < n; v++ {
		for _, u := range tr.Neighbors(v) {
			back := false
			for _, w := range tr.Neighbors(int(u)) {
				back = back || int(w) == v
			}
			if !back {
				fail("vertex %d lists neighbour %d, which does not list it", v, u)
			}
		}
	}
}

// TestTriangulationIsDelaunay runs the structural check over both sets of
// the harness's seed matrix and over hand-made degenerate families. Seeds
// 669 and 1075 put points on, and through rounding just inside, the hull
// of a sweep-hull construction, which then skipped them.
func TestTriangulationIsDelaunay(t *testing.T) {
	seeds := []int64{669, 1075}
	for seed := int64(1); seed <= check.NumSeeds; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		ps := check.Generate(seed)
		requireDelaunay(t, fmt.Sprintf("seed %d P", seed), ps.P)
		requireDelaunay(t, fmt.Sprintf("seed %d Q", seed), ps.Q)
	}

	lattice := make([]geom.Point, 5000)
	for i := range lattice {
		lattice[i] = geom.Pt(5000+float64(i%50)*0.1, 5000+float64(i/50)*0.1)
	}
	requireDelaunay(t, "0.1-spaced lattice", lattice)

	d := dataset.Domain
	var sides [4][]geom.Point
	for i := 0; i <= 40; i++ {
		s := float64(i) / 40
		x, y := d.MinX+s*d.Width(), d.MinY+s*d.Height()
		sides[0] = append(sides[0], geom.Pt(x, d.MinY))
		sides[1] = append(sides[1], geom.Pt(d.MaxX, y))
		sides[2] = append(sides[2], geom.Pt(x, d.MaxY))
		sides[3] = append(sides[3], geom.Pt(d.MinX, y))
	}
	for i, side := range sides {
		requireDelaunay(t, fmt.Sprintf("collinear side %d", i), side)
	}
	requireDelaunay(t, "all four sides", append(append(append(sides[0], sides[1]...), sides[2]...), sides[3]...))

	ulp := math.Nextafter(5000, 6000) - 5000
	for _, tiny := range [][]geom.Point{
		{geom.Pt(1, 2)},
		{geom.Pt(1, 2), geom.Pt(1, 2)},
		{geom.Pt(0, 0), geom.Pt(10000, 10000)},
		{geom.Pt(0, 0), geom.Pt(5000, 5000), geom.Pt(10000, 10000)},
		{geom.Pt(3, 4), geom.Pt(9000, 7), geom.Pt(20, 8000)},
		// Differences whose products underflow: evaluated exactly.
		{geom.Pt(0, 0), geom.Pt(0x1p-600, 0), geom.Pt(0, 0x1p-600), geom.Pt(0x1p-600, 0x1p-600), geom.Pt(1, 1)},
		// A site whose only real neighbours are its four one-ulp twins.
		{geom.Pt(5000, 5000), geom.Pt(5000+ulp, 5000), geom.Pt(5000-ulp, 5000), geom.Pt(5000, 5000+ulp), geom.Pt(5000, 5000-ulp), geom.Pt(0, 0), geom.Pt(1e4, 1e4)},
	} {
		requireDelaunay(t, fmt.Sprintf("%d points", len(tiny)), tiny)
	}
}

// FuzzPredicates checks the filtered orient and incircle against their
// exact math/big evaluation for every finite coordinate (NaN and ±Inf are
// not points). The last three seeds leave the range the static bounds
// assume; the middle one fools incircle's bound unless the threshold
// scales with the lifts.
func FuzzPredicates(f *testing.F) {
	nudge := math.Nextafter(0.3, 1)
	for _, s := range [][8]float64{
		{0, 0, 0.1, 0, 0.1, 0.1, 0, 0.1},                               // lattice square: cocircular
		{5000, 5000, 5000.1, 5000, 5000.1, 5000.1, 5000, 5000.1},       // lattice square off the origin
		{0.1, 0.2, 0.2, 0.4, 0.3, 0.6, 0.4, 0.8},                       // collinear, inexact slope
		{0, 0, 10000, 0, 10000, 10000, 0, 10000},                       // the domain's corners
		{0.1, 0.1, 0.2, 0.2, nudge, 0.3, 0, 0.7},                       // one ulp off collinear
		{0, 0, 1, 0, 1, 1, 0, math.Nextafter(1, 2)},                    // one ulp off cocircular
		{-15000, -15000, 25000, -15000, 25000, 25000, 4999.5, 5000.25}, // sentinel frame and a site
		{0x1p-600, 0, 0, 0x1p-600, -0x1p-600, 0x1p-1074, 0, 0},         // products below the subnormals
		{0x1p200, 0, 0x1p-10, 0, 0, 0x1p-1070, 0, 0},                   // an underflow times a 2^400 lift
		{math.MaxFloat64, 1, -math.MaxFloat64, 0, 0, -1, 1, 1},         // differences that overflow
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		a, b, c, d := geom.Pt(ax, ay), geom.Pt(bx, by), geom.Pt(cx, cy), geom.Pt(dx, dy)
		if got, want := grid.Orient(a, b, c), grid.OrientExact(a, b, c); got != want {
			t.Fatalf("orient(%v, %v, %v) = %d, exact %d", a, b, c, got, want)
		}
		if got, want := grid.Incircle(a, b, c, d), grid.IncircleExact(a, b, c, d); got != want {
			t.Fatalf("incircle(%v, %v, %v, %v) = %d, exact %d", a, b, c, d, got, want)
		}
	})
}
