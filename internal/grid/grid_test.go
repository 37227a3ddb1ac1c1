package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
	"cij/internal/geom"
)

// requireMatchesBrute computes the grid join and the brute-force oracle
// on the same inputs and fails the test unless the pair sets agree.
func requireMatchesBrute(t *testing.T, name string, p, q []geom.Point, opts Options) {
	t.Helper()
	requireSamePairs(t, name, Join(p, q, dataset.Domain, opts).Pairs, core.BruteCIJ(p, q, dataset.Domain))
}

func requireSamePairs(t *testing.T, name string, got, want []core.Pair) {
	t.Helper()
	if !core.SamePairs(got, want) {
		t.Fatalf("%s: grid=%d pairs, want %d\nmissing=%v\nextra=%v",
			name, len(got), len(want), core.DiffPairs(want, got), core.DiffPairs(got, want))
	}
}

func TestJoinMatchesBruteUniform(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 150, 600} {
		p := dataset.Uniform(n, int64(n))
		q := dataset.Uniform(n, int64(n)+1000)
		requireMatchesBrute(t, "uniform", p, q, DefaultOptions())
	}
}

func TestJoinMatchesBruteClustered(t *testing.T) {
	p := dataset.Clustered(400, 7, 11)
	q := dataset.Clustered(500, 5, 12)
	requireMatchesBrute(t, "clustered", p, q, DefaultOptions())
}

func TestJoinAsymmetricCardinalities(t *testing.T) {
	p := dataset.Uniform(800, 21)
	q := dataset.Uniform(50, 22)
	requireMatchesBrute(t, "800x50", p, q, DefaultOptions())
	requireMatchesBrute(t, "50x800", q, p, DefaultOptions())
}

func TestJoinEmptyInputs(t *testing.T) {
	p := dataset.Uniform(10, 1)
	if res := Join(nil, p, dataset.Domain, DefaultOptions()); len(res.Pairs) != 0 {
		t.Fatalf("empty P joined %d pairs", len(res.Pairs))
	}
	if res := Join(p, nil, dataset.Domain, DefaultOptions()); len(res.Pairs) != 0 {
		t.Fatalf("empty Q joined %d pairs", len(res.Pairs))
	}
}

func TestDuplicateAndCollinearPoints(t *testing.T) {
	p := dataset.Uniform(60, 77)
	p = append(p, p[:10]...) // exact duplicates within the set
	var q []geom.Point
	for i := 0; i < 40; i++ { // collinear run straight across the domain
		q = append(q, geom.Pt(250*float64(i)+100, 5000))
	}
	q = append(q, p[5]) // duplicate across sets
	requireMatchesBrute(t, "dups+collinear", p, q, DefaultOptions())
}

// TestUnusualCoordinates covers inputs the service's normalization can
// still produce and the API accepts: coordinates so small that the
// predicates' float filters would underflow (those calls evaluate
// exactly), P sites outside the domain, and near-twins. The cell of P
// site 0 lies far from the Q site nearest to it, so its flood must start
// from a point of the clipped cell, not from the site. Near-twins are
// distinct sites within geom.Eps of each other, which voronoi.BruteCell
// gives one shared cell: the centre of the ulp cross has only its four
// twins as Delaunay neighbours, and a cluster's cells overlap, so the
// flood must reach twins that no cell of the partition leads to.
func TestUnusualCoordinates(t *testing.T) {
	tiny := append(dataset.Uniform(40, 5), geom.Pt(0, 0), geom.Pt(0x1p-1000, 0), geom.Pt(0x1p-1074, 0x1p-1074))
	requireMatchesBrute(t, "tiny", tiny, dataset.Uniform(40, 6), DefaultOptions())
	outside := []geom.Point{geom.Pt(1240, -2176), geom.Pt(6828, 11842), geom.Pt(298, 391), geom.Pt(6916, 10795)}
	requireMatchesBrute(t, "outside", outside, dataset.Uniform(40, 2), DefaultOptions())

	ulp := math.Nextafter(5000, 6000) - 5000
	twins := [][]geom.Point{
		{geom.Pt(5000, 5000), geom.Pt(5000+ulp, 5000), geom.Pt(5000-ulp, 5000), geom.Pt(5000, 5000+ulp), geom.Pt(5000, 5000-ulp)},
		{geom.Pt(0, 0), geom.Pt(0x1p-600, 0), geom.Pt(0, 0x1p-600), geom.Pt(0x1p-600, 0x1p-600), geom.Pt(0x1p-601, 0x1p-601)},
	}
	for _, s := range []float64{1e-9, 3e-8, 4e-8} { // every pair of the 3×3 block within Eps
		var block []geom.Point
		for i := range 9 {
			block = append(block, geom.Pt(4321+float64(i%3)*s, 6789+float64(i/3)*s))
		}
		twins = append(twins, block)
	}
	u, v := dataset.Uniform(300, 11), dataset.Uniform(300, 12)
	for i, pts := range twins {
		name := fmt.Sprintf("twin family %d", i)
		requireMatchesBrute(t, name+" in P", slices.Concat(u, pts), v, DefaultOptions())
		requireMatchesBrute(t, name+" in Q", v, slices.Concat(u, pts), DefaultOptions())
		requireMatchesBrute(t, name+" in both", slices.Concat(u, pts), slices.Concat(v, pts), DefaultOptions())
	}
}

// lattice returns the 0.1-spaced 5,000-point lattice (50 columns, 100
// rows) with its corner at (x0, y0): every site ties with its lattice
// neighbours, and every cell is a 0.1-wide square or a strip to the
// domain's edge.
func lattice(x0, y0 float64) []geom.Point {
	pts := make([]geom.Point, 5000)
	for i := range pts {
		pts[i] = geom.Pt(x0+float64(i%50)*0.1, y0+float64(i/50)*0.1)
	}
	return pts
}

// TestLatticeStress joins uniform data with the lattice, the lattice with
// itself and with itself shifted by half a spacing, and holds each to
// NM-CIJ on flat trees: nearly every incircle test on a lattice falls to
// the exact predicate, and the shifted copy puts a P site on a corner of
// Q cells. (Uniform data takes the P side because NM-CIJ with the
// lattice's long edge strips as P cells runs six times longer.)
func TestLatticeStress(t *testing.T) {
	grid := lattice(5000, 5000)
	cases := []struct {
		name string
		p, q []geom.Point
	}{
		{"uniform x lattice", dataset.Uniform(5000, 93), grid},
		{"lattice x lattice", grid, grid},
		{"lattice x shifted", grid, lattice(5000.05, 5000.05)},
	}
	for _, tc := range cases {
		env := exp.BuildEnv(tc.p, tc.q, exp.DefaultPageSize, exp.DefaultBufferPct)
		rp, rq := env.Flat()
		want := core.NMCIJ(rp, rq, exp.Domain, core.DefaultOptions()).Pairs
		requireSamePairs(t, tc.name, Join(tc.p, tc.q, dataset.Domain, DefaultOptions()).Pairs, want)
	}
}

func TestSkewEstimate(t *testing.T) {
	uni := SkewEstimate(dataset.Uniform(20000, 9), dataset.Domain)
	if uni > 1.5 {
		t.Fatalf("uniform skew estimate %.2f, want ~1", uni)
	}
	clu := SkewEstimate(dataset.Clustered(20000, 12, 9), dataset.Domain)
	if clu < 3 {
		t.Fatalf("clustered skew estimate %.2f, want >> 1", clu)
	}
	if got := SkewEstimate(nil, dataset.Domain); got != 0 {
		t.Fatalf("empty skew = %v, want 0", got)
	}
}

// pointMass draws n points from N((5000, 5000), 20²). The point-mass
// benchmark pins that the join's cost does not grow with density.
func pointMass(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(5000+20*rng.NormFloat64(), 5000+20*rng.NormFloat64())
	}
	return pts
}

func BenchmarkGridJoinPointMass(b *testing.B) {
	p, q := pointMass(20000, 1), pointMass(20000, 2)
	b.ReportAllocs()
	for b.Loop() {
		Join(p, q, dataset.Domain, Options{})
	}
}

func BenchmarkGridJoinUniform(b *testing.B) {
	p := dataset.Uniform(20000, 1)
	q := dataset.Uniform(20000, 2)
	opts := Options{} // count only
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(p, q, dataset.Domain, opts)
	}
}
