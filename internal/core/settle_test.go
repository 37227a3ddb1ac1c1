package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cij/internal/check"
	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
	"cij/internal/voronoi"
)

// bruteCells returns the cells voronoi.BruteCell gives pts in domain, the
// cells core.BruteCIJ tests.
func bruteCells(pts []geom.Point, domain geom.Rect) []geom.Polygon {
	cells := voronoi.BruteDiagram(voronoi.MakeSites(pts), domain)
	polys := make([]geom.Polygon, len(cells))
	for i, c := range cells {
		polys[i] = c.Poly
	}
	return polys
}

// treeCells returns the cells the tree engines compute for pts over the
// dataset domain (voronoi.ComputeDiagramBatch on a bulk-loaded R-tree), in
// the tree's Hilbert leaf order.
func treeCells(pts []geom.Point) []geom.Polygon {
	buf := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 0)
	var polys []geom.Polygon
	voronoi.ComputeDiagramBatch(rtree.BulkLoadPoints(buf, pts, dataset.Domain, 1), dataset.Domain, func(c voronoi.Cell) {
		polys = append(polys, c.Poly)
	})
	return polys
}

// overlapping returns every pair of a cell of ps and a cell of qs whose
// MBRs overlap: the pairs a join tests.
func overlapping(ps, qs []geom.Polygon) [][2]geom.Polygon {
	qb := make([]geom.Rect, len(qs))
	for j, q := range qs {
		qb[j] = q.Bounds()
	}
	var pairs [][2]geom.Polygon
	for _, p := range ps {
		pb := p.Bounds()
		for j, q := range qs {
			if pb.Intersects(qb[j]) {
				pairs = append(pairs, [2]geom.Polygon{p, q})
			}
		}
	}
	return pairs
}

// clipJoins is the verdict core.Settle must reproduce: the clip's.
func clipJoins(cl *geom.Clipper, a, b geom.Polygon) bool {
	return cl.Intersect(a, b).Area() > core.JoinAreaEps
}

// settleAgrees holds core.Settle to the clip on every pair, in both call
// orders, and returns how many of the 2·len(pairs) tests it decided.
func settleAgrees(t testing.TB, name string, pairs [][2]geom.Polygon) (decided int) {
	t.Helper()
	var cl geom.Clipper
	for _, pr := range pairs {
		for _, ab := range [2][2]geom.Polygon{pr, {pr[1], pr[0]}} {
			a, b := ab[0], ab[1]
			if a.IsEmpty() || b.IsEmpty() {
				continue
			}
			join, ok := core.Settle(a, b)
			if !ok {
				continue
			}
			decided++
			if want := clipJoins(&cl, a, b); join != want {
				t.Fatalf("%s: Settle(%v, %v) = %v, the clip says %v (area %g)",
					name, a, b, join, want, cl.Intersect(a, b).Area())
			}
		}
	}
	return decided
}

// twinBlock returns the 3×3 near-twin block of spacing s at (4321, 6789):
// every pair of its sites within geom.Eps.
func twinBlock(s float64) []geom.Point {
	var block []geom.Point
	for i := range 9 {
		block = append(block, geom.Pt(4321+float64(i%3)*s, 6789+float64(i/3)*s))
	}
	return block
}

// latticePatch returns a side×side lattice of spacing 0.1 with its corner
// at (x0, y0).
func latticePatch(side int, x0, y0 float64) []geom.Point {
	pts := make([]geom.Point, 0, side*side)
	for i := range side * side {
		pts = append(pts, geom.Pt(x0+float64(i%side)*0.1, y0+float64(i/side)*0.1))
	}
	return pts
}

func translated(pts []geom.Point, dx, dy float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Pt(p.X+dx, p.Y+dy)
	}
	return out
}

// TestSettleMatchesClip holds the clip-free filter in front of
// core.CellsJoinWith to the clip it stands in for. Every engine and
// core.BruteCIJ share the predicate, so the equivalence suite would see a
// wrong filter verdict only where two engines' float cells differ; here
// every decided verdict on every MBR-overlapping pair of real cells, in
// both call orders, must be the clip's. The inputs are the harness's
// seeds, near-twin blocks beside uniform data, a 0.1-spaced lattice
// against itself (neighbouring cells share corners up to rounding) and
// against its half-shifted copy, and copies of each translated so that
// coordinates reach the filter's bound of ±2^14. A filter that took any
// corner strictly inside the other cell for a join, without the area
// bound, fails on seed 25 and on the lattice against itself.
func TestSettleMatchesClip(t *testing.T) {
	type join struct {
		name string
		p, q []geom.Point
	}
	var joins []join
	for seed := int64(1); seed <= check.NumSeeds; seed++ {
		ps := check.Generate(seed)
		joins = append(joins, join{fmt.Sprint("seed ", seed), ps.P, ps.Q})
	}
	u, v := dataset.Uniform(300, 11), dataset.Uniform(300, 12)
	for _, s := range []float64{1e-9, 3e-8, 4e-8} {
		block := twinBlock(s)
		joins = append(joins,
			join{fmt.Sprint("twins ", s, " in P"), slices.Concat(u, block), v},
			join{fmt.Sprint("twins ", s, " in Q"), v, slices.Concat(u, block)},
			join{fmt.Sprint("twins ", s, " in both"), slices.Concat(u, block), slices.Concat(v, block)})
	}
	lattice := latticePatch(20, 5000, 5000)
	joins = append(joins,
		join{"lattice x lattice", lattice, lattice},
		join{"lattice x shifted", lattice, latticePatch(20, 5000.05, 5000.05)})

	// Translations that put the domain's far corner on +2^14 and its near
	// corner on −2^14.
	shifts := [][2]float64{{0, 0}, {1<<14 - 10000, 1<<14 - 10000}, {-1 << 14, -1 << 14}}
	for _, j := range joins {
		for _, d := range shifts {
			domain := geom.NewRect(d[0], d[1], 10000+d[0], 10000+d[1])
			p, q := translated(j.p, d[0], d[1]), translated(j.q, d[0], d[1])
			settleAgrees(t, fmt.Sprint(j.name, " shifted by ", d[0]), overlapping(bruteCells(p, domain), bruteCells(q, domain)))
		}
	}
}

// TestSettleDecidesMost: on the benchmark's three data shapes the filter
// decides at least 90% of the join's tests without clipping, so that the
// fast path cannot vanish unnoticed. The cells are the tree engines'.
func TestSettleDecidesMost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		name string
		gen  func() []geom.Point
	}{
		{"uniform", func() []geom.Point { return dataset.Uniform(2000, rng.Int63()) }},
		{"city", func() []geom.Point { return cityPoints(rng, 2000) }},
		{"clustered", func() []geom.Point { return clusteredPoints(rng, 2000) }},
	}
	for _, s := range shapes {
		pairs := overlapping(treeCells(s.gen()), treeCells(s.gen()))
		decided := settleAgrees(t, s.name, pairs)
		share := float64(decided) / float64(2*len(pairs))
		t.Logf("%s: %d pairs, %.1f%% of tests decided", s.name, len(pairs), 100*share)
		if share < 0.9 {
			t.Errorf("%s: the filter decided %.1f%% of %d tests, want at least 90%%", s.name, 100*share, 2*len(pairs))
		}
	}
}

// cityPoints draws the benchmark's city shape: 10% of the points uniform,
// 90% from N((3700, 6300), 100²).
func cityPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	for range n / 10 {
		pts = append(pts, geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
	}
	for len(pts) < n {
		pts = append(pts, gaussian(rng, geom.Pt(3700, 6300), 100))
	}
	return pts
}

// clusteredPoints draws the benchmark's clustered shape: 20 equally
// weighted clusters (σ = 250) on a staggered 5×4 lattice.
func clusteredPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		k := i % 20
		pts[i] = gaussian(rng, geom.Pt(1000+2000*float64(k%5)+500*float64(k/5%2), 1250+2500*float64(k/5)), 250)
	}
	return pts
}

func gaussian(rng *rand.Rand, c geom.Point, sigma float64) geom.Point {
	return geom.Pt(geom.Clamp(c.X+rng.NormFloat64()*sigma, 0, 10000), geom.Clamp(c.Y+rng.NormFloat64()*sigma, 0, 10000))
}

// FuzzCellsJoin holds every verdict the filter decides to the clip's, in
// both call orders, on the voronoi.BruteCell cells of two small pointsets
// decoded from the input. The first byte picks where the sets lie (the
// middle of the domain, or translated to the coordinate bound of +2^14 or
// −2^14) and how many of the points go to P (the rest go to Q); then two
// bytes make each point, at most 24: one picks a node of a 16×16 lattice
// of spacing 10, the next an offset per axis (mostly none, else an ulp,
// 1e-9, 4e-8 or half a spacing), so shared sites, collinear runs,
// cocircular quadruples and near-twins are the norm. Every go test
// replays the seeds below and testdata/fuzz/FuzzCellsJoin.
func FuzzCellsJoin(f *testing.F) {
	f.Add([]byte{0x03, 0x00, 0, 0x01, 0, 0x10, 0, 0x11, 0, 0x00, 0x3f, 0x01, 0x3f, 0x10, 0x3f, 0x11, 0x3f}) // a square and its half-shifted copy
	f.Add([]byte{0x42, 0x00, 0, 0x11, 0, 0x22, 0, 0x00, 0, 0x11, 0x04, 0x22, 0x20})                         // a diagonal run, shared and ulp-moved, at +2^14
	f.Add([]byte{0x82, 0x55, 0, 0x55, 0x2d, 0x56, 0, 0x55, 0x36, 0x65, 0, 0x66, 0})                         // near-twins on both sides at −2^14
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shift := [4]float64{0, 1<<14 - 10000, -1 << 14, 0}[data[0]>>6]
		offsets := [8]float64{0, 0, 0, 0, math.Nextafter(5000+shift, math.Inf(1)) - (5000 + shift), 1e-9, 4e-8, 5}
		var pts []geom.Point
		for rest := data[1:]; len(rest) >= 2 && len(pts) < 24; rest = rest[2:] {
			node, off := rest[0], rest[1]
			pts = append(pts, geom.Pt(
				shift+5000+10*float64(node&15)+offsets[off&7],
				shift+5000+10*float64(node>>4)+offsets[off>>3&7]))
		}
		np := min(1+int(data[0]&15), len(pts))
		if np == len(pts) {
			return
		}
		domain := geom.NewRect(shift, shift, shift+10000, shift+10000)
		settleAgrees(t, "fuzz", overlapping(bruteCells(pts[:np], domain), bruteCells(pts[np:], domain)))
	})
}

// BenchmarkCellsJoin times the join predicate on the MBR-overlapping cell
// pairs of two uniform 2k diagrams: "clip" is the bare clip expression
// the predicate falls back to, "predicate" core.CellsJoinWith with its
// filter in front. Both report ns per pair; the predicate also reports
// the share of pairs that still clipped.
func BenchmarkCellsJoin(b *testing.B) {
	pairs := overlapping(treeCells(dataset.Uniform(2000, 1)), treeCells(dataset.Uniform(2000, 2)))
	var cl geom.Clipper
	b.Run("clip", func(b *testing.B) {
		for range b.N {
			for _, pr := range pairs {
				clipJoins(&cl, pr[0], pr[1])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
	})
	b.Run("predicate", func(b *testing.B) {
		for range b.N {
			for _, pr := range pairs {
				core.CellsJoinWith(&cl, pr[0], pr[1])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
		clipped := 0
		for _, pr := range pairs {
			if _, ok := core.Settle(pr[0], pr[1]); !ok {
				clipped++
			}
		}
		b.ReportMetric(float64(clipped)/float64(len(pairs)), "clipped/pair")
	})
}
