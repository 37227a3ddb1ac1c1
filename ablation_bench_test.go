// Ablation benchmarks for two of Section III-C's design choices, one
// bench pair each:
//   - Hilbert-ordered vs plain depth-first leaf visiting in NM-CIJ (the
//     "tuned" traversal is what buys buffer locality);
//   - Hilbert packing vs STR bulk loading of the input trees.
package cij_test

import (
	"math/rand"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
	"cij/internal/rtree"
	"cij/internal/storage"
	"cij/internal/voronoi"
)

func benchNMVisitOrder(b *testing.B, plain bool) {
	// The input trees are STR-loaded: their stored leaf order differs
	// from Hilbert order (Hilbert-packed trees make the two traversals
	// identical, hiding the effect).
	p := dataset.Uniform(benchN, 1)
	q := dataset.Uniform(benchN, 2)
	var pages int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := storage.NewBuffer(storage.NewDisk(exp.DefaultPageSize), 1<<30)
		rp := rtree.BulkLoadPointsSTR(buf, p, 1)
		rq := rtree.BulkLoadPointsSTR(buf, q, 1)
		// Buffer sized to ~the per-batch working set (a 2% buffer at this
		// reduced scale is a degenerate 9 pages; at paper scale 2% ≈ 100).
		buf.SetCapacity((rp.NumPages() + rq.NumPages()) / 10)
		buf.DropAll()
		buf.ResetStats()
		b.StartTimer()
		res := core.NMCIJ(rp, rq, exp.Domain, core.Options{Reuse: true, PlainVisitOrder: plain})
		pages += res.Stats.PageAccesses()
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

func BenchmarkAblation_VisitOrder_Hilbert(b *testing.B) { benchNMVisitOrder(b, false) }
func BenchmarkAblation_VisitOrder_Plain(b *testing.B)   { benchNMVisitOrder(b, true) }

func benchBulkLoadQueries(b *testing.B, str bool) {
	pts := dataset.Uniform(30_000, 5)
	buf := storage.NewBuffer(storage.NewDisk(exp.DefaultPageSize), 64)
	var tree *rtree.Tree
	if str {
		tree = rtree.BulkLoadPointsSTR(buf, pts, 1)
	} else {
		tree = rtree.BulkLoadPoints(buf, pts, exp.Domain, 1)
	}
	rng := rand.New(rand.NewSource(6))
	buf.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := rng.Intn(len(pts))
		voronoi.BFVor(tree, voronoi.Site{ID: int64(idx), Pt: pts[idx]}, exp.Domain)
	}
	b.ReportMetric(float64(buf.Stats().LogicalReads)/float64(b.N), "nodes/op")
}

func BenchmarkAblation_BulkLoad_Hilbert(b *testing.B) { benchBulkLoadQueries(b, false) }
func BenchmarkAblation_BulkLoad_STR(b *testing.B)     { benchBulkLoadQueries(b, true) }
