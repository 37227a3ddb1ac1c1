// Benchmarks: one per table and figure of the paper's evaluation
// (Section V), at scales small enough for `go test -bench=.` to finish in
// minutes. cmd/cijbench runs the same experiments at paper scale. Custom
// metrics report the paper's units (page accesses, false-hit ratio, cell
// computations) alongside ns/op.
package cij_test

import (
	"math/rand"
	"runtime"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
	"cij/internal/parallel"
	"cij/internal/rtree"
	"cij/internal/storage"
	"cij/internal/voronoi"
)

const benchN = 8000 // per-set cardinality for the CIJ benches

func benchEnv(b *testing.B, np, nq int) *exp.Env {
	b.Helper()
	p := dataset.Uniform(np, 1)
	q := dataset.Uniform(nq, 2)
	return exp.BuildEnv(p, q, exp.DefaultPageSize, exp.DefaultBufferPct)
}

// --- Fig. 5: single Voronoi cell computation ---

func BenchmarkFig5_VoronoiCell_BFVor(b *testing.B) {
	pts := dataset.Uniform(50_000, 1)
	buf := storage.NewBuffer(storage.NewDisk(exp.DefaultPageSize), 0)
	tree := rtree.BulkLoadPoints(buf, pts, exp.Domain, 1)
	rng := rand.New(rand.NewSource(7))
	buf.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := rng.Intn(len(pts))
		voronoi.BFVor(tree, voronoi.Site{ID: int64(idx), Pt: pts[idx]}, exp.Domain)
	}
	b.ReportMetric(float64(buf.Stats().LogicalReads)/float64(b.N), "nodes/op")
}

func BenchmarkFig5_VoronoiCell_TPVor(b *testing.B) {
	pts := dataset.Uniform(50_000, 1)
	buf := storage.NewBuffer(storage.NewDisk(exp.DefaultPageSize), 0)
	tree := rtree.BulkLoadPoints(buf, pts, exp.Domain, 1)
	rng := rand.New(rand.NewSource(7))
	buf.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := rng.Intn(len(pts))
		voronoi.TPVor(tree, voronoi.Site{ID: int64(idx), Pt: pts[idx]}, exp.Domain, 1000)
	}
	b.ReportMetric(float64(buf.Stats().LogicalReads)/float64(b.N), "nodes/op")
}

// --- Fig. 6: full diagram computation ---

func benchDiagram(b *testing.B, batch bool) {
	pts := dataset.Uniform(20_000, 3)
	buf := storage.NewBuffer(storage.NewDisk(exp.DefaultPageSize), 1<<20)
	tree := rtree.BulkLoadPoints(buf, pts, exp.Domain, 1)
	buf.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch {
			voronoi.ComputeDiagramBatch(tree, exp.Domain, func(voronoi.Cell) {})
		} else {
			voronoi.ComputeDiagramIter(tree, exp.Domain, func(voronoi.Cell) {})
		}
	}
	b.ReportMetric(float64(buf.Stats().LogicalReads)/float64(b.N), "nodes/op")
}

func BenchmarkFig6_Diagram_ITER(b *testing.B)  { benchDiagram(b, false) }
func BenchmarkFig6_Diagram_BATCH(b *testing.B) { benchDiagram(b, true) }

// --- Table II: BATCH on a clustered (real-like) dataset ---

func BenchmarkTable2_BatchRealLike_PA(b *testing.B) {
	pts, err := dataset.RealLike("PA", 0.2) // ~11.6K points
	if err != nil {
		b.Fatal(err)
	}
	buf := storage.NewBuffer(storage.NewDisk(exp.DefaultPageSize), 1<<20)
	tree := rtree.BulkLoadPoints(buf, pts, exp.Domain, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		voronoi.ComputeDiagramBatch(tree, exp.Domain, func(voronoi.Cell) {})
	}
}

// --- Fig. 7: the three CIJ algorithms (cost breakdown setting) ---

func benchCIJ(b *testing.B, algo func(*exp.Env) core.Result) {
	benchCIJSetup(b, nil, algo)
}

// benchCIJSetup is benchCIJ with an untimed per-iteration setup hook —
// the flat benches freeze the arena trees there, so the measured run is
// the join alone (matching how a server pays the freeze once at ingest,
// not per query).
func benchCIJSetup(b *testing.B, setup func(*exp.Env), algo func(*exp.Env) core.Result) {
	var pages int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := benchEnv(b, benchN, benchN)
		if setup != nil {
			setup(env)
			// Setup allocated arena-scale garbage (the frozen trees'
			// sources); collect it now so the timed join does not pay
			// setup's GC debt.
			runtime.GC()
		}
		b.StartTimer()
		res := algo(env)
		pages += res.Stats.PageAccesses()
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

func BenchmarkFig7_FMCIJ(b *testing.B) {
	benchCIJ(b, func(e *exp.Env) core.Result {
		return core.FMCIJ(e.RP, e.RQ, exp.Domain, core.Options{})
	})
}

func BenchmarkFig7_PMCIJ(b *testing.B) {
	benchCIJ(b, func(e *exp.Env) core.Result {
		return core.PMCIJ(e.RP, e.RQ, exp.Domain, core.Options{})
	})
}

func BenchmarkFig7_NMCIJ(b *testing.B) {
	benchCIJ(b, func(e *exp.Env) core.Result {
		return core.NMCIJ(e.RP, e.RQ, exp.Domain, core.Options{Reuse: true})
	})
}

// BenchmarkFig7_NMCIJ_Flat is the same join on flat (arena) storage: no
// page buffer, no per-read decode. The pages/op metric is structurally 0;
// the ns/op against BenchmarkFig7_NMCIJ is the decode-free speedup.
func BenchmarkFig7_NMCIJ_Flat(b *testing.B) {
	benchCIJSetup(b,
		func(e *exp.Env) { e.Flat() }, // freeze outside the timer
		func(e *exp.Env) core.Result {
			frp, frq := e.Flat()
			return core.NMCIJ(frp, frq, exp.Domain, core.Options{Reuse: true})
		})
}

// --- Fig. 8a: buffer size effect (NM-CIJ at two buffer settings) ---

func benchNMBuffer(b *testing.B, pct float64) {
	var pages int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := benchEnv(b, benchN, benchN)
		env.SetBufferPct(pct)
		env.Reset()
		b.StartTimer()
		res := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.Options{Reuse: true})
		pages += res.Stats.PageAccesses()
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

func BenchmarkFig8a_Buffer0_5pct_NMCIJ(b *testing.B) { benchNMBuffer(b, 0.5) }
func BenchmarkFig8a_Buffer10pct_NMCIJ(b *testing.B)  { benchNMBuffer(b, 10) }

// --- Fig. 8b: scalability (NM-CIJ at two datasizes) ---

func BenchmarkFig8b_Scalability(b *testing.B) {
	for _, n := range []int{4000, 8000} {
		n := n
		b.Run("n="+itoa(n), func(b *testing.B) {
			var pages int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env := benchEnv(b, n, n)
				b.StartTimer()
				res := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.Options{Reuse: true})
				pages += res.Stats.PageAccesses()
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
		})
	}
}

// --- Fig. 9a: cardinality ratio ---

func BenchmarkFig9a_Ratio(b *testing.B) {
	for _, r := range []exp.Ratio{{QPart: 1, PPart: 4}, {QPart: 1, PPart: 1}, {QPart: 4, PPart: 1}} {
		r := r
		b.Run(r.Label(), func(b *testing.B) {
			nq, np := r.Split(2 * benchN)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env := benchEnv(b, np, nq)
				b.StartTimer()
				core.NMCIJ(env.RP, env.RQ, exp.Domain, core.Options{Reuse: true})
			}
		})
	}
}

// --- Fig. 9b: progressive output ---

func BenchmarkFig9b_Progress(b *testing.B) {
	var firstPairIO int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := benchEnv(b, benchN, benchN)
		b.StartTimer()
		res := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.Options{Reuse: true})
		for _, pt := range res.Stats.Progress {
			if pt.Pairs > 0 {
				firstPairIO += pt.PageAccesses
				break
			}
		}
	}
	b.ReportMetric(float64(firstPairIO)/float64(b.N), "pages-to-first-pairs/op")
}

// --- Fig. 10: false hit ratio ---

func BenchmarkFig10_FalseHits(b *testing.B) {
	var fhr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := benchEnv(b, benchN, benchN)
		b.StartTimer()
		res := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.Options{Reuse: true})
		fhr += res.Stats.FalseHitRatio()
	}
	b.ReportMetric(fhr/float64(b.N), "fhr/op")
}

// --- Fig. 11: reuse ablation ---

func benchReuse(b *testing.B, reuse bool) {
	var cells int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := benchEnv(b, benchN, benchN)
		b.StartTimer()
		res := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.Options{Reuse: reuse})
		cells += res.Stats.PCellsComputed
	}
	b.ReportMetric(float64(cells)/float64(b.N), "p-cells/op")
}

func BenchmarkFig11_Reuse(b *testing.B)   { benchReuse(b, true) }
func BenchmarkFig11_NoReuse(b *testing.B) { benchReuse(b, false) }

// --- Table III: real-like dataset pair ---

func BenchmarkTable3_PA_SC(b *testing.B) {
	pa, err := dataset.RealLike("PA", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := dataset.RealLike("SC", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	var pages int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := exp.BuildEnv(sc, pa, exp.DefaultPageSize, exp.DefaultBufferPct)
		b.StartTimer()
		res := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.Options{Reuse: true})
		pages += res.Stats.PageAccesses()
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

// --- Parallel engine: speedup curve over serial NM-CIJ ---
//
// The workers=W wall-clock divided into BenchmarkFig7_NMCIJ's is the
// speedup curve; on a multicore machine 4 workers clear 1.5x comfortably
// (TestSpeedup asserts it where >= 4 CPUs are available).

func benchParallel(b *testing.B, workers int, balanced, flat bool) {
	var setup func(*exp.Env)
	if flat {
		setup = func(e *exp.Env) { e.Flat() }
	}
	benchCIJSetup(b, setup, func(e *exp.Env) core.Result {
		rp, rq := e.RP, e.RQ
		if flat {
			rp, rq = e.Flat()
		}
		opts := parallel.DefaultOptions()
		opts.Workers = workers
		opts.Balanced = balanced
		opts.CollectPairs = false
		return parallel.Join(rp, rq, exp.Domain, opts)
	})
}

// BenchmarkParallel_SpeedupCurve measures workers=1/2/4/8 over both
// storage backends. Dividing each width's ns/op into its own workers=1
// row gives the per-backend speedup curve — flat removes the
// shared-buffer decode work from the span, so it is the curve where
// multicore scaling is visible undiluted.
func BenchmarkParallel_SpeedupCurve(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		// A single-CPU host serializes every worker pool, so the "curve"
		// degenerates to 1.0x at all widths; skipping keeps that
		// meaningless flat line out of the results.
		b.Skip("GOMAXPROCS=1: a speedup curve measured on one CPU records a misleading 1.0x everywhere")
	}
	for _, backend := range []struct {
		name string
		flat bool
	}{{"paged", false}, {"flat", true}} {
		backend := backend
		b.Run("storage="+backend.name, func(b *testing.B) {
			for _, w := range []int{1, 2, 4, 8} {
				w := w
				b.Run("workers="+itoa(w), func(b *testing.B) { benchParallel(b, w, false, backend.flat) })
			}
		})
	}
}

func BenchmarkParallel_Balanced4Workers(b *testing.B) { benchParallel(b, 4, true, false) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
