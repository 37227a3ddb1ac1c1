// Package core implements the Common Influence Join, the primary
// contribution of Yiu, Mamoulis & Karras (ICDE 2008): given pointsets P
// and Q indexed by R-trees, compute all pairs (p, q) whose Voronoi cells
// V(p,P) and V(q,Q) intersect — i.e. some location is simultaneously in
// the influence region of p within P and of q within Q.
//
// Three evaluation algorithms are provided, in increasing sophistication:
//
//   - FMCIJ (Algorithm 3): materialize both Voronoi diagrams into packed
//     R-trees and intersection-join them (blocking, highest I/O).
//   - PMCIJ (Algorithm 4): materialize only Vor(P); probe batches of
//     Q-cells against it like a block index nested loops join.
//   - NMCIJ (Algorithm 6): materialize nothing; for each batch of Q-cells
//     run a conditional filter directly on the R-tree of P (Algorithm 5)
//     and refine candidates with on-demand cell computations. Non-blocking
//     and nearly I/O-optimal (the paper's headline result).
//
// All three return identical pair sets; they differ in cost profile.
//
// The per-batch machinery of NM-CIJ (conditional filter, on-demand
// refinement with the reuse buffer, join) is factored into BatchPipeline
// so that execution strategy and algorithm are independent: NMCIJ drives
// one pipeline over all batches in Hilbert order, while the partitioned
// engine of internal/parallel gives every worker its own pipeline over
// private tree views and merges the streams. Prefer that engine when
// wall-clock latency matters and multiple cores are available; the serial
// driver remains the reference for the paper's single-buffer I/O
// experiments and for deterministic emission order.
//
// Every engine, the grid's and internal/delta's included, decides a pair
// with one predicate, CellsJoinWith: the area of the clipped intersection
// of the two cells exceeds joinAreaEps. A filter in front of the clip
// returns the clip's verdict without clipping wherever a margin certifies
// it: an edge of one cell with the other wholly outside it beyond the
// clip's tolerance (no join), or a corner of either cell so deep inside
// the other that a triangle of 100·joinAreaEps at it lies in both (a
// join). The certificate's error bounds assume coordinates within ±2^14
// and cells of at most 16 vertices; other cells go to the clip. On
// uniform, city-shaped and clustered data the filter decides about 94% of
// the tests.
package core

import (
	"time"

	"cij/internal/geom"
	"cij/internal/obs"
	"cij/internal/storage"
	"cij/internal/voronoi"
)

// Pair is one CIJ result: indexes into the P and Q datasets.
type Pair struct {
	P, Q int64
}

// joinAreaEps is the minimum intersection area for two Voronoi cells to
// count as a CIJ pair. A strictly positive threshold makes the predicate
// deterministic across algorithms that compute the same cell through
// different clipping orders; real common-influence regions on the paper's
// [0,10000]² domain are many orders of magnitude larger.
const joinAreaEps = 1e-6

// CellsJoin is the CIJ join predicate: the two influence regions share a
// location (with joinAreaEps tolerance). Exported so that examples and the
// brute-force oracle use the byte-for-byte same rule as the algorithms.
// It is CellsJoinWith, clip-free filter included, behind an MBR test.
func CellsJoin(a, b geom.Polygon) bool {
	if !a.Bounds().Intersects(b.Bounds()) {
		return false
	}
	var cl geom.Clipper
	return CellsJoinWith(&cl, a, b)
}

// CellsJoinWith is CellsJoin with caller-provided clipping scratch, for
// hot join loops that evaluate the predicate millions of times. Its
// verdict is the clip's: a's intersection with b, clipped through cl's
// reusable buffers by the halfplane sequence of Polygon.Intersection, has
// area above joinAreaEps. A filter (settle) first returns that verdict
// without clipping where a margin proves it: some edge of b has all of a
// outside it beyond the clip's tolerance (false), or a corner of either
// cell lies so deep inside the other that a triangle of 100·joinAreaEps
// at it lies in both (true). It decides about 94% of the tests on uniform,
// city-shaped and clustered data, and leaves cells of more than 16
// vertices or with coordinates beyond ±2^14 to the clip; its doc comment
// gives the error bounds. The call allocates nothing once cl's buffers
// have grown. Callers are expected to have pre-filtered on MBR overlap
// (the bounds test is skipped here); a and b must not alias cl's buffers.
func CellsJoinWith(cl *geom.Clipper, a, b geom.Polygon) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if join, ok := settle(a, b); ok {
		return join
	}
	return cl.Intersect(a, b).Area() > joinAreaEps
}

// ProgressPoint is one sample of the progressive-output curve of Fig. 9b:
// how many result pairs had been emitted after a given number of physical
// page accesses.
type ProgressPoint struct {
	PageAccesses int64
	Pairs        int64
}

// Stats describes the cost profile of one CIJ run, split into the
// materialization (MAT) and join (JOIN) phases of Fig. 7.
type Stats struct {
	Mat  storage.Stats // I/O of building Voronoi R-trees (zero for NM-CIJ)
	Join storage.Stats // I/O of the join phase

	MatCPU  time.Duration
	JoinCPU time.Duration

	// Filter-quality counters of NM-CIJ (zero elsewhere).
	Candidates int64 // Σ sᵢ  — candidate points across all batches
	TrueHits   int64 // Σ s′ᵢ — candidates that join ≥1 cell of their batch
	// PCellsComputed counts exact Voronoi cell computations for points of
	// P (Fig. 11); with the reuse buffer enabled, repeats are avoided.
	PCellsComputed int64

	Progress []ProgressPoint
}

// PageAccesses returns total physical I/O across both phases.
func (s Stats) PageAccesses() int64 {
	return s.Mat.PageAccesses() + s.Join.PageAccesses()
}

// CPU returns total CPU time across both phases.
func (s Stats) CPU() time.Duration { return s.MatCPU + s.JoinCPU }

// FalseHitRatio returns (Σsᵢ − Σs′ᵢ)/Σs′ᵢ, the filter quality metric of
// Fig. 10. It is zero when no true hits were recorded.
func (s Stats) FalseHitRatio() float64 {
	if s.TrueHits == 0 {
		return 0
	}
	return float64(s.Candidates-s.TrueHits) / float64(s.TrueHits)
}

// Result is the output of a CIJ algorithm.
type Result struct {
	Pairs []Pair
	Stats Stats
}

// Options tunes a CIJ run.
type Options struct {
	// Reuse enables NM-CIJ's Voronoi-cell reuse buffer (Section IV-B);
	// the Fig. 11 ablation switches it off. Ignored by FM/PM.
	Reuse bool
	// OnPair, when non-nil, streams every result pair as it is produced
	// (NM-CIJ produces pairs from the very first batches — the
	// non-blocking property of Fig. 9b).
	OnPair func(Pair)
	// CollectPairs controls whether Result.Pairs is populated; large
	// experiments disable it and count through OnPair instead.
	CollectPairs bool
	// PlainVisitOrder disables the Hilbert-ordered depth-first traversal
	// of Section III-C and visits leaves in stored entry order instead.
	// Ablation knob: the Hilbert order is what gives consecutive batches
	// spatial locality, and with it buffer hits.
	PlainVisitOrder bool
	// Trace, when non-nil, receives per-phase spans (wall clock + I/O and
	// filter-counter deltas) for the run. The nil default is free: no
	// clock reads, no snapshots, no allocations on the batch hot path.
	Trace *obs.Trace
}

// DefaultOptions returns the configuration used by the paper's
// experiments: reuse on, pairs collected.
func DefaultOptions() Options {
	return Options{Reuse: true, CollectPairs: true}
}

// collector accumulates pairs, progress samples and phase statistics.
type collector struct {
	opts  Options
	buf   *storage.Buffer
	base  storage.Stats // counter snapshot at run start
	pairs []Pair
	count int64
	prog  []ProgressPoint
}

func newCollector(opts Options, buf *storage.Buffer) *collector {
	return &collector{opts: opts, buf: buf, base: buf.Stats()}
}

func (c *collector) emit(p Pair) {
	c.count++
	if c.opts.CollectPairs {
		c.pairs = append(c.pairs, p)
	}
	if c.opts.OnPair != nil {
		c.opts.OnPair(p)
	}
}

// sample records a progress point (called at batch boundaries).
func (c *collector) sample() {
	io := c.buf.Stats().Sub(c.base).PageAccesses()
	c.prog = append(c.prog, ProgressPoint{PageAccesses: io, Pairs: c.count})
}

// cellRecord pairs a site with its exact cell and that cell's MBR, the
// unit that flows through probing and refinement.
type cellRecord struct {
	site   voronoi.Site
	poly   geom.Polygon
	bounds geom.Rect
}

// appendRecords converts cells to records, appending into a reusable dst.
func appendRecords(dst []cellRecord, cells []voronoi.Cell) []cellRecord {
	for _, c := range cells {
		dst = append(dst, cellRecord{site: c.Site, poly: c.Poly, bounds: c.Poly.Bounds()})
	}
	return dst
}
