package grid

import (
	"math/bits"
	"runtime"
	"time"
	"weak"

	"cij/internal/core"
	"cij/internal/geom"
	"cij/internal/obs"
)

// Options tunes a grid join.
type Options struct {
	// OnPair, when non-nil, streams every result pair on the calling
	// goroutine, in P's Hilbert order (the order of Result.Pairs). The
	// caller's first unit streams as the flood finds its pairs; a unit a
	// helper flooded streams once every unit before it has.
	OnPair func(core.Pair)
	// CollectPairs controls whether Result.Pairs is populated.
	CollectPairs bool
	// Trace, when non-nil, receives a "join" span carrying the P cells,
	// candidates and true hits; a "wait" span when the flood ran on more
	// than one goroutine, whose wall is the time the caller spent blocked
	// on helpers' units and whose Items is how many units it waited for;
	// and from Join also a "triangulate" span per operand (tagged "p" and
	// "q") covering that operand's whole NewGraph, triangulation and
	// cells together. The backend performs no I/O, so spans carry only
	// wall clock and the filter-quality counters. Nil costs nothing.
	Trace *obs.Trace
}

// DefaultOptions mirrors core.DefaultOptions for the grid backend: pairs
// collected.
func DefaultOptions() Options {
	return Options{CollectPairs: true}
}

// Graph is the Delaunay graph of one pointset over a domain: what a join
// reads of the pointset's triangulation, and the triangulation itself,
// from which Derive computes a successor's graph. It is immutable once
// built, so any number of joins may read one concurrently, as either
// operand.
type Graph struct {
	domain geom.Rect
	box    geom.Rect // domain ∪ bbox(points): the Hilbert order's frame
	// verts holds the distinct input points in Hilbert order, then the
	// four sentinels of the triangulation's frame: vertices below n are
	// real.
	verts []geom.Point
	n     int32
	// members lists the input indices merged into vertex v (identical
	// points) in members[memberStart[v]:memberStart[v+1]], ascending; ids,
	// when non-nil, maps an input index to the ID its pairs report.
	members     []int32
	memberStart []int32
	ids         []int64
	// adj lists the real Delaunay neighbours of vertex v in
	// adj[adjStart[v]:adjStart[v+1]], by first member (see byFirst);
	// edges to sentinels are dropped.
	adj      []int32
	adjStart []int32
	ring     []int32 // the next vertex of v's near-twin cluster, a cycle (see graph)
	twins    bool    // some cluster holds more than one vertex
	// cells holds every vertex's cell back to back in vertex order, cut
	// into chunks of 1<<cellShift vertices, each an arena of exactly its
	// cells' length. v's cell runs from cellStart[v] to cellStart[v+1] in
	// the offsets of the whole table (see storedCell), empty when no part
	// of the domain is nearest to it, and bounds[v] is its MBR.
	cells     []cellChunk
	cellShift uint8
	cellStart []int32
	bounds    []geom.Rect
	// tri and twin are the triangulation's half-edges (see triangulation),
	// kept for Derive and for point location.
	tri, twin []int32
	// clipped is how many cells the graph's construction clipped: every
	// one for a build, the changed neighbourhoods' for a derivation.
	clipped int
	derived derivation // zero for a build
}

// derivation is a derived graph's record of what its derivation changed,
// which Churn diffs. parent weakly names the graph it was derived from, so
// the record keeps no parent alive. cur lists the derived graph's
// vertices whose cell or members differ from their parent vertex's, the
// new ones included, and old the parent's vertices that did not carry
// over unchanged, the removed ones included; both ascend. Every vertex in
// neither list stores its parent vertex's cell and MBR bit for bit and
// reports the same IDs.
type derivation struct {
	parent   weak.Pointer[Graph]
	old, cur []int32
}

// NewGraph triangulates pts over domain (see the package comment) and
// keeps the graph a join reads, every vertex's cell included, and the
// triangulation it was laid out from. ids, when non-nil, holds the ID
// each point reports in pairs (ids[i] for pts[i]); nil reports positions.
// The cells are computed on up to GOMAXPROCS goroutines.
func NewGraph(pts []geom.Point, ids []int64, domain geom.Rect) *Graph {
	return newGraph(pts, ids, domain, runtime.GOMAXPROCS(0), 0)
}

// newGraph is NewGraph computing the cells on at most workers goroutines,
// in chunks of size vertices, a power of two (0 for 1<<cellShift).
func newGraph(pts []geom.Point, ids []int64, domain geom.Rect, workers, size int) *Graph {
	if ids != nil && len(ids) != len(pts) {
		panic("grid: NewGraph with an ID table that does not match its points")
	}
	g := triangulate(pts, domain).graph()
	g.domain, g.ids = domain, ids
	shift := uint8(cellShift)
	if size > 0 {
		shift = uint8(bits.TrailingZeros(uint(size)))
	}
	g.storeCells(workers, shift, nil, nil, nil)
	return g
}

// cellShift sizes a cell chunk: 512 vertices' cells, about 48 KB on
// uniform data. A build clips a chunk at a time on each worker into a
// buffer the worker reuses, so its only other allocation is the chunk's
// own exact-size arena.
const cellShift = 9

// cellChunk is one arena of the cell table: the cells of its vertices
// back to back, from table offset base on.
type cellChunk struct {
	base int32
	pts  []geom.Point
}

// Clipped returns how many cells the graph's construction clipped: every
// vertex's for NewGraph, the changed neighbourhoods' for Derive.
func (g *Graph) Clipped() int { return g.clipped }

// storeCells fills the cell table in chunks of 1<<shift vertices, one
// unit of work each on up to workers goroutines, and is the only writer of
// a cell table. A vertex marked in keep copies the cell and MBR of vertex
// from[v] of parent; every other one is clipped, as is every vertex when
// keep is nil. A worker gathers a chunk's cells in the one buffer it
// reuses across its chunks and copies them into the chunk's arena,
// allocated at exactly their length.
func (g *Graph) storeCells(workers int, shift uint8, parent *Graph, from []int32, keep []bool) {
	g.cellShift = shift
	k := int((g.n + 1<<shift - 1) >> shift)
	g.cellStart = make([]int32, g.n+1)
	g.bounds = make([]geom.Rect, g.n)
	g.cells = make([]cellChunk, k)
	g.clipped = int(g.n)
	for _, kept := range keep {
		if kept {
			g.clipped--
		}
	}
	type cellWorker struct {
		cs  cellScratch
		buf []geom.Point
	}
	ws := make([]*cellWorker, min(workers, k))
	runUnits(workers, k, func(w, u int, _ bool) {
		if ws[w] == nil {
			ws[w] = &cellWorker{buf: make([]geom.Point, 0, 8<<shift)}
		}
		cw := ws[w]
		lo, hi := g.chunkSpan(u)
		cw.buf = cw.buf[:0]
		for v := lo; v < hi; v++ {
			var c geom.Polygon
			if keep != nil && keep[v] {
				c, g.bounds[v] = parent.storedCell(from[v]), parent.bounds[from[v]]
			} else {
				c = g.cell(&cw.cs, v)
				g.bounds[v] = c.Bounds()
			}
			cw.buf = append(cw.buf, c.V...)
			g.cellStart[v+1] = int32(len(c.V)) // the cell's length until the sums below
		}
		g.cells[u].pts = make([]geom.Point, len(cw.buf))
		copy(g.cells[u].pts, cw.buf)
	}, nil)
	for v := int32(1); v <= g.n; v++ {
		g.cellStart[v] += g.cellStart[v-1]
	}
	for u := range g.cells {
		lo, _ := g.chunkSpan(u)
		g.cells[u].base = g.cellStart[lo]
	}
}

// chunkSpan returns the vertices [lo, hi) of cell chunk u.
func (g *Graph) chunkSpan(u int) (lo, hi int32) {
	return int32(u) << g.cellShift, min(int32(u+1)<<g.cellShift, g.n)
}

// Join evaluates CIJ(P, Q) in memory and returns a result equivalent (as
// a pair set) to core.NMCIJ over R-trees on the same pointsets: it builds
// both operands' graphs, concurrently when GOMAXPROCS allows, and joins
// them with JoinGraphs. MatCPU is the builds' wall time, the paper's MAT
// phase: both triangulations and both diagrams' cells. Each "triangulate"
// span carries its own build's.
func Join(p, q []geom.Point, domain geom.Rect, opts Options) core.Result {
	start := time.Now()
	pts := [2][]geom.Point{p, q}
	var graphs [2]*Graph
	var took [2]time.Duration
	runUnits(runtime.GOMAXPROCS(0), 2, func(_, u int, _ bool) {
		t := time.Now()
		graphs[u] = NewGraph(pts[u], nil, domain)
		took[u] = time.Since(t)
	}, nil)
	built := time.Now()
	opts.Trace.Add("triangulate", "p", took[0], obs.Counters{Items: int64(len(p))})
	opts.Trace.Add("triangulate", "q", took[1], obs.Counters{Items: int64(len(q))})

	res := JoinGraphs(graphs[0], graphs[1], opts)
	res.Stats.MatCPU = built.Sub(start)
	return res
}

// JoinGraphs evaluates CIJ(P, Q) on graphs built over one domain. It
// floods Q's graph from the Q site nearest each P site, testing each
// candidate pair of stored cells with the shared predicate
// core.CellsJoinWith, and writes nothing to either graph. It runs on up
// to GOMAXPROCS goroutines, the caller among them, over P's vertices in
// Hilbert units (see the package comment), with every pair reported on
// the caller.
//
// Stats: JoinCPU is the flood's wall time; the I/O counters stay zero.
// PCellsComputed counts the P cells the flood examined (one per distinct
// P point), Candidates the predicate tests and TrueHits the tests that
// joined, so FalseHitRatio describes the flood's MBR filter.
func JoinGraphs(p, q *Graph, opts Options) core.Result {
	return joinGraphs(p, q, opts, runtime.GOMAXPROCS(0), 0)
}

// joinGraphs is JoinGraphs on at most workers goroutines, with units of
// size vertices (0 sizes them from the operands, see unitCount).
func joinGraphs(p, q *Graph, opts Options, workers, size int) core.Result {
	if p.domain != q.domain {
		panic("grid: JoinGraphs over graphs of different domains")
	}
	start := time.Now()
	var res core.Result
	var w unitWait
	if p.n > 0 && q.n > 0 {
		w = flood(p, q, opts, &res, workers, size)
	}
	res.Stats.JoinCPU = time.Since(start)
	opts.Trace.Add("join", "", res.Stats.JoinCPU, obs.Counters{
		PCells:     res.Stats.PCellsComputed,
		Candidates: res.Stats.Candidates,
		TrueHits:   res.Stats.TrueHits,
	})
	if w.helped {
		opts.Trace.Add("wait", "", w.blocked, obs.Counters{Items: int64(w.units)})
	}
	return res
}
