package grid

import (
	"runtime"
	"time"

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
// reads of the pointset's triangulation. It is immutable once built, so
// any number of joins may read one concurrently, as either operand.
type Graph struct {
	domain geom.Rect
	// verts holds the distinct input points in Hilbert order.
	verts []geom.Point
	n     int32
	// members lists the input indices merged into vertex v (identical
	// points) in members[memberStart[v]:memberStart[v+1]]; ids, when
	// non-nil, maps an input index to the ID its pairs report.
	members     []int32
	memberStart []int32
	ids         []int64
	// adj lists the real Delaunay neighbours of vertex v in
	// adj[adjStart[v]:adjStart[v+1]]; edges to sentinels are dropped.
	adj      []int32
	adjStart []int32
	ring     []int32 // the next vertex of v's near-twin cluster, a cycle (see graph)
	// cells holds every vertex's cell back to back in vertex order: v's
	// is cells[cellStart[v]:cellStart[v+1]], empty when no part of the
	// domain is nearest to it, and bounds[v] is its MBR.
	cells     []geom.Point
	cellStart []int32
	bounds    []geom.Rect
}

// NewGraph triangulates pts over domain (see the package comment) and
// keeps the graph a join reads, every vertex's cell included; the
// triangles go once it is laid out. ids, when non-nil, holds the ID each
// point reports in pairs (ids[i] for pts[i]); nil reports positions. The
// cells are computed on up to GOMAXPROCS goroutines.
func NewGraph(pts []geom.Point, ids []int64, domain geom.Rect) *Graph {
	return newGraph(pts, ids, domain, runtime.GOMAXPROCS(0), 0)
}

// newGraph is NewGraph computing the cells on at most workers goroutines,
// in units of size vertices (0 sizes them from the pointset, see
// unitCount).
func newGraph(pts []geom.Point, ids []int64, domain geom.Rect, workers, size int) *Graph {
	if ids != nil && len(ids) != len(pts) {
		panic("grid: NewGraph with an ID table that does not match its points")
	}
	g := triangulate(pts, domain).graph()
	g.domain, g.ids = domain, ids
	g.storeCells(workers, size)
	return g
}

// storeCells fills the cell table over contiguous units of vertices. Each
// unit clips its cells into a buffer of its own, on any worker, and the
// buffers are then copied back to back into one arena of exactly their
// total length.
func (g *Graph) storeCells(workers, size int) {
	k := unitCount(int(g.n), workers, size)
	g.cellStart = make([]int32, g.n+1)
	g.bounds = make([]geom.Rect, g.n)
	bufs := make([][]geom.Point, k)
	cls := make([]*geom.Clipper, min(workers, k))
	runUnits(workers, k, func(w, u int, _ bool) {
		if cls[w] == nil {
			cls[w] = new(geom.Clipper)
		}
		lo, hi := unitSpan(u, k, g.n)
		buf := make([]geom.Point, 0, 8*(hi-lo))
		for v := lo; v < hi; v++ {
			c := g.cell(cls[w], v)
			buf = append(buf, c.V...)
			g.cellStart[v+1] = int32(len(buf)) // offset within the unit until the copy
			g.bounds[v] = c.Bounds()
		}
		bufs[u] = buf
	}, nil)
	total := 0
	for _, buf := range bufs {
		total += len(buf)
	}
	g.cells = make([]geom.Point, total)
	at := int32(0)
	for u, buf := range bufs {
		lo, hi := unitSpan(u, k, g.n)
		for v := lo + 1; v <= hi; v++ {
			g.cellStart[v] += at
		}
		at += int32(copy(g.cells[at:], buf))
	}
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
