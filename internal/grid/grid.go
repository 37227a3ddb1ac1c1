package grid

import (
	"time"

	"cij/internal/core"
	"cij/internal/geom"
	"cij/internal/obs"
)

// Options tunes a grid join.
type Options struct {
	// OnPair, when non-nil, streams every result pair as the flood finds
	// it (P's sites in Hilbert order, on the calling goroutine).
	OnPair func(core.Pair)
	// CollectPairs controls whether Result.Pairs is populated.
	CollectPairs bool
	// Trace, when non-nil, receives a "join" span carrying the P cells,
	// candidates and true hits, and from Join also a "triangulate" span
	// per operand (tagged "p" and "q"). The backend performs no I/O, so
	// spans carry only wall clock and the filter-quality counters. Nil
	// costs nothing.
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
}

// NewGraph triangulates pts over domain (see the package comment) and
// keeps the graph a join reads; the triangles go once it is laid out.
// ids, when non-nil, holds the ID each point reports in pairs (ids[i] for
// pts[i]); nil reports positions.
func NewGraph(pts []geom.Point, ids []int64, domain geom.Rect) *Graph {
	if ids != nil && len(ids) != len(pts) {
		panic("grid: NewGraph with an ID table that does not match its points")
	}
	g := triangulate(pts, domain).graph()
	g.domain, g.ids = domain, ids
	return g
}

// Join evaluates CIJ(P, Q) in memory and returns a result equivalent (as
// a pair set) to core.NMCIJ over R-trees on the same pointsets: it builds
// both operands' graphs and joins them with JoinGraphs. MatCPU is the two
// builds.
func Join(p, q []geom.Point, domain geom.Rect, opts Options) core.Result {
	start := time.Now()
	gp := NewGraph(p, nil, domain)
	mid := time.Now()
	opts.Trace.Add("triangulate", "p", mid.Sub(start), obs.Counters{Items: int64(len(p))})
	gq := NewGraph(q, nil, domain)
	built := time.Now()
	opts.Trace.Add("triangulate", "q", built.Sub(mid), obs.Counters{Items: int64(len(q))})

	res := JoinGraphs(gp, gq, opts)
	res.Stats.MatCPU = built.Sub(start)
	return res
}

// JoinGraphs evaluates CIJ(P, Q) on graphs built over one domain. It
// floods Q's graph from the Q site nearest each P site, computing cells on
// demand and testing each candidate with the shared predicate
// core.CellsJoinWith, and writes nothing to either graph.
//
// Stats: JoinCPU is the flood; the I/O counters stay zero. PCellsComputed
// counts P cells (one per distinct P point), Candidates the predicate
// tests and TrueHits the tests that joined, so FalseHitRatio describes
// the flood's MBR filter.
func JoinGraphs(p, q *Graph, opts Options) core.Result {
	if p.domain != q.domain {
		panic("grid: JoinGraphs over graphs of different domains")
	}
	start := time.Now()
	var res core.Result
	if p.n > 0 && q.n > 0 {
		flood(p, q, opts, &res)
	}
	res.Stats.JoinCPU = time.Since(start)
	opts.Trace.Add("join", "", res.Stats.JoinCPU, obs.Counters{
		PCells:     res.Stats.PCellsComputed,
		Candidates: res.Stats.Candidates,
		TrueHits:   res.Stats.TrueHits,
	})
	return res
}
