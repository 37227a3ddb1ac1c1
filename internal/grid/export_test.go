package grid

import (
	"math/bits"

	"cij/internal/geom"
)

// Exports for the external test package grid_test, which draws its inputs
// from internal/check (itself an importer of this package).

var (
	Orient        = orient
	OrientExact   = orientExact
	Incircle      = incircle
	IncircleExact = incircleExact
	Lattice       = lattice
	TwinJoins     = twinJoins
	// JoinGraphsWith is JoinGraphs on at most workers goroutines with
	// units of size vertices, whatever the host's GOMAXPROCS.
	JoinGraphsWith = joinGraphs
	// NewGraphWith is NewGraph computing the cells on at most workers
	// goroutines in chunks of size vertices, a power of two (0 for the
	// default).
	NewGraphWith = newGraph
)

// CellTable returns g's cell table: its chunks' arenas back to back, the
// offsets by vertex and the MBRs by vertex, and whether every chunk's
// arena is exactly full and starts at its first vertex's offset.
func (g *Graph) CellTable() ([]geom.Point, []int32, []geom.Rect, bool) {
	var cells []geom.Point
	full := true
	for u, c := range g.cells {
		lo, hi := g.chunkSpan(u)
		full = full && cap(c.pts) == len(c.pts) && c.base == g.cellStart[lo] && int32(len(c.pts)) == g.cellStart[hi]-c.base
		cells = append(cells, c.pts...)
	}
	return cells, g.cellStart, g.bounds, full
}

// CellTableWith recomputes g's cell table into a copy of g, as NewGraphWith
// would on at most workers goroutines in chunks of size vertices (a power
// of two), and returns the copy's table: the matrix of worker counts and
// chunk sizes then pays one triangulation per pointset.
func (g *Graph) CellTableWith(workers, size int) ([]geom.Point, []int32, []geom.Rect, bool) {
	c := *g
	c.storeCells(workers, uint8(bits.TrailingZeros(uint(size))), nil, nil, nil)
	return c.CellTable()
}

// Cell recomputes vertex v's cell from the graph.
func (g *Graph) Cell(v int) geom.Polygon { return g.cell(new(cellScratch), int32(v)) }

// Triangulation is a read-only view of a triangulation and the graph
// laid out from it, for structural checks.
type Triangulation struct {
	t *triangulation
	g *Graph
}

func Triangulate(pts []geom.Point, domain geom.Rect) Triangulation {
	t := triangulate(pts, domain)
	return Triangulation{t, t.graph()}
}

// Verts returns the vertices: the real ones first, then the sentinels.
func (tr Triangulation) Verts() []geom.Point { return tr.t.verts }

// Real returns the number of real vertices.
func (tr Triangulation) Real() int { return int(tr.t.n) }

// Tri and Twin return the half-edge arrays.
func (tr Triangulation) Tri() []int32  { return tr.t.tri }
func (tr Triangulation) Twin() []int32 { return tr.t.twin }

// Members returns the input indices merged into real vertex v.
func (tr Triangulation) Members(v int) []int32 { return tr.g.membersOf(int32(v)) }

// Neighbors returns the real Delaunay neighbours of real vertex v.
func (tr Triangulation) Neighbors(v int) []int32 { return tr.g.neighbors(int32(v)) }

// Real returns the number of real vertices.
func (g *Graph) Real() int { return int(g.n) }

// Vertex returns vertex v's position, the sentinels' (n to n+3) included.
func (g *Graph) Vertex(v int) geom.Point { return g.verts[v] }

// IDs returns the IDs real vertex v's members report, in member order.
func (g *Graph) IDs(v int) []int64 {
	var out []int64
	for _, i := range g.membersOf(int32(v)) {
		out = append(out, g.id(i))
	}
	return out
}

// Neighbors returns real vertex v's neighbour list, in its stored order.
func (g *Graph) Neighbors(v int) []int32 { return g.neighbors(int32(v)) }

// Ring returns the next vertex of v's near-twin cluster.
func (g *Graph) Ring(v int) int { return int(g.ring[v]) }

// StoredCell returns real vertex v's stored cell and MBR.
func (g *Graph) StoredCell(v int) (geom.Polygon, geom.Rect) {
	return g.storedCell(int32(v)), g.bounds[v]
}

// Opposite returns the far corners of the two triangles on the edge from
// real vertex v to w, or −1s when the triangulation has no such edge.
func (g *Graph) Opposite(v, w int) (a, b int) {
	for e := range g.tri {
		if int(g.tri[e]) == v && int(g.tri[next(int32(e))]) == w {
			return int(g.tri[prev(int32(e))]), int(g.tri[prev(g.twin[e])])
		}
	}
	return -1, -1
}
