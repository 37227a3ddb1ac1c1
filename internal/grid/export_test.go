package grid

import "cij/internal/geom"

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
	// goroutines with units of size vertices.
	NewGraphWith = newGraph
)

// CellTable returns g's cell table: the arena, the offsets by vertex and
// the MBRs by vertex.
func (g *Graph) CellTable() ([]geom.Point, []int32, []geom.Rect) {
	return g.cells, g.cellStart, g.bounds
}

// CellTableWith recomputes g's cell table into a copy of g, as NewGraphWith
// would on at most workers goroutines with units of size vertices, and
// returns the copy's table: the matrix of worker counts and unit sizes
// then pays one triangulation per pointset.
func (g *Graph) CellTableWith(workers, size int) ([]geom.Point, []int32, []geom.Rect) {
	c := *g
	c.storeCells(workers, size)
	return c.CellTable()
}

// Cell recomputes vertex v's cell from the graph.
func (g *Graph) Cell(v int) geom.Polygon { return g.cell(new(geom.Clipper), int32(v)) }

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
