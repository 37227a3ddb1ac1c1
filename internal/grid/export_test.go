package grid

import "cij/internal/geom"

// Exports for the external test package grid_test, which draws its inputs
// from internal/check (itself an importer of this package).

var (
	Orient        = orient
	OrientExact   = orientExact
	Incircle      = incircle
	IncircleExact = incircleExact
)

// Triangulation is a read-only view of a triangulation for structural
// checks.
type Triangulation struct{ t *triangulation }

func Triangulate(pts []geom.Point, domain geom.Rect) Triangulation {
	return Triangulation{triangulate(pts, domain)}
}

// Verts returns the vertices: the real ones first, then the sentinels.
func (tr Triangulation) Verts() []geom.Point { return tr.t.verts }

// Real returns the number of real vertices.
func (tr Triangulation) Real() int { return int(tr.t.n) }

// Tri and Twin return the half-edge arrays.
func (tr Triangulation) Tri() []int32  { return tr.t.tri }
func (tr Triangulation) Twin() []int32 { return tr.t.twin }

// Members returns the input indices merged into real vertex v.
func (tr Triangulation) Members(v int) []int32 { return tr.t.membersOf(int32(v)) }

// Neighbors returns the real Delaunay neighbours of real vertex v.
func (tr Triangulation) Neighbors(v int) []int32 { return tr.t.neighbors(int32(v)) }
