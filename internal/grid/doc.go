// Package grid is the in-memory CIJ backend: a second execution
// architecture for the common influence join that uses no R-tree, no page
// buffer and no simulated disk. Where the paper's NM/PM/FM algorithms are
// index-driven — their cost model is page accesses — this backend assumes
// both pointsets fit in RAM and joins on their Delaunay graphs. It keeps
// its historical name: the service's algo name "grid", the benchmark and
// the journal key on it.
//
// # Triangulation
//
// Join triangulates each operand on every call. Identical points merge
// into one vertex, and the join reports a pair for every member. The
// distinct points go in Hilbert order (locality for the point-location
// walk) into two triangles spanning four sentinels; each insertion splits
// its triangle 1→3, or the two triangles on an edge 2→4, and Lawson's
// flips restore the Delaunay property. Every point is interior to the
// sentinel frame, so no input needs a hull or a path of its own. orient
// and incircle trust a float determinant that clears Shewchuk's static
// error bound and otherwise evaluate exactly in math/big.Rat, a main path
// on lattices and collinear runs.
//
// # Why the join is exact
//
//   - Voronoi neighbours ⊆ Delaunay edges. Sites whose Voronoi cells share
//     an edge of positive length are adjacent in every Delaunay
//     triangulation, so the bisectors of a site's Delaunay neighbours cut
//     its cell (Eq. 2 of the paper) out of the domain.
//   - Near-twins. voronoi.BruteCell skips the sites within Eps of a site
//     v (geom.Point.Eq), so v's cell is its Voronoi cell without them.
//     Deleting a site only joins its Delaunay neighbours, so v's Voronoi
//     neighbours there neighbour the Eq sites linked to v through Eq
//     sites. Those lie in v's cluster (a component of the Delaunay edges
//     under 3·Eps), and cell() clips by the non-Eq neighbours of the
//     cluster's Eq sites.
//   - Sentinels never reach the domain. They sit more than twice the
//     diameter of B = domain ∪ bbox(input) away from B, while every point
//     of B has a real site within that diameter, so their edges can be
//     dropped from the graph.
//   - Overlapping cells are connected. The Voronoi cells that overlap
//     cell(p) tile it, and cell(p) is convex, so they are linked by shared
//     edges. The flood from the Q cell holding p expands through every Q
//     cell whose MBR meets cell(p)'s, joined or not, so a sliver below the
//     predicate's area threshold cannot cut it off. A near-twin's cell
//     reaching a point x of cell(p) holds the segment to x, which crosses
//     only its Eq sites' Voronoi cells, so its cluster links it to a
//     visited cell; the flood expands through clusters too.
//   - The greedy walk finds the nearest site. In a Delaunay graph a site
//     not nearest to x has a neighbour strictly nearer, real for x in B.
//     Near-twins tie in floats, so the walk steps from whole clusters.
//
// Every candidate pair goes through core.CellsJoinWith, the predicate all
// engines share. A cell takes about six clips whatever the density, so a
// point mass costs what uniform data does. P's cells are built one at a
// time in Hilbert order, Q's are memoized, and pairs stream from the
// first P cell on.
//
// SkewEstimate stays as a dataset statistic: the service benchmark times
// it in its set-up replay and describes its inputs by it.
package grid
