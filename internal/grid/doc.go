// Package grid is the in-memory CIJ backend: a second execution
// architecture for the common influence join that uses no R-tree, no page
// buffer and no simulated disk. Where the paper's NM/PM/FM algorithms are
// index-driven — their cost model is page accesses — this backend assumes
// both pointsets fit in RAM and joins on their Delaunay graphs. It keeps
// its historical name: the service's algo name "grid", the benchmark and
// the journal key on it.
//
// # Graphs
//
// NewGraph triangulates one pointset and keeps what a join reads: the
// distinct points, their Delaunay neighbours, near-twin rings, member
// lists and an optional ID table, 56 B per uniform point, and every
// vertex's Voronoi cell and MBR, another 131 B. The cells lie back to
// back in vertex order (5.96 vertices of 16 B per uniform cell), with an
// int32 offset and a 32-byte MBR per vertex, in chunks of 512 vertices'
// cells, each an arena of exactly its length. The build computes them a
// chunk at a time on up to GOMAXPROCS goroutines, each worker clipping
// into one buffer it reuses, so beyond the arenas it keeps a build
// allocates one chunk-sized buffer per worker. The graph also keeps the
// triangulation it was laid out from, its half-edges (48 B per point),
// for Derive.
// JoinGraphs writes to neither graph, so one graph built per dataset
// version serves every later join of that version, in either operand
// role and from any number of goroutines. The service stores one per
// version, so the Voronoi diagram FM-CIJ materializes on every join (its
// MAT phase) is computed once per version. Join, for raw pointsets, is
// NewGraph on both operands at once and then JoinGraphs.
//
// The layout is canonical: a vertex's neighbours are listed by their
// first members' input indices and a near-twin cluster's ring runs
// through its vertices in ascending order, whatever order the triangles
// were made in. A cell is clipped in input order, the order
// voronoi.BruteCell clips in, so it depends only on the positions, the
// clusters, the neighbour sets and the first members, and two graphs that
// agree on those store the same cell bit for bit.
//
// # Triangulation
//
// Identical points merge into one vertex, and the join reports a pair for
// every member, under its ID. The distinct points go in Hilbert order
// (locality for the point-location walk) into two triangles spanning four
// sentinels; each insertion splits its triangle 1→3, or the two triangles
// on an edge 2→4, and Lawson's flips restore the Delaunay property. Every
// point is interior to the sentinel frame, so no input needs a hull or a
// path of its own. orient and incircle trust a float determinant that
// clears Shewchuk's static error bound and otherwise evaluate exactly in
// math/big.Rat, a main path on lattices and collinear runs.
//
// # Derivation
//
// Derive computes the graph of a mutated pointset from its parent's by
// local edits and equals a fresh NewGraph of the same points: the same
// vertex order, members and IDs, the same neighbour sets up to the
// diagonals of exactly cocircular quadruples (any of which is Delaunay),
// and, wherever those agree, the same cells bit for bit. It matches the
// parent's members to the new points by ID (both tables must ascend, as
// the service keeps them) and position. A vertex that loses its last member
// is removed: its star, a simple polygon of its neighbours, is
// re-triangulated by Delaunay ears, corners whose triangle turns left and
// whose circumcircle holds no other corner strictly inside, decided by
// the exact orient and incircle. An arriving point on no vertex is
// inserted as NewGraph inserts (locate, split, Lawson's flips); one on a
// vertex only joins its members; a move leaves and arrives. The edits run
// on copies of the parent's half-edges, numbered in the vertex order a
// fresh build would have, so the copies become the derived graph's. Every
// vertex no edit touched keeps its parent's neighbour list, renumbered,
// and its cell: only the vertices whose clipping sites changed (their
// neighbour sets, or the clusters or first members of those neighbours)
// are clipped. One writer fills every cell table: storeCells, which for a
// build clips every cell and for a derivation copies each kept cell and
// MBR from the parent's table and clips the others, in chunks of the
// parent's size on up to GOMAXPROCS goroutines, each written at exactly
// its length.
//
// Derive is also the one place that decides which vertices a mutation
// reaches, the paper's Lemmas 1 and 2 made exact. The derived graph
// records it: its vertices whose cell or members differ from their parent
// vertex's (re-clipped, members gained or lost, or new), and the parent's
// vertices that did not carry over unchanged, removed ones included. It
// names the parent by a weak pointer, so a chain of derived versions
// keeps no earlier graph alive.
//
// Cost. A mutate-live batch (8 inserts, 4 moves and 4 deletes on 10k
// uniform points) clips about 130 cells; the rest of a derivation is a
// few linear passes (matching, layout, copying the kept cells), about
// 2 ms on a shared 2-vCPU host against 15–20 ms for NewGraph. A removal
// re-triangulates a star of k corners in O(k³) predicates at worst, so
// Derive declines (returns nil) when a star has more than 64 corners, and
// also when the points' bounding box, which frames the Hilbert order and
// the sentinels, changed; the caller then builds the graph.
//
// Churn maintains a join across one mutation on the graphs of the old and
// new versions and of the opposite side, on one of two paths. When the
// new graph was derived from the old one, every vertex outside the
// record has the same cell, MBR and IDs in both, so its pairs are the
// same in both joins: Churn floods only the recorded vertices' stored
// cells, each over the opposite graph's (the walk, filter and predicate
// the join runs per P vertex), and diffs their pairs. On the mutate-live
// batch that is about 1,800 predicate tests, against the tree engine's
// (internal/delta) 3,900 probes and 1,150 computed cells. Otherwise, when
// the new graph was built (its parent had none when the mutation ran, or
// Derive declined), Churn diffs two whole JoinGraphs runs and says so
// (ChurnResult.Whole): every vertex of both versions is flooded, about
// 59 ms on the same shape and host against 1.5 ms for the recorded
// vertices.
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
//   - Clipping order. A clip keeps what lies within Eps of its bisector,
//     so where the bisectors of two near-twins run within Eps of each
//     other the one clipped first bounds the cell, and a P cell and a Q
//     cell meeting along such bisectors join by a sliver whose area
//     depends on it. cell() therefore clips as BruteCell does: in input
//     order, and by the whole cluster of every neighbour with
//     near-twins, whose non-neighbours BruteCell clips too. It still
//     skips BruteCell's clips by sites that never bound the cell, which
//     can start the cell's vertex ring elsewhere; the predicate's float
//     verdict on a sliver can depend on that.
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
// engines share. Its clip-free filter decides about 94% of the tests on
// uniform, city-shaped and clustered data (TestSettleDecidesMost in
// internal/core), where an edge of one cell has the other wholly outside
// it or a corner of one lies deep inside the other; only the rest are
// clipped. A cell takes about six clips whatever the density, so a point
// mass costs what uniform data does; a tight near-twin cluster of k sites
// costs O(k) clips per member, paid once, in its version's build.
//
// # Parallel flood
//
// JoinGraphs reads both graphs' cells and clips none: a P site's flood is
// the walk to its nearest Q site, the MBR filter and the predicate. It
// runs on up to GOMAXPROCS goroutines, the caller among them, over P's
// vertices cut into contiguous runs of their Hilbert order, about four
// per worker and at least 1,024 vertices each, so small joins stay on the
// caller. Workers claim units from a shared counter. Contiguity is what
// keeps the walks short: each P site's walk starts from the Q site
// nearest the worker's previous one, which in Hilbert order is next door,
// so only a unit's first walk starts far away.
//
// Pairs reach OnPair and Result.Pairs on the calling goroutine in unit
// order, which is P's Hilbert order, whatever the worker count. The caller
// floods unit 0 itself and streams its pairs as it finds them, so the
// first pair of a join on stored graphs follows no clip at all, only its
// P cell's walk and tests: the paper's progressive output (Fig. 9b). A
// helper's unit is kept as joined vertex pairs and streamed once every
// unit before it has been. Once out of units, the caller waits for the
// helpers' last ones; a traced join reports that wait as its "wait" span.
// A worker that panics is recovered, the units not yet started are
// skipped, and JoinGraphs panics with the first value on the caller.
//
// Each worker's private scratch is at most two int32 stamps per Q vertex
// (the P vertex that last queued it and, when Q has near-twins, the last
// that passed its ring), plus its queue, its clipper and its walk start. The stamps name P
// vertices, which no two units share, so they are never reset; no worker
// reads another's scratch, and the graphs are read-only.
//
// SkewEstimate stays as a dataset statistic: the service benchmark times
// it in its set-up replay and describes its inputs by it.
package grid
