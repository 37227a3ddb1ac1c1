package grid

import (
	"cij/internal/core"
	"cij/internal/geom"
)

// qCells memoizes Q's Voronoi cells per vertex: the flood of one P cell
// meets each Q cell it overlaps, and neighbouring P cells meet the same
// ones. Vertices live in a grow-only arena, so a computed cell's V is
// never nil; a growth reallocation strands the old backing array, which
// the cells placed before keep alive.
type qCells struct {
	poly   []geom.Polygon
	bounds []geom.Rect
	arena  []geom.Point
	cl     geom.Clipper
}

// get returns Q vertex v's cell and MBR, computing them on first use.
func (c *qCells) get(t *triangulation, v int32, domain geom.Rect) (geom.Polygon, geom.Rect) {
	if c.poly[v].V == nil {
		vs := t.cell(&c.cl, v, domain).V
		n := len(c.arena)
		c.arena = append(c.arena, vs...)
		poly := geom.Polygon{V: c.arena[n:len(c.arena):len(c.arena)]}
		c.poly[v], c.bounds[v] = poly, poly.Bounds()
	}
	return c.poly[v], c.bounds[v]
}

// flood joins every P cell with the Q cells it overlaps. For each P
// vertex in Hilbert order it builds cell(p), walks greedily on Q's graph
// from the previous P vertex's nearest Q vertex to the one nearest a point
// of cell(p), and floods breadth-first from there: a Q cell whose MBR
// misses cell(p)'s is skipped, any other is tested and its neighbours and
// near-twins queued whether or not it joined (the package comment says
// why this reaches every overlapping cell).
func flood(tp, tq *triangulation, domain geom.Rect, opts Options, res *core.Result) {
	qc := qCells{
		poly:   make([]geom.Polygon, tq.n),
		bounds: make([]geom.Rect, tq.n),
		arena:  make([]geom.Point, 0, 8*int(tq.n)),
	}
	stamp, ringed := make([]int32, tq.n), make([]int32, tq.n) // P vertex + 1 that last queued a Q vertex, its ring
	var queue []int32
	push := func(w, v int32) {
		if stamp[w] != v+1 {
			stamp[w] = v + 1
			queue = append(queue, w)
		}
	}
	var cp, cj geom.Clipper
	near := int32(0)
	for v := int32(0); v < tp.n; v++ {
		pc := tp.cell(&cp, v, domain)
		res.Stats.PCellsComputed++
		if pc.IsEmpty() {
			continue
		}
		pb := pc.Bounds()
		// The site is in its own cell unless it lies outside the domain;
		// then any vertex of the clipped cell serves as the target.
		target := tp.verts[v]
		if !domain.Contains(target) {
			target = pc.V[0]
		}
		near = tq.nearest(near, target)

		queue = queue[:0]
		push(near, v)
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			poly, qb := qc.get(tq, u, domain)
			if !pb.Intersects(qb) {
				continue
			}
			res.Stats.Candidates++
			if core.CellsJoinWith(&cj, pc, poly) {
				res.Stats.TrueHits++
				emit(tp.membersOf(v), tq.membersOf(u), opts, res)
			}
			for _, w := range tq.neighbors(u) {
				push(w, v)
			}
			for w := tq.ring[u]; w != u && ringed[u] != v+1; w = tq.ring[w] {
				ringed[w] = v + 1 // the first of a cluster to pass queues the rest
				push(w, v)
			}
		}
	}
}

// emit reports a joined cell pair as one pair per merged input point on
// each side.
func emit(ps, qs []int32, opts Options, res *core.Result) {
	for _, a := range ps {
		for _, b := range qs {
			pair := core.Pair{P: int64(a), Q: int64(b)}
			if opts.CollectPairs {
				res.Pairs = append(res.Pairs, pair)
			}
			if opts.OnPair != nil {
				opts.OnPair(pair)
			}
		}
	}
}
