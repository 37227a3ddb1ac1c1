package grid

import (
	"cmp"
	"math"
	"slices"

	"cij/internal/geom"
)

// triangulation is the Delaunay triangulation of one operand's distinct
// points plus four sentinels: the build state a Graph is laid out from.
// The graph keeps its vertices, member lists and half-edges.
//
// Triangle t owns half-edges 3t, 3t+1 and 3t+2, counter-clockwise;
// half-edge e runs from vertex tri[e] to the origin of the next half-edge
// of its triangle, and twin[e] is the opposite half-edge (−1 on the four
// outer edges of the sentinel frame).
type triangulation struct {
	// box is domain ∪ bbox(points): the Hilbert order's frame, which also
	// places the sentinels.
	box geom.Rect
	// verts holds the distinct input points in Hilbert order, then the
	// four sentinels: vertices below n are real.
	verts []geom.Point
	n     int32
	// members lists the input indices merged into vertex v (identical
	// points) in members[memberStart[v]:memberStart[v+1]].
	members     []int32
	memberStart []int32
	tri, twin   []int32
	last        int32   // the last triangle created, where the next walk starts
	stack       []int32 // half-edges awaiting the Delaunay check
	// out, when non-nil, records for every vertex of a triangle written
	// since it was set a half-edge leaving it (−1 for the others): the
	// vertices whose neighbour lists a derivation's edits may have changed.
	out []int32
	// free lists the slots of triangles a removal killed, which new
	// triangles take first.
	free []int32
}

// next and prev step around the triangle of half-edge e.
func next(e int32) int32 { return e - e%3 + (e+1)%3 }
func prev(e int32) int32 { return e - e%3 + (e+2)%3 }

// triangulate builds the Delaunay triangulation of pts: identical points
// merge, and the distinct ones go in Hilbert order into two triangles
// spanning four sentinels (see the package comment).
func triangulate(pts []geom.Point, domain geom.Rect) *triangulation {
	box := domain
	for _, p := range pts {
		box = box.UnionPoint(p)
	}
	t := &triangulation{box: box}
	t.mergeInHilbertOrder(pts)

	// Every point of box has a real site within its diameter, and every
	// sentinel lies more than twice that away from box.
	c, m := box.Center(), 3*max(math.Hypot(box.Width(), box.Height()), 1)
	t.verts = append(t.verts,
		geom.Pt(c.X-m, c.Y-m), geom.Pt(c.X+m, c.Y-m),
		geom.Pt(c.X+m, c.Y+m), geom.Pt(c.X-m, c.Y+m))

	n := t.n
	t.tri = make([]int32, 6, 6*(n+2))
	t.twin = make([]int32, 6, 6*(n+2))
	copy(t.tri, []int32{n, n + 1, n + 2, n, n + 2, n + 3})
	copy(t.twin, []int32{-1, -1, 3, 2, -1, -1})
	for v := int32(0); v < n; v++ {
		t.insert(v)
	}
	return t
}

// insert adds vertex v, which lies strictly inside the sentinel frame and
// on no other vertex: it splits the triangle holding v 1→3, or the two on
// the edge v lies on 2→4, and flips until the triangulation is Delaunay
// again.
func (t *triangulation) insert(v int32) {
	if tr, e := locate(t.verts, t.tri, t.twin, t.last, t.verts[v]); e < 0 {
		t.split3(tr, v)
	} else {
		t.split4(e, v)
	}
	t.legalize()
}

// mergeInHilbertOrder sorts pts along the Hilbert curve over t.box and
// fills verts and the member lists, one vertex per distinct point. Points
// with equal Hilbert values go by coordinates, so identical points end up
// next to each other, and then by input index.
func (t *triangulation) mergeInHilbertOrder(pts []geom.Point) {
	// The curve's order-16 values fit 32 bits; the sort moves 8-byte keys
	// and reads coordinates only on ties.
	type keyed struct {
		h uint32
		i int32
	}
	ks := make([]keyed, len(pts))
	for i, p := range pts {
		ks[i] = keyed{uint32(geom.HilbertValue(p, t.box)), int32(i)}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.h != b.h {
			return cmp.Compare(a.h, b.h)
		}
		return cmp.Or(comparePoints(pts[a.i], pts[b.i]), cmp.Compare(a.i, b.i))
	})
	t.members = make([]int32, len(ks))
	t.verts = make([]geom.Point, 0, len(ks)+4)
	t.memberStart = make([]int32, 0, len(ks)+1)
	for i, k := range ks {
		t.members[i] = k.i
		if i == 0 || pts[k.i] != pts[ks[i-1].i] {
			t.verts = append(t.verts, pts[k.i])
			t.memberStart = append(t.memberStart, int32(i))
		}
	}
	t.memberStart = append(t.memberStart, int32(len(ks)))
	t.n = int32(len(t.verts))
}

// comparePoints orders points by x, then y.
func comparePoints(a, b geom.Point) int {
	return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
}

// compareHilbert orders distinct points as the vertex order over box
// does: by Hilbert value, then by coordinates.
func compareHilbert(a, b geom.Point, box geom.Rect) int {
	return cmp.Or(cmp.Compare(geom.HilbertValue(a, box), geom.HilbertValue(b, box)), comparePoints(a, b))
}

// locate walks the triangulation (verts, tri, twin) from triangle from
// towards x, crossing any edge that has x strictly on its far side. In a
// Delaunay triangulation this visibility walk cannot cycle. It returns the
// triangle whose closure holds x and, when x lies on one of its edges,
// that half-edge (else −1). It writes nothing, so any number of walks may
// share one triangulation.
func locate(verts []geom.Point, tri, twin []int32, from int32, x geom.Point) (t, edge int32) {
	t, entry := from, int32(-1)
walk:
	for {
		edge = -1
		for e := 3 * t; e < 3*t+3; e++ {
			if e == entry {
				continue // x lies strictly on this side of the edge we came in by
			}
			switch orient(verts[tri[e]], verts[tri[next(e)]], x) {
			case -1:
				entry = twin[e]
				t = entry / 3
				continue walk
			case 0:
				edge = e
			}
		}
		return t, edge
	}
}

// addTriangle appends triangle (a, b, c) with all twins unset and returns
// its index.
func (t *triangulation) addTriangle(a, b, c int32) int32 {
	if k := len(t.free); k > 0 {
		tr := t.free[k-1]
		t.free = t.free[:k-1]
		copy(t.tri[3*tr:], []int32{a, b, c})
		copy(t.twin[3*tr:], []int32{-1, -1, -1})
		t.last = tr
		return tr
	}
	tr := int32(len(t.tri) / 3)
	t.tri = append(t.tri, a, b, c)
	t.twin = append(t.twin, -1, -1, -1)
	t.last = tr
	return tr
}

// link makes half-edges a and b twins; b may be −1.
func (t *triangulation) link(a, b int32) {
	t.twin[a] = b
	if b >= 0 {
		t.twin[b] = a
	}
}

// split3 replaces triangle tr = (a, b, c) by (a, b, v), (b, c, v) and
// (c, a, v).
func (t *triangulation) split3(tr, v int32) {
	e0 := 3 * tr
	b, c := t.tri[e0+1], t.tri[e0+2]
	o1, o2 := t.twin[e0+1], t.twin[e0+2]
	t1 := t.addTriangle(b, c, v)
	t2 := t.addTriangle(c, t.tri[e0], v)
	t.tri[e0+2] = v
	t.link(3*t1, o1)
	t.link(3*t2, o2)
	t.link(e0+1, 3*t1+2)
	t.link(3*t1+1, 3*t2+2)
	t.link(3*t2+1, e0+2)
	t.stack = append(t.stack, e0, 3*t1, 3*t2)
	t.touch(tr, t1, t2)
}

// split4 splits the two triangles on half-edge e = x→y, (x, y, u) and
// (y, x, w), at v on the open segment xy into (x, v, u), (v, y, u),
// (y, v, w) and (v, x, w). v lies strictly inside the sentinel frame, so
// e is never one of the frame's outer edges and always has a twin.
func (t *triangulation) split4(e, v int32) {
	f := t.twin[e]
	ne, nf := next(e), next(f)
	x, y := t.tri[e], t.tri[ne]
	u, w := t.tri[prev(e)], t.tri[prev(f)]
	oy, ox := t.twin[ne], t.twin[nf] // outer twins of y→u and x→w
	t.tri[ne] = v                    // (x, v, u)
	t.tri[nf] = v                    // (y, v, w)
	t1 := t.addTriangle(v, y, u)
	t2 := t.addTriangle(v, x, w)
	t.link(e, 3*t2)
	t.link(f, 3*t1)
	t.link(ne, 3*t1+2)
	t.link(nf, 3*t2+2)
	t.link(3*t1+1, oy)
	t.link(3*t2+1, ox)
	t.stack = append(t.stack, prev(e), prev(f), 3*t1+1, 3*t2+1)
	t.touch(e/3, f/3, t1, t2)
}

// legalize empties the stack of half-edges opposite the new vertex,
// flipping every edge whose far vertex lies strictly inside the
// circumcircle of the new vertex's triangle (Lawson's flips).
func (t *triangulation) legalize() {
	for len(t.stack) > 0 {
		e := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		f := t.twin[e]
		if f < 0 {
			continue
		}
		// e = x→y in (x, y, v); f = y→x in (y, x, w).
		pe, pf := prev(e), prev(f)
		v, w := t.tri[pe], t.tri[pf]
		if incircle(t.verts[t.tri[e]], t.verts[t.tri[next(e)]], t.verts[v], t.verts[w]) <= 0 {
			continue
		}
		// Flip xy to vw: (x, y, v) becomes (w, y, v) and (y, x, w)
		// becomes (v, x, w).
		hpf, hpe := t.twin[pf], t.twin[pe]
		t.tri[e], t.tri[f] = w, v
		t.link(e, hpf)
		t.link(f, hpe)
		t.link(pe, pf)
		t.stack = append(t.stack, e, next(f))
		t.touch(e/3, f/3)
	}
}

// touch records, when t.out is set, a half-edge leaving each corner of
// triangles trs. A vertex that loses a triangle to an edit is a corner of
// another triangle the same edit writes, so each recorded half-edge still
// leaves its vertex once the edits are done.
func (t *triangulation) touch(trs ...int32) {
	if t.out == nil {
		return
	}
	for _, tr := range trs {
		for e := 3 * tr; e < 3*tr+3; e++ {
			t.out[t.tri[e]] = e
		}
	}
}

// graph lays out the real vertices' Delaunay neighbours and rings each
// near-twin cluster, and keeps t's vertices, member lists and half-edges.
// Both layouts are canonical: they depend on the vertex order, the member
// lists and the neighbour sets, never on the order t's triangles were made
// in, so a graph derived by local edits lays out exactly as a fresh build
// of the same points does, and clips the same cells.
//
// A vertex's neighbours are listed by their first members' input indices,
// ascending (see byFirst); every edge between real vertices is interior,
// so each has one outgoing half-edge per neighbour. A cluster is a
// component of the Delaunay edges under 3·Eps in both coordinates, which
// holds every path of sites Eq to one site; its ring runs through its
// vertices in ascending order and back.
func (t *triangulation) graph() *Graph {
	n := t.n
	g := &Graph{
		box:         t.box,
		verts:       t.verts,
		n:           n,
		members:     t.members,
		memberStart: t.memberStart,
		tri:         t.tri,
		twin:        t.twin,
		adjStart:    make([]int32, n+1),
		ring:        make([]int32, n),
	}
	// Each triangle (a, b, c) holds half-edges a→b, b→c and c→a.
	for e := 0; e < len(t.tri); e += 3 {
		a, b, c := t.tri[e], t.tri[e+1], t.tri[e+2]
		for _, h := range [3][2]int32{{a, b}, {b, c}, {c, a}} {
			if h[0] < n && h[1] < n {
				g.adjStart[h[0]+1]++
			}
		}
	}
	for v := int32(1); v <= n; v++ {
		g.adjStart[v] += g.adjStart[v-1]
	}
	g.adj = make([]int32, g.adjStart[n])
	fill := g.ring // until the rings are laid: where v's next neighbour goes
	copy(fill, g.adjStart[:n])
	for e := 0; e < len(t.tri); e += 3 {
		a, b, c := t.tri[e], t.tri[e+1], t.tri[e+2]
		for _, h := range [3][2]int32{{a, b}, {b, c}, {c, a}} {
			if u, w := h[0], h[1]; u < n && w < n {
				g.adj[fill[u]] = w
				fill[u]++
			}
		}
	}
	for v := range n {
		g.byFirst(g.neighbors(v))
	}
	g.ringClusters(nil)
	return g
}

// byFirst sorts vertices by their first members' input indices, the order
// voronoi.BruteCell clips their sites in. An insertion sort: a neighbour
// list holds about six.
func (g *Graph) byFirst(list []int32) {
	first := func(v int32) int32 { return g.members[g.memberStart[v]] }
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && first(list[j]) < first(list[j-1]); j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
}

// ringClusters links every near-twin cluster into a ring in ascending
// vertex order; a vertex with no edge under 3·Eps rings to itself. The
// clusters are found by union-find over the short edges, with ring as
// the parent table. Only the edges of the vertices in from are examined,
// or of every vertex when from is nil; from must hold both ends of every
// short edge.
func (g *Graph) ringClusters(from []int32) {
	for v := range g.ring {
		g.ring[v] = int32(v)
	}
	find := func(v int32) int32 {
		for g.ring[v] != v {
			g.ring[v] = g.ring[g.ring[v]]
			v = g.ring[v]
		}
		return v
	}
	var twins []int32 // the vertices with a short edge
	for k := 0; k < len(from) || from == nil && k < int(g.n); k++ {
		v := int32(k)
		if from != nil {
			v = from[k]
		}
		short := false
		for _, w := range g.neighbors(v) {
			if d := g.verts[w].Sub(g.verts[v]); math.Abs(d.X) < 3*geom.Eps && math.Abs(d.Y) < 3*geom.Eps {
				short = true
				if a, b := find(v), find(w); a != b {
					g.ring[max(a, b)] = min(a, b)
				}
			}
		}
		if short {
			twins = append(twins, v)
		}
	}
	if g.twins = len(twins) > 0; !g.twins {
		return
	}
	type member struct{ root, v int32 }
	ms := make([]member, len(twins))
	for i, v := range twins {
		ms[i] = member{find(v), v}
	}
	slices.SortFunc(ms, func(a, b member) int { return cmp.Or(cmp.Compare(a.root, b.root), cmp.Compare(a.v, b.v)) })
	for i := 0; i < len(ms); {
		j := i + 1
		for j < len(ms) && ms[j].root == ms[i].root {
			j++
		}
		for k := i; k < j-1; k++ {
			g.ring[ms[k].v] = ms[k+1].v
		}
		g.ring[ms[j-1].v] = ms[i].v
		i = j
	}
}

// neighbors returns the real Delaunay neighbours of real vertex v.
func (g *Graph) neighbors(v int32) []int32 {
	return g.adj[g.adjStart[v]:g.adjStart[v+1]]
}

// membersOf returns the input indices merged into vertex v.
func (g *Graph) membersOf(v int32) []int32 {
	return g.members[g.memberStart[v]:g.memberStart[v+1]]
}

// id returns the ID that input index i reports in pairs.
func (g *Graph) id(i int32) int64 {
	if g.ids == nil {
		return int64(i)
	}
	return g.ids[i]
}

// cellScratch is what computing cells needs beyond the graph: a clipper
// and the sites a near-twin cell clips by.
type cellScratch struct {
	cl    geom.Clipper
	sites []int32
}

// cell computes the cell of real vertex v as voronoi.BruteCell defines it:
// the domain clipped by the bisector of every site not within Eps of v, in
// ascending order of the sites' input indices. Only the neighbours of the
// Eq sites of v's cluster can cut it, but clipping keeps what lies within
// Eps of a bisector, so where two near-twins' bisectors run within Eps of
// each other the one clipped first bounds the cell. A cell therefore clips
// by its neighbours' whole clusters, in BruteCell's order (see the package
// comment). The result follows cs.cl's aliasing contract.
func (g *Graph) cell(cs *cellScratch, v int32) geom.Polygon {
	site := g.verts[v]
	sites := g.neighbors(v)
	if g.twins && !g.lone(v) {
		sites = g.clipSites(cs, v)
	}
	poly := cs.cl.Seed(g.domain)
	for _, w := range sites {
		if s := g.verts[w]; !s.Eq(site) {
			if poly = cs.cl.Clip(poly, geom.Bisector(site, s)); poly.IsEmpty() {
				return poly
			}
		}
	}
	return poly
}

// lone reports whether neither v nor any neighbour of it has a near-twin,
// so v's cell clips by its neighbour list alone.
func (g *Graph) lone(v int32) bool {
	if g.ring[v] != v {
		return false
	}
	for _, w := range g.neighbors(v) {
		if g.ring[w] != w {
			return false
		}
	}
	return true
}

// clipSites returns, in cs.sites, the sites v's cell clips by, each once,
// by first member: the clusters of the neighbours of the Eq sites of v's
// cluster.
func (g *Graph) clipSites(cs *cellScratch, v int32) []int32 {
	site := g.verts[v]
	cs.sites = cs.sites[:0]
	for u := v; ; {
		if g.verts[u].Eq(site) {
			for _, w0 := range g.neighbors(u) {
				for w := w0; ; {
					cs.sites = append(cs.sites, w)
					if w = g.ring[w]; w == w0 {
						break
					}
				}
			}
		}
		if u = g.ring[u]; u == v {
			break
		}
	}
	slices.SortFunc(cs.sites, func(a, b int32) int {
		return cmp.Compare(g.members[g.memberStart[a]], g.members[g.memberStart[b]])
	})
	cs.sites = slices.Compact(cs.sites)
	return cs.sites
}

// storedCell returns the cell of real vertex v from g's table. Its
// vertices are g's and must not be written.
func (g *Graph) storedCell(v int32) geom.Polygon {
	c := &g.cells[v>>g.cellShift]
	from, to := g.cellStart[v]-c.base, g.cellStart[v+1]-c.base
	return geom.Polygon{V: c.pts[from:to:to]}
}

// nearest walks greedily on the Delaunay graph from real vertex from to
// the real vertex nearest x, stepping to the closest neighbour of the
// current vertex's cluster while one is strictly closer (near-twins tie in
// floats). For x in domain ∪ bbox a sentinel is never closer than the best
// real site, so the graph without sentinels routes too.
func (g *Graph) nearest(from int32, x geom.Point) int32 {
	cur, best := from, g.verts[from].Dist2(x)
	for {
		step := int32(-1)
		for u := cur; ; {
			for _, w := range g.neighbors(u) {
				if d := g.verts[w].Dist2(x); d < best {
					best, step = d, w
				}
			}
			if u = g.ring[u]; u == cur {
				break
			}
		}
		if step < 0 {
			return cur
		}
		cur = step
	}
}
