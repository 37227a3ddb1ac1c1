package grid

import (
	"cmp"
	"math"
	"slices"

	"cij/internal/geom"
)

// triangulation is the Delaunay triangulation of one operand's distinct
// points plus four sentinels, and the Delaunay graph on its real vertices
// that the join walks.
//
// Triangle t owns half-edges 3t, 3t+1 and 3t+2, counter-clockwise;
// half-edge e runs from vertex tri[e] to the origin of the next half-edge
// of its triangle, and twin[e] is the opposite half-edge (−1 on the four
// outer edges of the sentinel frame).
type triangulation struct {
	// verts holds the distinct input points in Hilbert order, then the
	// four sentinels: vertices below n are real.
	verts []geom.Point
	n     int32
	// members lists the input indices merged into vertex v (identical
	// points) in members[memberStart[v]:memberStart[v+1]].
	members     []int32
	memberStart []int32
	tri, twin   []int32
	// adj lists the real Delaunay neighbours of real vertex v in
	// adj[adjStart[v]:adjStart[v+1]]; edges to sentinels are dropped.
	adj      []int32
	adjStart []int32
	ring     []int32 // the next vertex of v's near-twin cluster, a cycle (see buildGraph)
	last     int32   // the last triangle created, where the next walk starts
	stack    []int32 // half-edges awaiting the Delaunay check
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
	t := &triangulation{}
	t.mergeInHilbertOrder(pts, box)

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
		// Split the triangle holding v 1→3, or the two on the edge it lies
		// on 2→4, and flip until the triangulation is Delaunay again.
		if tr, e := t.locate(v); e < 0 {
			t.split3(tr, v)
		} else {
			t.split4(e, v)
		}
		t.legalize()
	}
	t.buildGraph()
	return t
}

// mergeInHilbertOrder sorts pts along the Hilbert curve over box and
// fills verts and the member lists, one vertex per distinct point.
func (t *triangulation) mergeInHilbertOrder(pts []geom.Point, box geom.Rect) {
	type keyed struct {
		h  uint64
		pt geom.Point
		i  int32
	}
	ks := make([]keyed, len(pts))
	for i, p := range pts {
		ks[i] = keyed{geom.HilbertValue(p, box), p, int32(i)}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.h != b.h {
			return cmp.Compare(a.h, b.h)
		}
		return cmp.Or(cmp.Compare(a.pt.X, b.pt.X), cmp.Compare(a.pt.Y, b.pt.Y), cmp.Compare(a.i, b.i))
	})
	t.members = make([]int32, len(ks))
	t.verts = make([]geom.Point, 0, len(ks)+4)
	t.memberStart = make([]int32, 0, len(ks)+1)
	for i, k := range ks {
		t.members[i] = k.i
		if i == 0 || k.pt != ks[i-1].pt {
			t.verts = append(t.verts, k.pt)
			t.memberStart = append(t.memberStart, int32(i))
		}
	}
	t.memberStart = append(t.memberStart, int32(len(ks)))
	t.n = int32(len(t.verts))
}

// locate walks from the last triangle created towards vertex v, crossing
// any edge that has v strictly on its far side. In a Delaunay
// triangulation this visibility walk cannot cycle. It returns the
// triangle whose closure holds v and, when v lies on one of its edges,
// that half-edge (else −1).
func (t *triangulation) locate(v int32) (tri, edge int32) {
	tri, entry := t.last, int32(-1)
walk:
	for {
		edge = -1
		for e := 3 * tri; e < 3*tri+3; e++ {
			if e == entry {
				continue // v lies strictly on this side of the edge we came in by
			}
			switch orient(t.verts[t.tri[e]], t.verts[t.tri[next(e)]], t.verts[v]) {
			case -1:
				entry = t.twin[e]
				tri = entry / 3
				continue walk
			case 0:
				edge = e
			}
		}
		return tri, edge
	}
}

// addTriangle appends triangle (a, b, c) with all twins unset and returns
// its index.
func (t *triangulation) addTriangle(a, b, c int32) int32 {
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
	}
}

// buildGraph lays out the real vertices' Delaunay neighbours (every edge
// between real vertices is interior, so each has one outgoing half-edge
// per neighbour) and rings each near-twin cluster: a component of the
// Delaunay edges under 3·Eps in both coordinates, which holds every path
// of sites Eq to one site.
func (t *triangulation) buildGraph() {
	t.adjStart = make([]int32, t.n+1)
	for e := range t.tri {
		if u, w := t.tri[e], t.tri[next(int32(e))]; u < t.n && w < t.n {
			t.adjStart[u+1]++
		}
	}
	t.ring = make([]int32, t.n)
	for v := int32(1); v <= t.n; v++ {
		t.adjStart[v] += t.adjStart[v-1]
		t.ring[v-1] = v - 1
	}
	t.adj = make([]int32, t.adjStart[t.n])
	fill := slices.Clone(t.adjStart[:t.n])
	for e := range t.tri {
		if u, w := t.tri[e], t.tri[next(int32(e))]; u < t.n && w < t.n {
			t.adj[fill[u]] = w
			fill[u]++
			if d := t.verts[w].Sub(t.verts[u]); math.Abs(d.X) < 3*geom.Eps && math.Abs(d.Y) < 3*geom.Eps {
				x := t.ring[u]
				for x != u && x != w {
					x = t.ring[x]
				}
				if x == u { // w is on another ring: splice the two
					t.ring[u], t.ring[w] = t.ring[w], t.ring[u]
				}
			}
		}
	}
}

// neighbors returns the real Delaunay neighbours of real vertex v.
func (t *triangulation) neighbors(v int32) []int32 {
	return t.adj[t.adjStart[v]:t.adjStart[v+1]]
}

// membersOf returns the input indices merged into vertex v.
func (t *triangulation) membersOf(v int32) []int32 {
	return t.members[t.memberStart[v]:t.memberStart[v+1]]
}

// cell computes the cell of real vertex v as voronoi.BruteCell defines it:
// the domain clipped by the bisector of every site not within Eps of v,
// of which only the neighbours of the Eq sites of v's cluster can cut it
// (see the package comment). The result follows cl's aliasing contract.
func (t *triangulation) cell(cl *geom.Clipper, v int32, domain geom.Rect) geom.Polygon {
	poly := cl.Seed(domain)
	site := t.verts[v]
	for u := v; ; {
		if t.verts[u].Eq(site) {
			for _, w := range t.neighbors(u) {
				if s := t.verts[w]; !s.Eq(site) {
					if poly = cl.Clip(poly, geom.Bisector(site, s)); poly.IsEmpty() {
						return poly
					}
				}
			}
		}
		if u = t.ring[u]; u == v {
			return poly
		}
	}
}

// nearest walks greedily on the Delaunay graph from real vertex from to
// the real vertex nearest x, stepping to the closest neighbour of the
// current vertex's cluster while one is strictly closer (near-twins tie in
// floats). For x in domain ∪ bbox a sentinel is never closer than the best
// real site, so the graph without sentinels routes too.
func (t *triangulation) nearest(from int32, x geom.Point) int32 {
	cur, best := from, t.verts[from].Dist2(x)
	for {
		step := int32(-1)
		for u := cur; ; {
			for _, w := range t.neighbors(u) {
				if d := t.verts[w].Dist2(x); d < best {
					best, step = d, w
				}
			}
			if u = t.ring[u]; u == cur {
				break
			}
		}
		if step < 0 {
			return cur
		}
		cur = step
	}
}
