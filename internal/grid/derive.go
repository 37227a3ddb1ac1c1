package grid

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"weak"

	"cij/internal/geom"
)

// Derive returns the graph NewGraph(pts, ids, domain) would build over
// parent's domain, computed from parent by local edits, and never writes
// parent. The result has NewGraph's vertex order, member lists and IDs,
// its neighbour sets (up to the diagonals of exactly cocircular
// quadruples, where any choice is Delaunay) and, wherever those agree, its
// cells bit for bit. It shares no array with parent.
//
// A point of parent whose ID is still in pts at the same position stays;
// every other one leaves, and every point of pts not matched so arrives
// (a move leaves and arrives). A vertex that loses its last member is
// removed and its star re-triangulated; an arriving point on no vertex is
// inserted as NewGraph inserts; any other change only edits member lists.
// The edits run on a copy of parent's triangulation numbered in NewGraph's
// vertex order, and the result copies parent's cell of every vertex whose
// clipping sites are unchanged and clips the others. It records which
// vertices of either graph did not carry over unchanged, for Churn.
//
// Both ID tables must be ascending (nil is), as Dataset.JoinPoints makes
// them: members are matched by merging the two. Derive returns nil, and
// derives nothing, when either pointset is empty, when the bounding box
// that frames the triangulation changed, or when a removed vertex's star
// is too wide for its re-triangulation to pay; NewGraph then builds the
// graph.
func Derive(parent *Graph, pts []geom.Point, ids []int64) *Graph {
	if ids != nil && len(ids) != len(pts) {
		panic("grid: Derive with an ID table that does not match its points")
	}
	if parent.n == 0 || len(pts) == 0 {
		return nil
	}
	box := parent.domain
	for _, p := range pts {
		box.MinX, box.MaxX = min(box.MinX, p.X), max(box.MaxX, p.X)
		box.MinY, box.MaxY = min(box.MinY, p.Y), max(box.MaxY, p.Y)
	}
	if box != parent.box {
		return nil
	}

	// Match the parent's members to pts by ID; a member stays where its
	// ID survives at the same position.
	oldN := parent.n
	newIndex := make([]int32, len(parent.members)) // parent input index → pts index, or −1
	for j, i := 0, 0; j < len(newIndex); j++ {
		id := parent.id(int32(j))
		for i < len(pts) && idOf(ids, i) < id {
			i++
		}
		newIndex[j] = -1
		if i < len(pts) && idOf(ids, i) == id {
			newIndex[j] = int32(i)
		}
	}
	matched := make([]bool, len(pts))
	kept := make([]int32, oldN)                // surviving members per parent vertex
	stay := make([]int32, len(parent.members)) // by slot of parent.members: the member's pts index, or −1 if it leaves
	for v := range oldN {
		for at := parent.memberStart[v]; at < parent.memberStart[v+1]; at++ {
			stay[at] = -1
			if i := newIndex[parent.members[at]]; i >= 0 && pts[i] == parent.verts[v] {
				stay[at] = i
				matched[i] = true
				kept[v]++
			}
		}
	}
	var arrivals []arrival
	at := make(map[geom.Point]int)
	for i, p := range pts {
		if matched[i] {
			continue
		}
		k, ok := at[p]
		if !ok {
			k = len(arrivals)
			at[p] = k
			arrivals = append(arrivals, arrival{pt: p})
		}
		arrivals[k].idx = append(arrivals[k].idx, int32(i))
	}

	// An arrival on a parent vertex joins it, which then stays whatever it
	// lost; the others become vertices. Both walks go in Hilbert order, so
	// each starts near where the last one ended.
	slices.SortFunc(arrivals, func(a, b arrival) int { return compareHilbert(a.pt, b.pt, box) })
	joins := make([]int32, oldN) // 1 + the arrival that joins a parent vertex, or 0
	var fresh []arrival
	hint := int32(0)
	for k, a := range arrivals {
		if v := parent.vertexAt(&hint, a.pt); v >= 0 {
			joins[v] = int32(k + 1)
		} else {
			fresh = append(fresh, a)
		}
	}
	removed := int32(0)
	for v := range oldN {
		if kept[v] == 0 && joins[v] == 0 {
			removed++
		}
	}
	n := oldN - removed + int32(len(fresh))

	// Lay the vertices out in NewGraph's order first: the parent's
	// surviving vertices keep theirs, and each new one goes before the
	// first parent vertex that follows it on the curve. The edits then run
	// on the laid-out numbering, with each vertex to remove parked past
	// the sentinels until it goes.
	rank := make([]int32, len(fresh))
	for k, a := range fresh {
		rank[k] = int32(sort.Search(int(oldN), func(o int) bool { return compareHilbert(a.pt, parent.verts[o], box) < 0 }))
	}
	index := make([]int32, oldN+4)       // parent vertex → laid-out vertex (or parking slot)
	from := make([]int32, n)             // laid-out vertex → parent vertex, −1 if new
	freshAt := make([]int32, len(fresh)) // laid-out vertex of each new one
	f := &triangulation{
		box:         box,
		verts:       make([]geom.Point, n+4, n+4+removed),
		members:     make([]int32, 0, len(pts)),
		memberStart: make([]int32, 1, n+1),
	}
	// A vertex whose first member now has the other sign of zero moves
	// its stored position, and with it its cell's bits: it counts as
	// changed, with the vertices new to the graph. One whose first member
	// is another point moves in its neighbours' clipping order (byFirst).
	var changed, moved []int32
	w, k := int32(0), 0
	var merged []int32
	for o := int32(0); o <= oldN; o++ {
		for ; k < len(fresh) && rank[k] == o; k++ {
			freshAt[k], from[w] = w, -1
			f.verts[w] = pts[fresh[k].idx[0]]
			f.members = append(f.members, fresh[k].idx...)
			f.memberStart = append(f.memberStart, int32(len(f.members)))
			w++
		}
		if o == oldN {
			break
		}
		if kept[o] == 0 && joins[o] == 0 {
			index[o] = int32(len(f.verts))
			f.verts = append(f.verts, parent.verts[o])
			continue
		}
		merged = merged[:0]
		for _, i := range stay[parent.memberStart[o]:parent.memberStart[o+1]] {
			if i >= 0 {
				merged = append(merged, i)
			}
		}
		if k := joins[o]; k > 0 {
			merged = append(merged, arrivals[k-1].idx...)
			slices.Sort(merged)
		}
		index[o], from[w] = w, o
		if p, q := pts[merged[0]], parent.verts[o]; math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			changed = append(changed, w)
		}
		if idOf(ids, int(merged[0])) != parent.id(parent.members[parent.memberStart[o]]) {
			moved = append(moved, w)
		}
		f.verts[w] = pts[merged[0]]
		f.members = append(f.members, merged...)
		f.memberStart = append(f.memberStart, int32(len(f.members)))
		w++
	}
	for s := int32(0); s < 4; s++ {
		index[oldN+s] = n + s
		f.verts[n+s] = parent.verts[oldN+s]
	}

	// The edits work on copies of the parent's half-edges, renumbered and
	// sized for the result (2 + 2n triangles), which become the derived
	// graph's.
	halfEdges := 3 * max(len(parent.tri)/3, 2+2*int(n))
	f.tri = make([]int32, len(parent.tri), halfEdges)
	for e, v := range parent.tri {
		f.tri[e] = index[v]
	}
	f.twin = append(make([]int32, 0, halfEdges), parent.twin...)
	f.out = make([]int32, len(f.verts))
	for v := range f.out {
		f.out[v] = -1
	}
	for v := n + 4; v < int32(len(f.verts)); v++ {
		if !f.remove(v) {
			return nil
		}
	}
	for _, v := range freshAt {
		f.insert(v)
	}
	f.fillFree()

	g := &Graph{
		domain: parent.domain, box: box, verts: f.verts[:n+4], n: n,
		members: f.members, memberStart: f.memberStart, ids: ids,
		tri: f.tri, twin: f.twin, ring: make([]int32, n),
	}
	// A vertex keeps its parent's cell bit for bit when no vertex of its
	// near-twin cluster is listed: a cell depends on nothing else, and the
	// neighbour lists of both graphs run in the same canonical order.
	changed = append(changed, g.deriveAdjacency(f, parent, from, index, moved)...)
	keep := make([]bool, n)
	for v := range n {
		keep[v] = from[v] >= 0
	}
	for _, v := range changed {
		for u := v; ; {
			keep[u] = false
			if u = g.ring[u]; u == v {
				break
			}
		}
	}
	g.storeCells(runtime.GOMAXPROCS(0), parent.cellShift, parent, from, keep)

	// The record: a kept vertex that gained or lost members differs from
	// its parent vertex too.
	g.derived.parent = weak.Make(parent)
	for v := range n {
		if o := from[v]; !keep[v] || kept[o] < parent.memberStart[o+1]-parent.memberStart[o] || joins[o] > 0 {
			keep[v] = false
			g.derived.cur = append(g.derived.cur, v)
		}
	}
	for o := range oldN {
		if v := index[o]; v >= n || !keep[v] {
			g.derived.old = append(g.derived.old, o)
		}
	}
	return g
}

// maxStar bounds the star a removal re-triangulates: its ear search costs
// O(k³) predicates at worst, against O(n log n) for a rebuild.
const maxStar = 64

// arrival is a position that gains members: the input indices (into the
// derived pointset) of the points that arrive there.
type arrival struct {
	pt  geom.Point
	idx []int32
}

// deriveAdjacency lays out g's neighbour lists and rings as graph would.
// A vertex no edit touched keeps its parent's list, renumbered by index,
// which stays in order unless it holds a vertex of moved, whose first
// member changed; a touched one reads its list off the edited
// triangulation t, which numbers vertices as g does. Only touched
// vertices and the parent's ringed ones can have an edge under 3·Eps, so
// only theirs are searched for clusters.
//
// It returns the vertices whose cells may differ from their parents' for
// want of a changed position: those whose neighbour set changed, the new
// ones included, and the clusters and the clusters' neighbours of the
// vertices that moved in the clipping order or changed cluster, whose
// cells clip by them (see cell).
func (g *Graph) deriveAdjacency(t *triangulation, parent *Graph, from, index, moved []int32) (changed []int32) {
	g.adjStart = make([]int32, g.n+1)
	var lists, starts []int32 // the touched vertices' lists, back to back
	var ringed []int32
	for v := range g.n {
		o, e0 := from[v], t.out[v]
		if e0 < 0 {
			g.adjStart[v+1] = g.adjStart[v] + int32(len(parent.neighbors(o)))
			if parent.ring[o] != o {
				ringed = append(ringed, v)
			}
			continue
		}
		at := len(lists)
		for e := e0; ; {
			if w := t.tri[next(e)]; w < g.n {
				lists = append(lists, w)
			}
			if e = t.twin[prev(e)]; e == e0 {
				break
			}
		}
		list := lists[at:]
		g.byFirst(list)
		starts = append(starts, int32(at))
		g.adjStart[v+1] = g.adjStart[v] + int32(len(list))
		ringed = append(ringed, v)
		if o < 0 || !slices.EqualFunc(parent.neighbors(o), list, func(a, b int32) bool { return index[a] == b }) {
			changed = append(changed, v)
		}
	}
	g.adj = make([]int32, g.adjStart[g.n])
	k := 0
	for v := range g.n {
		adj := g.adj[g.adjStart[v]:g.adjStart[v+1]]
		if t.out[v] >= 0 {
			copy(adj, lists[starts[k]:])
			k++
			continue
		}
		for i, w := range parent.neighbors(from[v]) {
			adj[i] = index[w]
		}
	}
	for _, w := range moved {
		for _, u := range g.neighbors(w) {
			if t.out[u] < 0 {
				g.byFirst(g.neighbors(u))
			}
		}
	}
	g.ringClusters(ringed)
	if g.twins || parent.twins {
		for v := range g.n {
			if o := from[v]; o >= 0 && g.ring[v] != index[parent.ring[o]] {
				moved = append(moved, v)
			}
		}
	}
	for _, w := range moved {
		for u := w; ; {
			changed = append(changed, u)
			changed = append(changed, g.neighbors(u)...)
			if u = g.ring[u]; u == w {
				break
			}
		}
	}
	return changed
}

// idOf is Graph.id for a bare ID table.
func idOf(ids []int64, i int) int64 {
	if ids == nil {
		return int64(i)
	}
	return ids[i]
}

// vertexAt returns the real vertex at exactly p, or −1, walking from
// triangle *from and leaving there the triangle it ended in. A point
// outside the graph's box is no vertex of it.
func (g *Graph) vertexAt(from *int32, p geom.Point) int32 {
	if !g.box.Contains(p) {
		return -1
	}
	t, _ := locate(g.verts, g.tri, g.twin, *from, p)
	*from = t
	for e := 3 * t; e < 3*t+3; e++ {
		if v := g.tri[e]; v < g.n && g.verts[v] == p {
			return v
		}
	}
	return -1
}

// remove deletes real vertex v and re-triangulates its star, a simple
// polygon of its neighbours, by Delaunay ears: a corner whose triangle
// turns left and whose circumcircle holds no other corner of the polygon
// strictly inside. Such an ear always exists, and the ears together are
// the Delaunay triangulation of the star without v. The k−2 ears reuse k−2
// of the star's k triangles; the other two go on the free list. It
// returns false, and changes nothing, when the star has more than maxStar
// corners.
func (t *triangulation) remove(v int32) bool {
	tr, _ := locate(t.verts, t.tri, t.twin, t.last, t.verts[v])
	e0 := 3 * tr
	for t.tri[e0] != v {
		e0++
	}
	// The star counter-clockwise: half-edge es[i] = v→poly[i] starts
	// triangle (v, poly[i], poly[i+1]), whose far edge has outer twin
	// hand[i].
	var es []int32
	for e := e0; ; {
		es = append(es, e)
		if e = t.twin[prev(e)]; e == e0 {
			break
		}
	}
	k := len(es)
	if k > maxStar {
		return false
	}
	poly, hand, nx, pv := make([]int32, k), make([]int32, k), make([]int, k), make([]int, k)
	for i, e := range es {
		poly[i], hand[i] = t.tri[next(e)], t.twin[next(e)]
		nx[i], pv[i] = (i+1)%k, (i+k-1)%k
	}
	used := 0
	put := func(a, b, c int) int32 {
		e := 3 * (es[used] / 3)
		used++
		t.tri[e], t.tri[e+1], t.tri[e+2] = poly[a], poly[b], poly[c]
		t.link(e, hand[a])
		t.link(e+1, hand[b])
		t.touch(e / 3)
		return e
	}
	ear := func(a, b, c int) bool {
		pa, pb, pc := t.verts[poly[a]], t.verts[poly[b]], t.verts[poly[c]]
		if orient(pa, pb, pc) <= 0 {
			return false
		}
		for d := nx[c]; d != a; d = nx[d] {
			if incircle(pa, pb, pc, t.verts[poly[d]]) > 0 {
				return false
			}
		}
		return true
	}
	i := 0
	for left := k; left > 3; left-- {
		for tries := 0; !ear(pv[i], i, nx[i]); tries++ {
			if tries == left {
				panic("grid: no Delaunay ear in a removed vertex's star")
			}
			i = nx[i]
		}
		a, c := pv[i], nx[i]
		hand[a] = put(a, i, c) + 2 // the ear's c→a is the outside of the new edge a→c
		nx[a], pv[c] = c, a
		i = a
	}
	a := i
	b := nx[a]
	e := put(a, b, nx[b])
	t.link(e+2, hand[nx[b]])
	t.last = e / 3
	for _, dead := range es[used:] {
		t.free = append(t.free, dead/3)
	}
	return true
}

// fillFree moves the last triangles into the slots removals left free, so
// the half-edge arrays hold exactly the live triangles, and keeps their
// twins and out's half-edges pointing at them.
func (t *triangulation) fillFree() {
	slices.Sort(t.free)
	for len(t.free) > 0 {
		last := int32(len(t.tri)/3 - 1)
		if k := len(t.free) - 1; t.free[k] == last {
			t.free = t.free[:k]
		} else {
			s := t.free[0]
			t.free = t.free[1:]
			for r := range int32(3) {
				e, from := 3*s+r, 3*last+r
				t.tri[e], t.twin[e] = t.tri[from], t.twin[from]
				if o := t.twin[e]; o >= 0 {
					t.twin[o] = e
				}
				if t.out[t.tri[e]] == from {
					t.out[t.tri[e]] = e
				}
			}
		}
		t.tri, t.twin = t.tri[:3*last], t.twin[:3*last]
	}
}
