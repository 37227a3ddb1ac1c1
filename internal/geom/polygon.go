package geom

import (
	"fmt"
	"math"
	"strings"
)

// Polygon is a convex polygon with vertices in counter-clockwise order.
// The zero value (no vertices) is the empty polygon. Every Voronoi cell in
// this module is a Polygon: it starts as the rectangular space domain and
// is progressively clipped by bisector halfplanes (Eq. 2 of the paper), an
// operation that preserves convexity and orientation.
type Polygon struct {
	V []Point
}

// Halfplane is the closed region {a : N·a ≤ C}. The outward normal N points
// away from the kept side. Scale caches |N| (clamped to ≥1) for sidedness
// tolerances; zero means "compute on demand".
type Halfplane struct {
	N     Point   // normal vector
	C     float64 // offset
	Scale float64 // cached max(1, |N|); 0 = not yet computed
}

// Bisector returns the halfplane ⊥pi(pi, pj) of Eq. 1: the locations at
// least as close to pi as to pj. Its boundary is the perpendicular bisector
// of segment pi pj.
//
// dist(pi,a) ≤ dist(pj,a)  ⟺  2(pj−pi)·a ≤ |pj|² − |pi|².
func Bisector(pi, pj Point) Halfplane {
	n := Point{2 * (pj.X - pi.X), 2 * (pj.Y - pi.Y)}
	c := pj.X*pj.X + pj.Y*pj.Y - pi.X*pi.X - pi.Y*pi.Y
	h := Halfplane{N: n, C: c}
	h.Scale = h.scale()
	return h
}

// Side returns N·a − C: negative inside the halfplane, positive outside.
func (h Halfplane) Side(a Point) float64 { return h.N.Dot(a) - h.C }

// Contains reports whether a lies in the closed halfplane (with tolerance).
func (h Halfplane) Contains(a Point) bool { return h.Side(a) <= Eps*h.scale() }

// scale returns a magnitude used to make the sidedness tolerance relative
// to the normal length, so that Bisector halfplanes of nearby and faraway
// point pairs behave consistently.
func (h Halfplane) scale() float64 {
	if h.Scale > 0 {
		return h.Scale
	}
	// Plain sqrt, not math.Hypot: coordinates are domain-scale (≤1e4), so
	// overflow protection is unnecessary and Hypot is ~3x slower in this
	// per-clip hot path.
	s := math.Sqrt(h.N.X*h.N.X + h.N.Y*h.N.Y)
	if s < 1 {
		return 1
	}
	return s
}

// IsEmpty reports whether the polygon has no interior (fewer than 3
// vertices).
func (g Polygon) IsEmpty() bool { return len(g.V) < 3 }

// Clone returns a deep copy of g.
func (g Polygon) Clone() Polygon {
	return Polygon{V: append([]Point(nil), g.V...)}
}

// Clip intersects g with the halfplane h using Sutherland–Hodgman clipping.
// The result is again convex and counter-clockwise; it may be empty.
func (g Polygon) Clip(h Halfplane) Polygon {
	if g.IsEmpty() {
		return Polygon{}
	}
	out := clipInto(g.V, h, make([]Point, 0, len(g.V)+2))
	if len(out) < 3 {
		return Polygon{}
	}
	return Polygon{V: out}
}

// clipInto clips the CCW vertex ring vs by h, appending into out (which
// must not alias vs) and returning it.
func clipInto(vs []Point, h Halfplane, out []Point) []Point {
	tol := Eps * h.scale()
	n := len(vs)
	prev := vs[n-1]
	prevSide := h.Side(prev)
	for i := 0; i < n; i++ {
		cur := vs[i]
		curSide := h.Side(cur)
		switch {
		case curSide <= tol: // current vertex kept
			if prevSide > tol {
				// Entering the halfplane: add the crossing point first.
				out = appendVertex(out, intersectEdge(prev, cur, prevSide, curSide))
			}
			out = appendVertex(out, cur)
		case prevSide <= tol: // leaving the halfplane
			out = appendVertex(out, intersectEdge(prev, cur, prevSide, curSide))
		}
		prev, prevSide = cur, curSide
	}
	// Dedup wrap-around duplicates.
	for len(out) > 1 && out[0].Eq(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

// Clipper performs repeated halfplane clipping through two reusable
// buffers, for hot paths that discard intermediate polygons (the
// approximate-cell tests of the conditional filter and the Voronoi cell
// refinements clip millions of times per join).
//
// Aliasing contract: every polygon returned by Seed, Clip or Intersect
// aliases the clipper's internal storage. Such a result stays valid as the
// input of the immediately following call on the same clipper (the buffers
// ping-pong), but it is overwritten two calls later — Clone it if it must
// survive, or copy its vertices into caller-owned storage. Polygons that
// must be read throughout a chain (the subtrahend o of Intersect) must NOT
// alias the clipper's buffers. A Clipper is not safe for concurrent use.
//
// After the two buffers have grown to a chain's high-water vertex count,
// all three operations allocate nothing (guarded by TestClipperZeroAlloc).
type Clipper struct {
	bufs [2][]Point
	cur  int
}

// Seed loads the four corners of r into the clipper's scratch and returns
// them as a polygon, so a clipping chain can start from the rectangular
// space domain without the allocation of Rect.Polygon. The result follows
// the clipper aliasing contract.
func (cl *Clipper) Seed(r Rect) Polygon {
	buf := append(cl.bufs[cl.cur][:0],
		Point{r.MinX, r.MinY},
		Point{r.MaxX, r.MinY},
		Point{r.MaxX, r.MaxY},
		Point{r.MinX, r.MaxY},
	)
	cl.bufs[cl.cur] = buf
	cl.cur = 1 - cl.cur
	return Polygon{V: buf}
}

// Clip is the buffer-reusing equivalent of Polygon.Clip. The input g may
// be the result of the previous Clip call on the same Clipper.
func (cl *Clipper) Clip(g Polygon, h Halfplane) Polygon {
	if g.IsEmpty() {
		return Polygon{}
	}
	buf := cl.bufs[cl.cur][:0]
	out := clipInto(g.V, h, buf)
	cl.bufs[cl.cur] = out // retain grown capacity
	cl.cur = 1 - cl.cur
	if len(out) < 3 {
		return Polygon{}
	}
	return Polygon{V: out}
}

// ClipCut is Clip with a no-op fast path: when every vertex of g already
// lies inside h (within the clipping tolerance), the clip would emit g
// verbatim, so ClipCut returns g itself — no copy, no buffer rotation —
// and reports cut=false. Hot loops use the report to skip work that only
// a changed polygon invalidates (circumradius recomputation, bounds
// re-tests). When some vertex is outside, the regular clip runs and
// cut=true.
//
// The result is bit-identical to Clip in both cases: a Sutherland–Hodgman
// pass over an all-inside ring reproduces the ring unchanged. Returning g
// on the fast path preserves the clipper aliasing contract — the buffers
// do not rotate, so the "input of the immediately following call" window
// is unchanged.
func (cl *Clipper) ClipCut(g Polygon, h Halfplane) (out Polygon, cut bool) {
	if g.IsEmpty() {
		return Polygon{}, false
	}
	tol := Eps * h.scale()
	for _, v := range g.V {
		if h.Side(v) > tol {
			cut = true
			break
		}
	}
	if !cut {
		return g, false
	}
	return cl.Clip(g, h), true
}

// Intersect is the buffer-reusing form of Polygon.Intersection (which
// delegates here): it clips g successively by the supporting halfplane of
// every edge of o. g may be a previous result of this clipper; o must not
// alias the clipper's buffers (it is read throughout the chain). The
// result follows the clipper aliasing contract.
func (cl *Clipper) Intersect(g, o Polygon) Polygon {
	if g.IsEmpty() || o.IsEmpty() {
		return Polygon{}
	}
	res := g
	n := len(o.V)
	for i := 0; i < n && !res.IsEmpty(); i++ {
		j := i + 1
		if j == n {
			j = 0
		}
		e := o.V[j].Sub(o.V[i])
		// Interior of a CCW polygon is left of the edge: normal (e.Y, -e.X)
		// points outward, keep N·a ≤ N·vi. ClipCut skips the copy for
		// edges that do not cut (bit-identical output either way). Scale
		// is set once here, so ClipCut and the clip under it share one
		// square root: the value scale() would compute in each.
		nrm := Point{e.Y, -e.X}
		h := Halfplane{N: nrm, C: nrm.Dot(o.V[i])}
		h.Scale = h.scale()
		res, _ = cl.ClipCut(res, h)
	}
	return res
}

// appendVertex adds v unless it duplicates the previous vertex.
func appendVertex(vs []Point, v Point) []Point {
	if len(vs) > 0 && vs[len(vs)-1].Eq(v) {
		return vs
	}
	return append(vs, v)
}

// intersectEdge returns the point where edge a→b crosses the halfplane
// boundary, given the signed sidedness values of the endpoints.
func intersectEdge(a, b Point, sa, sb float64) Point {
	t := sa / (sa - sb)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)}
}

// ClipBisector clips g by the bisector halfplane of (pi, pj), keeping the
// side of pi. This is the Voronoi cell refinement step ("update Vc(pi) by
// ⊥pi(pi,pj)", line 9 of Algorithm 1).
func (g Polygon) ClipBisector(pi, pj Point) Polygon {
	return g.Clip(Bisector(pi, pj))
}

// Area returns the area of g by the shoelace formula (zero when empty).
func (g Polygon) Area() float64 {
	if g.IsEmpty() {
		return 0
	}
	var s float64
	n := len(g.V)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += g.V[i].Cross(g.V[j])
	}
	return s / 2
}

// Centroid returns the area centroid of g; for (near-)degenerate polygons
// it falls back to the vertex mean. The centroid is used as the best-first
// ordering anchor T̄ of the ConditionalFilter.
func (g Polygon) Centroid() Point {
	if len(g.V) == 0 {
		panic("geom: centroid of empty polygon")
	}
	a := g.Area()
	if a < Eps {
		return Centroid(g.V)
	}
	var cx, cy float64
	n := len(g.V)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		w := g.V[i].Cross(g.V[j])
		cx += (g.V[i].X + g.V[j].X) * w
		cy += (g.V[i].Y + g.V[j].Y) * w
	}
	return Point{cx / (6 * a), cy / (6 * a)}
}

// Bounds returns the MBR of g.
func (g Polygon) Bounds() Rect {
	if len(g.V) == 0 {
		return EmptyRect()
	}
	r := Rect{MinX: g.V[0].X, MinY: g.V[0].Y, MaxX: g.V[0].X, MaxY: g.V[0].Y}
	for _, v := range g.V[1:] {
		if v.X < r.MinX {
			r.MinX = v.X
		}
		if v.X > r.MaxX {
			r.MaxX = v.X
		}
		if v.Y < r.MinY {
			r.MinY = v.Y
		}
		if v.Y > r.MaxY {
			r.MaxY = v.Y
		}
	}
	return r
}

// MaxDist2 returns the largest squared distance from p to any point of vs
// (zero for an empty slice). For a convex cell's vertex ring this is the
// squared circumradius around p, the quantity behind the O(1) refinement
// prune: a site farther than twice this radius from p cannot cut the cell.
func MaxDist2(vs []Point, p Point) float64 {
	var m float64
	for _, v := range vs {
		if d := p.Dist2(v); d > m {
			m = d
		}
	}
	return m
}

// Contains reports whether point p lies in the closed polygon.
func (g Polygon) Contains(p Point) bool {
	if g.IsEmpty() {
		return false
	}
	n := len(g.V)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		e := g.V[j].Sub(g.V[i])
		// CCW orientation: interior is to the left of each edge.
		if e.Cross(p.Sub(g.V[i])) < -Eps*(1+math.Hypot(e.X, e.Y)) {
			return false
		}
	}
	return true
}

// Intersects reports whether two closed convex polygons share at least one
// point, via the separating axis theorem: the polygons are disjoint iff
// some edge of either is a separating line.
func (g Polygon) Intersects(o Polygon) bool {
	if !g.Bounds().Intersects(o.Bounds()) {
		return false
	}
	return g.IntersectsSAT(o)
}

// IntersectsSAT is Intersects without the bounding-box fast path, for hot
// loops that have already compared (cached) bounds: it goes straight to
// the separating-axis test. Polygon.Bounds is O(vertices) and recomputing
// it for every pair of a join loop is measurable.
func (g Polygon) IntersectsSAT(o Polygon) bool {
	if g.IsEmpty() || o.IsEmpty() {
		return false
	}
	return !hasSeparatingEdge(g, o) && !hasSeparatingEdge(o, g)
}

// hasSeparatingEdge reports whether some edge of a has all vertices of b
// strictly on its outer side.
func hasSeparatingEdge(a, b Polygon) bool {
	n := len(a.V)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		e := a.V[j].Sub(a.V[i])
		scale := Eps * (1 + math.Hypot(e.X, e.Y))
		separating := true
		for _, v := range b.V {
			if e.Cross(v.Sub(a.V[i])) >= -scale {
				separating = false
				break
			}
		}
		if separating {
			return true
		}
	}
	return false
}

// IntersectsRect reports whether g intersects the closed rectangle r.
func (g Polygon) IntersectsRect(r Rect) bool {
	if g.IsEmpty() || r.IsEmpty() {
		return false
	}
	if !g.Bounds().Intersects(r) {
		return false
	}
	return g.Intersects(r.Polygon())
}

// Intersection returns the convex intersection polygon g ∩ o (possibly
// empty). It clips g successively by the supporting halfplane of every edge
// of o. The CIJ applications use it to obtain the common influence region
// R(p, q) = V(p,P) ∩ V(q,Q) of a join pair. It delegates to
// Clipper.Intersect, so the owning and pooled forms cannot diverge — the
// join predicate's verdict depends on them applying the identical
// halfplane sequence.
func (g Polygon) Intersection(o Polygon) Polygon {
	var cl Clipper
	return cl.Intersect(g, o).Clone()
}

// IsConvexCCW reports whether the vertex sequence forms a convex polygon in
// counter-clockwise order (allowing collinear runs). Used by tests and
// invariant checks.
func (g Polygon) IsConvexCCW() bool {
	n := len(g.V)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		a, b, c := g.V[i], g.V[(i+1)%n], g.V[(i+2)%n]
		e1, e2 := b.Sub(a), c.Sub(b)
		scale := Eps * (1 + math.Hypot(e1.X, e1.Y)*math.Hypot(e2.X, e2.Y))
		if e1.Cross(e2) < -scale {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (g Polygon) String() string {
	var sb strings.Builder
	sb.WriteString("Polygon[")
	for i, v := range g.V {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%v", v)
	}
	sb.WriteString("]")
	return sb.String()
}
