// Package voronoi implements the Voronoi-cell computation machinery of the
// CIJ paper (Section III): the single-traversal best-first algorithm
// BF-VOR (Algorithm 1, the paper's side contribution), the batch variant
// for groups of nearby points (Algorithm 2), the multiple-traversal
// baseline TP-VOR it is compared against (Fig. 5), full-diagram builders
// ITER and BATCH (Fig. 6, Table II), and a brute-force reference used by
// the test suite.
//
// A Voronoi cell is represented as a convex polygon obtained by clipping
// the rectangular space domain U with bisector halfplanes (Eq. 2).
//
// The traversal algorithms come in two forms: allocation-free methods on a
// reusable Workspace (the hot path — cell polygons alias the workspace and
// are invalidated by its next use), and package-level wrappers (BFVor,
// BatchVoronoi) that return independently owned cells at the cost of one
// allocation per cell.
package voronoi

import (
	"math"

	"cij/internal/geom"
	"cij/internal/pq"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// Site is an indexed point: the dataset index doubles as the R-tree object
// ID, which is how the algorithms recognize the query point itself during
// traversals.
type Site struct {
	ID int64
	Pt geom.Point
}

// Cell is a computed Voronoi cell.
type Cell struct {
	Site Site
	Poly geom.Polygon
}

// CanRefinePoint reports whether point pj could still refine a cell of pi
// with vertex set vertices and squared circumradius rad2 around pi. It is
// the negation of the pruning condition of Lemma 1 — refinement is
// possible iff there EXISTS a vertex γ with dist(pj, γ) < dist(γ, pi) —
// behind an O(1) radius prefilter: by the triangle inequality,
// dist(pj, γ) ≥ dist(pi, pj) − dist(pi, γ), so when dist(pi, pj) ≥ 2·R
// (with R = max dist(pi, γ)) no vertex can be strictly closer to pj and
// the per-vertex scan is skipped entirely.
//
// The predicate is exported because it is the correctness foundation of
// every tree-driven cell computation in this module: the R-tree
// traversals here prune with it, and NM-CIJ's refinement step
// (internal/core) skips non-refining candidates with the same test.
func CanRefinePoint(vertices []geom.Point, pi, pj geom.Point, rad2 float64) bool {
	if pi.Dist2(pj) >= 4*rad2 {
		return false
	}
	// dist²(pj,γ) < dist²(pi,γ) unrolls to 2(pj−pi)·γ > |pj|² − |pi|² —
	// one dot product per vertex instead of two squared distances. This is
	// the bisector's own sidedness function, so a sub-tolerance rounding
	// difference against the distance form cannot change what the clipper
	// does with the answer: a vertex this close to the bisector is a no-op
	// clip either way.
	nx, ny := 2*(pj.X-pi.X), 2*(pj.Y-pi.Y)
	c := pj.X*pj.X + pj.Y*pj.Y - pi.X*pi.X - pi.Y*pi.Y
	for _, g := range vertices {
		if nx*g.X+ny*g.Y > c {
			return true
		}
	}
	return false
}

// CanRefineMBR is the rectangle form of the test (Lemma 2): a point inside
// rectangle r (an R-tree entry's MBR) could refine the cell iff some
// vertex γ has mindist(r, γ) < dist(γ, pi). The same triangle-inequality
// prefilter applies with mindist(r, pi) in place of dist(pi, pj).
func CanRefineMBR(vertices []geom.Point, pi geom.Point, r geom.Rect, rad2 float64) bool {
	if r.MinDist2(pi) >= 4*rad2 {
		return false
	}
	for _, g := range vertices {
		if r.MinDist2(g) < pi.Dist2(g) {
			return true
		}
	}
	return false
}

// Workspace holds the reusable state of the best-first cell computations:
// the typed priority queue driving the traversal, per-cell clipping
// buffers for the refinements, and the per-cell circumradii that power the
// O(1) refinement prune (see CanRefinePoint). The zero value is ready for
// use. Reusing one workspace across calls (one per pipeline, one per
// worker) makes the traversals allocation-free after the first few
// batches.
//
// The cell polygons produced by the workspace methods alias its clipping
// buffers: they are invalidated by the next call on the same workspace and
// must be Cloned (or copied into caller-owned storage) to be retained.
// A Workspace is not safe for concurrent use.
type Workspace struct {
	q       pq.Queue
	clips   []geom.Clipper // one per group member, reused across calls
	rad2    []float64      // per-cell squared circumradius around its site
	pts     []geom.Point   // centroid scratch
	anchorD []float64      // per-cell distance anchor→site, fixed per batch
	thresh  []float64      // per-cell retirement key, see BatchVoronoi
	active  []int          // cell indexes not yet retired
}

// ensureClips grows the per-cell clipper pool to at least n entries.
func (ws *Workspace) ensureClips(n int) {
	for len(ws.clips) < n {
		ws.clips = append(ws.clips, geom.Clipper{})
	}
}

// BFVor computes the exact Voronoi cell V(pi, P) of site pi in the
// pointset indexed by t, with a single best-first traversal of the tree
// (Algorithm 1, "SingleVoronoi"). Entries are visited in ascending mindist
// from pi so that nearby points shrink the cell early; an entry is pruned
// as soon as Lemma 2 certifies that no point below it can refine the
// current cell. The returned polygon aliases the workspace.
func (ws *Workspace) BFVor(t *rtree.Tree, pi Site, domain geom.Rect) geom.Polygon {
	ws.ensureClips(1)
	cl := &ws.clips[0]
	cell := cl.Seed(domain)
	if t.Root() == storage.InvalidPage {
		return cell
	}
	rad2 := geom.MaxDist2(cell.V, pi.Pt)
	q := &ws.q
	q.Reset()
	q.PushNode(t.ReadNode(t.Root()), pi.Pt)
	for q.Len() > 0 {
		e := q.Pop()
		// Entries arrive in ascending mindist from pi; once the next key
		// reaches 2·radius, Lemma 1/2's O(1) prefilter rejects this entry
		// and every remaining one, so the tail of the queue is drained
		// wholesale. No entry that could have refined — and no child read —
		// is skipped: pruned internal entries were never expanded anyway.
		if e.Key >= 4*rad2 {
			q.Reset()
			break
		}
		if e.Leaf {
			if e.Ref == pi.ID {
				continue
			}
			// Lemma 1: pj refines only if some vertex is closer to pj than
			// to pi.
			pt := e.Pt()
			// CanRefinePoint's vertex scan is the clip's own prescan, so a
			// pass goes straight to the copying clip (a within-tolerance
			// pass re-emits the identical ring and recomputes the identical
			// radius — bit-equal either way).
			if CanRefinePoint(cell.V, pi.Pt, pt, rad2) {
				cell = cl.Clip(cell, geom.Bisector(pi.Pt, pt))
				rad2 = geom.MaxDist2(cell.V, pi.Pt)
			}
			continue
		}
		// Lemma 2 pruning for subtrees.
		if !CanRefineMBR(cell.V, pi.Pt, e.MBR, rad2) {
			continue
		}
		q.PushNode(t.ReadNode(e.Child()), pi.Pt)
	}
	return cell
}

// BFVor is the owning-result form of Workspace.BFVor for callers outside
// the hot path: the returned polygon is independent of any scratch.
func BFVor(t *rtree.Tree, pi Site, domain geom.Rect) geom.Polygon {
	var ws Workspace
	return ws.BFVor(t, pi, domain).Clone()
}

// BatchVoronoi computes the exact Voronoi cells of all sites in group
// concurrently with a single traversal (Algorithm 2), appending them to
// dst (which may be nil) and returning it. The group is expected to be
// spatially compact (typically the contents of one leaf node); entries are
// visited in ascending mindist from the group centroid, and an entry
// survives pruning if it may refine ANY group member's cell. The cell
// polygons alias the workspace.
func (ws *Workspace) BatchVoronoi(t *rtree.Tree, group []Site, domain geom.Rect, dst []Cell) []Cell {
	ws.ensureClips(len(group))
	for i, s := range group {
		dst = append(dst, Cell{Site: s, Poly: ws.clips[i].Seed(domain)})
	}
	if len(group) == 0 || t.Root() == storage.InvalidPage {
		return dst
	}
	cells := dst[len(dst)-len(group):]
	ws.pts = ws.pts[:0]
	ws.rad2 = ws.rad2[:0]
	for i, s := range group {
		ws.pts = append(ws.pts, s.Pt)
		ws.rad2 = append(ws.rad2, geom.MaxDist2(cells[i].Poly.V, s.Pt))
	}
	anchor := geom.Centroid(ws.pts)
	// Cell retirement. The queue pops entries in ascending mindist from
	// the anchor, and an entry at key k can only refine cell i if
	// k < thresh_i = (dist(anchor, site_i) + 2·rad_i)²: by the triangle
	// inequality, every point of the entry is at least
	// √k − dist(anchor, site_i) ≥ 2·rad_i from site_i, which is exactly
	// the regime Lemma 1/2's O(1) prefilter rejects. Keys only grow and
	// radii only shrink, so once k reaches thresh_i the cell is FINISHED —
	// no later entry can touch it — and it leaves the active list for
	// good. The scan loops then run over the shrinking active set, and an
	// empty set drains the queue outright. Retirement skips only
	// provably-rejected tests: cells, reads and clip sequences are
	// bit-identical to the full scans.
	ws.anchorD = ws.anchorD[:0]
	ws.thresh = ws.thresh[:0]
	ws.active = ws.active[:0]
	for i, s := range group {
		ad := anchor.Dist(s.Pt)
		ws.anchorD = append(ws.anchorD, ad)
		d := ad + 2*math.Sqrt(ws.rad2[i])
		ws.thresh = append(ws.thresh, d*d)
		ws.active = append(ws.active, i)
	}
	sinceRetire := 0

	q := &ws.q
	q.Reset()
	q.PushNode(t.ReadNode(t.Root()), anchor)
	for q.Len() > 0 {
		e := q.Pop()
		// Retire cells whose threshold the current key has reached, every
		// few pops (lingering cells are harmless: their Lemma 1/2
		// prefilter rejects the same entries one comparison later).
		// Swap-removal is fine: each cell clips through its own clipper,
		// so cross-cell scan order is immaterial.
		if sinceRetire++; sinceRetire >= 8 {
			sinceRetire = 0
			for k := 0; k < len(ws.active); {
				if e.Key >= ws.thresh[ws.active[k]] {
					ws.active[k] = ws.active[len(ws.active)-1]
					ws.active = ws.active[:len(ws.active)-1]
				} else {
					k++
				}
			}
			if len(ws.active) == 0 {
				q.Reset()
				break
			}
		}
		if e.Leaf {
			pt := e.Pt()
			for _, i := range ws.active {
				// Same bound as retirement, per entry: a key past the cell's
				// threshold cannot pass the Lemma 1 prefilter.
				if e.Key >= ws.thresh[i] {
					continue
				}
				c := &cells[i]
				if e.Ref == c.Site.ID {
					continue
				}
				if CanRefinePoint(c.Poly.V, c.Site.Pt, pt, ws.rad2[i]) {
					c.Poly = ws.clips[i].Clip(c.Poly, geom.Bisector(c.Site.Pt, pt))
					ws.rad2[i] = geom.MaxDist2(c.Poly.V, c.Site.Pt)
					d := ws.anchorD[i] + 2*math.Sqrt(ws.rad2[i])
					ws.thresh[i] = d * d
				}
			}
			continue
		}
		refinesAny := false
		for _, i := range ws.active {
			if e.Key >= ws.thresh[i] {
				continue
			}
			if CanRefineMBR(cells[i].Poly.V, cells[i].Site.Pt, e.MBR, ws.rad2[i]) {
				refinesAny = true
				break
			}
		}
		if !refinesAny {
			continue
		}
		q.PushNode(t.ReadNode(e.Child()), anchor)
	}
	return dst
}

// BatchVoronoi is the owning-result form of Workspace.BatchVoronoi: the
// returned cells are independent of any scratch.
func BatchVoronoi(t *rtree.Tree, group []Site, domain geom.Rect) []Cell {
	var ws Workspace
	cells := ws.BatchVoronoi(t, group, domain, make([]Cell, 0, len(group)))
	for i := range cells {
		cells[i].Poly = cells[i].Poly.Clone()
	}
	return cells
}

// AppendSites appends the point entries of a leaf node to dst as sites,
// for callers that reuse one sites buffer across leaves.
func AppendSites(dst []Site, leaf *rtree.Node) []Site {
	for _, e := range leaf.Entries {
		dst = append(dst, Site{ID: e.ID, Pt: e.Pt})
	}
	return dst
}

// SitesOfLeaf converts the point entries of a leaf node into sites.
func SitesOfLeaf(leaf *rtree.Node) []Site {
	return AppendSites(make([]Site, 0, len(leaf.Entries)), leaf)
}
