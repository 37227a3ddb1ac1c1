// Package delta maintains a common-influence join incrementally under
// point-level mutation. The paper's Lemma 1/2 bound the influence of any
// single point to the region its Voronoi cell can reach, so a localized
// insert, delete or move perturbs only the cells overlapping the changed
// point's old and new cells — everything else of Vor(P) is geometrically
// identical before and after, and so is every join verdict it
// participates in. PairChurn exploits that: instead of recomputing
// CIJ(P', Q) from scratch, it computes exactly which pairs appear and
// disappear, touching O(affected sites) cells instead of O(|P|·|Q|).
//
// Correctness sketch (the internal/check oracle pins it across the full
// adversarial seed matrix):
//
//   - A surviving site p's cell changes between Vor(P) and Vor(P') only
//     if some location's nearest site flipped between p and a changed
//     point. If a location moved OUT of V(p), its new owner must be an
//     inserted point x (two surviving sites cannot swap ownership of a
//     location when neither moved), so the location lies in
//     V_old(p) ∩ V_new(x). Symmetrically, a location that moved INTO
//     V(p) was owned by a deleted point x, so it lies in
//     V_new(p) ∩ V_old(x). Affected sites are therefore exactly those
//     whose old cell overlaps some inserted point's new cell, or whose
//     new cell overlaps some deleted point's old cell — plus the changed
//     points themselves. An update contributes both of its positions.
//   - A cell whose symmetric difference has zero area yields identical
//     intersection areas with every opposite cell, hence identical join
//     verdicts; the screens above (positive-area overlap tests) are
//     therefore complete, not just sound.
//   - Candidate enumeration is the Lemma 1 bound in range-query form:
//     for any location ℓ inside a convex region C, ℓ's nearest site q
//     satisfies dist(ℓ,q) ≤ dist(ℓ,a) for the site a nearest to C's
//     center, and dist(ℓ,a) ≤ max over C's vertices of dist(v,a) =: R by
//     convexity. So every site whose cell meets C lies within R of C's
//     bounding box, and one range search bounds the candidates exactly.
//
// Per affected site the engine takes the exact old and new cells and
// diffs the site's join partners under the exact core.CellsJoinWith
// predicate, so the emitted churn reproduces a full recompute
// byte-for-byte at the pair-set level.
//
// Cost. One call computes each Voronoi cell at most once. Cells are
// memoized per call, keyed by the tree they belong to (before, after or
// opposite) and the site ID, so the screening regions, the screened
// candidates, the phase-2 old and new cells and every opposite-side
// partner probe share one copy: neighbouring changes and neighbouring
// affected sites probe largely the same cells. The uncached candidates of
// one range search are spatially compact, so they are computed together
// by Algorithm 2 (voronoi.Workspace.BatchVoronoi), one traversal per
// leaf's worth of candidates, instead of one BF-VOR traversal each, and an
// MBR overlap test skips the polygon clip for candidates whose cell cannot
// meet the region. The cost of a call therefore scales with the distinct
// cells it touches, not with the probes it runs.
package delta

import (
	"math"
	"sort"

	"cij/internal/core"
	"cij/internal/geom"
	"cij/internal/pq"
	"cij/internal/rtree"
	"cij/internal/storage"
	"cij/internal/voronoi"
)

// Op is the kind of one point-level change.
type Op uint8

const (
	// OpInsert adds a point that did not exist before the mutation.
	OpInsert Op = iota
	// OpDelete removes an existing point.
	OpDelete
	// OpUpdate moves an existing point (same ID, new position).
	OpUpdate
)

// String returns the wire name of the operation.
func (op Op) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	}
	return "unknown"
}

// Change is one point-level mutation of the joined dataset. The engine's
// preconditions mirror how a registry applies a batch: each ID appears at
// most once per batch, deletes and updates name points present in the old
// tree, inserts name points absent from it, and the new tree is exactly
// the old tree with every change applied.
type Change struct {
	Op Op
	ID int64
	// New is the position after the change (insert, update).
	New geom.Point
	// Old is the position before the change (delete, update).
	Old geom.Point
}

// Result is the pair churn of one mutation batch: the pairs that exist
// after but not before (Added) and before but not after (Removed), both
// sorted lexicographically. Affected, Probes and Cells are the work
// metric — how many mutated-side sites were re-examined, how many
// opposite-side membership tests ran and how many Voronoi cells were
// computed — the numbers that make "incremental beats recompute"
// measurable per event.
type Result struct {
	Added   []core.Pair
	Removed []core.Pair
	// Affected counts mutated-side sites whose old and new join partners
	// were diffed (changed points included).
	Affected int
	// Probes counts opposite-side candidates tested against an affected
	// site's cell, including those the MBR prefilter rejects before the
	// exact join predicate.
	Probes int
	// Cells counts exact Voronoi cell computations, on all three trees. A
	// cell is computed at most once per call, so Cells is at most the
	// number of distinct (tree, site) cells the call touched.
	Cells int
}

// affectedSite tracks where one mutated-side site lives before and after
// the batch. For sites untouched by the batch both positions coincide.
type affectedSite struct {
	id           int64
	oldPt, newPt geom.Point
	inOld, inNew bool
}

// role names one of PairChurn's three trees.
type role uint8

const (
	roleOld   role = iota // the mutated dataset before the batch
	roleNew               // the mutated dataset after the batch
	roleOther             // the unchanged opposite dataset
)

// cellKey names one cell of one call: a site ID is unique within a tree,
// so the tree's role and the ID identify the cell. Roles, not tree
// pointers, keep the key meaningful whatever handles the caller passes.
type cellKey struct {
	role role
	id   int64
}

// cell is a memoized Voronoi cell and its bounding box.
type cell struct {
	poly geom.Polygon
	box  geom.Rect
}

// engine bundles the trees, the cell memo and the reusable scratch of one
// PairChurn call.
type engine struct {
	trees  [3]*rtree.Tree // indexed by role
	domain geom.Rect
	memo   map[cellKey]cell
	ws     voronoi.Workspace // cell computation; results are cloned into memo
	q      pq.Queue          // anchor 1-NN
	cl     geom.Clipper      // intersection tests; inputs are memo-owned
	group  []voronoi.Site    // uncached candidates of one range search
	batch  []voronoi.Cell    // BatchVoronoi output
	cells  int
	probes int
}

// PairChurn computes the join-pair churn caused by mutating one side of
// CIJ(left, right). oldM and newM are the mutated dataset's trees before
// and after the batch; other is the unchanged dataset's tree. mutatedLeft
// reports whether the mutated dataset is the left operand (pairs are
// (mutated, other)) or the right ((other, mutated)). All three trees are
// only read; any handle kind works (paged views, flat views, mutable
// clones).
func PairChurn(oldM, newM, other *rtree.Tree, changes []Change, mutatedLeft bool, domain geom.Rect) Result {
	return newEngine(oldM, newM, other, domain).churn(changes, mutatedLeft)
}

func newEngine(oldM, newM, other *rtree.Tree, domain geom.Rect) *engine {
	return &engine{
		trees:  [3]*rtree.Tree{roleOld: oldM, roleNew: newM, roleOther: other},
		domain: domain,
		memo:   make(map[cellKey]cell),
	}
}

func (e *engine) churn(changes []Change, mutatedLeft bool) Result {
	// Phase 1: collect affected mutated-side sites. The changed points
	// seed the map with exact before/after placement; the screens add
	// every survivor whose cell geometry can have changed.
	aff := make(map[int64]*affectedSite, 2*len(changes))
	for _, c := range changes {
		s := &affectedSite{id: c.ID}
		switch c.Op {
		case OpInsert:
			s.newPt, s.inNew = c.New, true
		case OpDelete:
			s.oldPt, s.inOld = c.Old, true
		case OpUpdate:
			s.oldPt, s.newPt, s.inOld, s.inNew = c.Old, c.New, true, true
		}
		aff[c.ID] = s
	}
	mark := func(s voronoi.Site) {
		if _, ok := aff[s.ID]; ok {
			return // a batch ID; seeded above with exact placement
		}
		// Discovered sites survive the batch untouched: present in both
		// trees at the same position.
		aff[s.ID] = &affectedSite{id: s.ID, oldPt: s.Pt, newPt: s.Pt, inOld: true, inNew: true}
	}
	for _, c := range changes {
		if c.Op == OpInsert || c.Op == OpUpdate {
			// Survivors whose OLD cell overlaps the inserted position's NEW
			// cell may have lost territory to it.
			e.sitesTouching(roleOld, e.cell(roleNew, voronoi.Site{ID: c.ID, Pt: c.New}), mark)
		}
		if c.Op == OpDelete || c.Op == OpUpdate {
			// Survivors whose NEW cell overlaps the deleted position's OLD
			// cell may have gained its territory.
			e.sitesTouching(roleNew, e.cell(roleOld, voronoi.Site{ID: c.ID, Pt: c.Old}), mark)
		}
	}

	// Phase 2: per affected site, diff the exact join-partner sets of its
	// old and new cells. Sites are processed in ID order so the emitted
	// churn is deterministic.
	ids := make([]int64, 0, len(aff))
	for id := range aff {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var res Result
	res.Affected = len(ids)
	oldSet := make(map[int64]bool)
	newSet := make(map[int64]bool)
	for _, id := range ids {
		s := aff[id]
		clear(oldSet)
		clear(newSet)
		if s.inOld {
			e.joinPartners(e.cell(roleOld, voronoi.Site{ID: id, Pt: s.oldPt}), mutatedLeft, oldSet)
		}
		if s.inNew {
			e.joinPartners(e.cell(roleNew, voronoi.Site{ID: id, Pt: s.newPt}), mutatedLeft, newSet)
		}
		for q := range oldSet {
			if !newSet[q] {
				res.Removed = append(res.Removed, orient(id, q, mutatedLeft))
			}
		}
		for q := range newSet {
			if !oldSet[q] {
				res.Added = append(res.Added, orient(id, q, mutatedLeft))
			}
		}
	}
	core.SortPairs(res.Added)
	core.SortPairs(res.Removed)
	res.Probes = e.probes
	res.Cells = e.cells
	return res
}

// orient builds a pair with the mutated site on the configured side.
func orient(mutated, other int64, mutatedLeft bool) core.Pair {
	if mutatedLeft {
		return core.Pair{P: mutated, Q: other}
	}
	return core.Pair{P: other, Q: mutated}
}

// cell returns the exact Voronoi cell of site s in the tree of role r,
// computing it with one BF-VOR traversal on first use.
func (e *engine) cell(r role, s voronoi.Site) cell {
	k := cellKey{r, s.ID}
	if c, ok := e.memo[k]; ok {
		return c
	}
	return e.keep(k, e.ws.BFVor(e.trees[r], s, e.domain))
}

// keep memoizes a freshly computed cell under k. poly may alias the
// workspace; the memo holds a copy.
func (e *engine) keep(k cellKey, poly geom.Polygon) cell {
	c := cell{poly: poly.Clone(), box: poly.Bounds()}
	e.memo[k] = c
	e.cells++
	return c
}

// candidates enumerates every site of the tree of role r whose Voronoi
// cell can intersect the convex region (the Lemma 1 bound in range-query
// form, see the package comment) and hands each to visit together with
// its exact cell. The candidates whose cells are not memoized yet lie in
// one search box, so they are computed together by Algorithm 2, one
// traversal per leaf's worth of sites: the range search returns them leaf
// by leaf, so each group is as compact as the paper's leaf batches. One
// traversal for a whole search box would cost the group size times the
// entries it visits, which is quadratic when a huge cell (a site alone in
// an empty region) meets thousands of candidates.
func (e *engine) candidates(r role, region cell, visit func(s voronoi.Site, c cell)) {
	t := e.trees[r]
	if region.poly.IsEmpty() || t.Root() == storage.InvalidPage {
		return
	}
	b := region.box
	anchor, ok := e.nearest(t, b.Center())
	if !ok {
		return
	}
	rad := math.Sqrt(geom.MaxDist2(region.poly.V, anchor))
	// Widen by a relative epsilon: the bound is exact in real arithmetic,
	// and the slack keeps borderline sites (duplicates of the anchor on
	// the region boundary, degenerate slivers) inside the search box.
	rad += rad*1e-9 + 1e-9
	found := t.RangeSearch(geom.NewRect(b.MinX-rad, b.MinY-rad, b.MaxX+rad, b.MaxY+rad))
	e.group = e.group[:0]
	for _, ent := range found {
		if _, ok := e.memo[cellKey{r, ent.ID}]; !ok {
			e.group = append(e.group, voronoi.Site{ID: ent.ID, Pt: ent.Pt})
		}
	}
	leaf := rtree.MaxPointEntries(t.Buffer().Disk().PageSize())
	for g := e.group; len(g) > 0; {
		n := min(len(g), leaf)
		e.batch = e.ws.BatchVoronoi(t, g[:n], e.domain, e.batch[:0])
		for _, c := range e.batch {
			e.keep(cellKey{r, c.Site.ID}, c.Poly)
		}
		g = g[n:]
	}
	for _, ent := range found {
		visit(voronoi.Site{ID: ent.ID, Pt: ent.Pt}, e.memo[cellKey{r, ent.ID}])
	}
}

// nearest returns the position of t's site nearest to p, by a best-first
// 1-NN traversal over the typed queue; ok is false for a tree without
// points.
func (e *engine) nearest(t *rtree.Tree, p geom.Point) (pt geom.Point, ok bool) {
	q := &e.q
	q.Reset()
	q.PushNode(t.ReadNode(t.Root()), p)
	for q.Len() > 0 {
		it := q.Pop()
		if it.Leaf {
			return it.Pt(), true
		}
		q.PushNode(t.ReadNode(it.Child()), p)
	}
	return geom.Point{}, false
}

// sitesTouching emits every site of the tree of role r whose cell
// overlaps region with positive area — the affected-site screen.
func (e *engine) sitesTouching(r role, region cell, emit func(voronoi.Site)) {
	e.candidates(r, region, func(s voronoi.Site, c cell) {
		if c.poly.IsEmpty() || !region.box.Intersects(c.box) {
			return
		}
		if e.cl.Intersect(region.poly, c.poly).Area() > 0 {
			emit(s)
		}
	})
}

// joinPartners collects into dst the IDs of every site of the opposite
// tree whose cell joins region under the exact CIJ predicate. regionLeft
// fixes the operand order of the predicate so the verdict is evaluated
// exactly as a full join would evaluate it.
func (e *engine) joinPartners(region cell, regionLeft bool, dst map[int64]bool) {
	e.candidates(roleOther, region, func(s voronoi.Site, c cell) {
		e.probes++
		if !region.box.Intersects(c.box) {
			return // disjoint boxes: no common area, the predicate is false
		}
		var joins bool
		if regionLeft {
			joins = core.CellsJoinWith(&e.cl, region.poly, c.poly)
		} else {
			joins = core.CellsJoinWith(&e.cl, c.poly, region.poly)
		}
		if joins {
			dst[s.ID] = true
		}
	})
}
