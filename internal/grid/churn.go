package grid

import (
	"cmp"
	"math"
	"slices"

	"cij/internal/core"
	"cij/internal/geom"
)

// ChurnResult is the pair churn of one mutation: the pairs that join after
// it but not before (Added) and before but not after (Removed), both
// sorted, and the work that found them.
type ChurnResult struct {
	Added, Removed []core.Pair
	// Affected counts the mutated side's distinct IDs whose partners were
	// diffed, the moved, inserted and deleted ones included.
	Affected int
	// Candidates counts predicate tests against the opposite side's cells
	// and TrueHits the tests that joined.
	Candidates, TrueHits int64
}

// Churn maintains a join across one mutation of one operand: it returns
// how CIJ(old, other) becomes CIJ(cur, other), or, when mutatedLeft is
// false, how CIJ(other, old) becomes CIJ(other, cur), as the pair-set
// difference of joins of these graphs. departed lists the positions
// points left (deletes and the old positions of moves), arrived those
// they came to (inserts and the new positions of moves); old, cur and
// other must share one domain. It writes to no graph.
//
// A cell can change only around a change (the paper's Lemmas 1 and 2): a
// vertex's cell depends on nothing but its position, the neighbour lists
// of its near-twin cluster and those neighbours' clusters and first
// members, and only the neighbours of a removed vertex, in old, and of an
// inserted one, in cur, change their lists. So the affected positions are
// the changed ones and their Delaunay neighbours, the clusters of any of
// those with near-twins and the clusters' neighbours, and every vertex of
// those positions' clusters in either graph; elsewhere both versions hold
// the same cells, bit for bit when cur is derived from old, and the same
// members. At each affected position the old cell's partners, found by a
// one-cell flood over other's stored cells (the join's walk, filter and
// predicate), pair with the old members and the new cell's with the new
// members; a position whose cell is unchanged floods once, and one whose
// members are too is skipped.
func Churn(old, cur, other *Graph, departed, arrived []geom.Point, mutatedLeft bool) ChurnResult {
	if old.domain != other.domain || cur.domain != other.domain {
		panic("grid: Churn over graphs of different domains")
	}
	c := churner{graphs: [2]*Graph{old, cur}, index: make(map[geom.Point]int)}
	for side, pts := range [2][]geom.Point{departed, arrived} {
		g := c.graphs[side]
		// In Hilbert order, each walk starts near where the last one ended.
		pts = slices.Clone(pts)
		slices.SortFunc(pts, func(a, b geom.Point) int { return compareHilbert(a, b, g.box) })
		for _, p := range pts {
			if v := g.vertexAt(&c.hint[side], p); v >= 0 {
				c.affect(side, v)
				c.affectTwins(side, v)
				for _, w := range g.neighbors(v) {
					c.affect(side, w)
					c.affectTwins(side, w)
				}
			}
		}
	}
	for k, seeds := 0, len(c.sites); k < seeds; k++ {
		for side, g := range c.graphs {
			if v := c.vertex(k, side); v >= 0 {
				for u := g.ring[v]; u != v; u = g.ring[u] {
					c.affect(side, u)
				}
			}
		}
	}

	f := newFlooder(nil, other)
	key := int32(0)
	partners := func(g *Graph, v int32) []int32 {
		cell := g.storedCell(v)
		if cell.IsEmpty() {
			return nil
		}
		key++
		return f.cell(cell, g.bounds[v], g.siteTarget(v, cell), key, !mutatedLeft)
	}
	var before, after []core.Pair
	pair := func(out []core.Pair, g *Graph, v int32, us []int32) []core.Pair {
		for _, a := range g.membersOf(v) {
			for _, u := range us {
				for _, b := range other.membersOf(u) {
					if mutatedLeft {
						out = append(out, core.Pair{P: g.id(a), Q: other.id(b)})
					} else {
						out = append(out, core.Pair{P: other.id(b), Q: g.id(a)})
					}
				}
			}
		}
		return out
	}
	var ids []int64
	for k := range c.sites {
		vo, vn := c.vertex(k, 0), c.vertex(k, 1)
		if vo >= 0 && vn >= 0 && sameCell(old, vo, cur, vn) {
			if slices.EqualFunc(old.membersOf(vo), cur.membersOf(vn), func(a, b int32) bool { return old.id(a) == cur.id(b) }) {
				continue
			}
			us := partners(old, vo)
			before, after = pair(before, old, vo, us), pair(after, cur, vn, us)
		} else {
			if vo >= 0 {
				before = pair(before, old, vo, partners(old, vo))
			}
			if vn >= 0 {
				after = pair(after, cur, vn, partners(cur, vn))
			}
		}
		for side, v := range [2]int32{vo, vn} {
			if g := c.graphs[side]; v >= 0 {
				for _, a := range g.membersOf(v) {
					ids = append(ids, g.id(a))
				}
			}
		}
	}
	slices.Sort(ids)
	res := ChurnResult{Affected: len(slices.Compact(ids)), Candidates: f.candidates, TrueHits: f.trueHits}
	res.Added, res.Removed = diffSorted(before, after)
	return res
}

// churner collects a churn's affected positions, each once, in the order
// they are found, with the vertex at each in either version once known,
// and keeps one point-location hint per version.
type churner struct {
	graphs [2]*Graph // old, cur
	hint   [2]int32
	index  map[geom.Point]int
	sites  []churnSite
}

// churnSite is an affected position and the vertex at it in old and cur:
// −1 where there is none, −2 until looked up.
type churnSite struct {
	p geom.Point
	v [2]int32
}

// affect records vertex v of version side's graph as affected.
func (c *churner) affect(side int, v int32) {
	p := c.graphs[side].verts[v]
	k, ok := c.index[p]
	if !ok {
		k = len(c.sites)
		c.index[p] = k
		c.sites = append(c.sites, churnSite{p, [2]int32{-2, -2}})
	}
	c.sites[k].v[side] = v
}

// affectTwins records, when vertex v of version side's graph has
// near-twins, its cluster and the cluster's neighbours: their cells clip
// by v's whole cluster (see cell), which a change at or beside v can
// grow, shrink or reorder.
func (c *churner) affectTwins(side int, v int32) {
	g := c.graphs[side]
	for u := g.ring[v]; u != v; u = g.ring[u] {
		c.affect(side, u)
		for _, w := range g.neighbors(u) {
			c.affect(side, w)
		}
	}
	if g.ring[v] != v {
		for _, w := range g.neighbors(v) {
			c.affect(side, w)
		}
	}
}

// vertex returns the vertex at site k in version side's graph, or −1.
func (c *churner) vertex(k, side int) int32 {
	if c.sites[k].v[side] == -2 {
		c.sites[k].v[side] = c.graphs[side].vertexAt(&c.hint[side], c.sites[k].p)
	}
	return c.sites[k].v[side]
}

// sameCell reports whether vertex a of g and vertex b of h store the same
// cell and MBR, bit for bit.
func sameCell(g *Graph, a int32, h *Graph, b int32) bool {
	return g.bounds[a] == h.bounds[b] && slices.EqualFunc(g.storedCell(a).V, h.storedCell(b).V, func(x, y geom.Point) bool {
		return math.Float64bits(x.X) == math.Float64bits(y.X) && math.Float64bits(x.Y) == math.Float64bits(y.Y)
	})
}

// diffSorted sorts both pair lists and returns the pairs only after has
// (added) and only before has (removed), each sorted.
func diffSorted(before, after []core.Pair) (added, removed []core.Pair) {
	byPair := func(a, b core.Pair) int { return cmp.Or(cmp.Compare(a.P, b.P), cmp.Compare(a.Q, b.Q)) }
	slices.SortFunc(before, byPair)
	slices.SortFunc(after, byPair)
	i, j := 0, 0
	for i < len(before) || j < len(after) {
		switch {
		case j == len(after) || i < len(before) && pairLess(before[i], after[j]):
			removed = append(removed, before[i])
			i++
		case i == len(before) || pairLess(after[j], before[i]):
			added = append(added, after[j])
			j++
		default:
			i++
			j++
		}
	}
	return added, removed
}

func pairLess(a, b core.Pair) bool { return a.P < b.P || a.P == b.P && a.Q < b.Q }
