package rtree

import (
	"cij/internal/geom"
	"cij/internal/storage"
)

// InsertPoint adds a point to a point tree (Guttman's dynamic insertion
// with quadratic split). The experiments bulk-load their trees; dynamic
// insertion exists because the paper's premise is that spatial access
// methods — unlike materialized Voronoi diagrams — are cheap to update
// (footnote 1), and because tests exercise it against the same queries.
func (t *Tree) InsertPoint(id int64, p geom.Point) {
	if t.kind != KindPoints {
		panic("rtree: InsertPoint on a polygon tree")
	}
	t.insert(Entry{MBR: geom.RectFromPoint(p), ID: id, Pt: p})
}

func (t *Tree) insert(e Entry) {
	if t.root == storage.InvalidPage {
		t.root = t.allocNode(&Node{Leaf: true, Entries: []Entry{e}})
		t.height = 1
		t.size = 1
		return
	}
	splitEntry := t.insertAt(t.root, e, t.height)
	if splitEntry != nil {
		// Root split: grow the tree by one level.
		oldRoot := t.readNodeQuiet(t.root)
		newRoot := &Node{Leaf: false, Entries: []Entry{
			{MBR: oldRoot.MBR(), Child: t.root},
			*splitEntry,
		}}
		t.root = t.allocNode(newRoot)
		t.height++
	}
	t.size++
}

// insertAt descends to the appropriate leaf, inserts, and propagates
// splits upward. It returns the entry for a new sibling of node id when
// the node split, or nil.
func (t *Tree) insertAt(id storage.PageID, e Entry, level int) *Entry {
	// Mutating read: insertAt appends to and rewrites the entry slice, so
	// it must own its copy rather than edit a cached shared node.
	n := t.readNodeQuietMut(id)
	if level == 1 {
		if t.leafFits(n.Entries, &e) {
			n.Entries = append(n.Entries, e)
			t.writeNode(id, n)
			return nil
		}
		return t.splitNode(id, n, e)
	}
	// ChooseLeaf: minimal enlargement, ties by smallest area.
	best := 0
	bestEnl := n.Entries[0].MBR.Enlargement(e.MBR)
	bestArea := n.Entries[0].MBR.Area()
	for i := 1; i < len(n.Entries); i++ {
		enl := n.Entries[i].MBR.Enlargement(e.MBR)
		area := n.Entries[i].MBR.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	split := t.insertAt(n.Entries[best].Child, e, level-1)
	// Refresh the child MBR.
	child := t.readNodeQuiet(n.Entries[best].Child)
	n.Entries[best].MBR = child.MBR()
	if split != nil {
		if len(n.Entries) < t.maxInternal {
			n.Entries = append(n.Entries, *split)
			t.writeNode(id, n)
			return nil
		}
		return t.splitNode(id, n, *split)
	}
	t.writeNode(id, n)
	return nil
}

// splitNode performs Guttman's quadratic split of n plus the overflowing
// entry e. The original page keeps one group; the other group goes to a
// fresh page whose parent entry is returned.
func (t *Tree) splitNode(id storage.PageID, n *Node, e Entry) *Entry {
	all := append(append([]Entry(nil), n.Entries...), e)

	// PickSeeds: the pair wasting the most area together.
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			d := all[i].MBR.Union(all[j].MBR).Area() - all[i].MBR.Area() - all[j].MBR.Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	g1 := []Entry{all[s1]}
	g2 := []Entry{all[s2]}
	r1, r2 := all[s1].MBR, all[s2].MBR
	rest := make([]Entry, 0, len(all)-2)
	for i := range all {
		if i != s1 && i != s2 {
			rest = append(rest, all[i])
		}
	}
	minPer := t.minFill
	for len(rest) > 0 {
		// If one group must take everything to reach minimum fill, do so.
		if len(g1)+len(rest) <= minPer {
			g1 = append(g1, rest...)
			for _, x := range rest {
				r1 = r1.Union(x.MBR)
			}
			break
		}
		if len(g2)+len(rest) <= minPer {
			g2 = append(g2, rest...)
			for _, x := range rest {
				r2 = r2.Union(x.MBR)
			}
			break
		}
		// PickNext: entry with maximal preference for one group.
		bestIdx, bestDiff := 0, -1.0
		for i := range rest {
			d1 := r1.Enlargement(rest[i].MBR)
			d2 := r2.Enlargement(rest[i].MBR)
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx = diff, i
			}
		}
		pick := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1 := r1.Enlargement(pick.MBR)
		d2 := r2.Enlargement(pick.MBR)
		if d1 < d2 || (d1 == d2 && len(g1) < len(g2)) {
			g1 = append(g1, pick)
			r1 = r1.Union(pick.MBR)
		} else {
			g2 = append(g2, pick)
			r2 = r2.Union(pick.MBR)
		}
	}

	n.Entries = g1
	t.writeNode(id, n)
	sibling := &Node{Leaf: n.Leaf, Entries: g2}
	sid := t.allocNode(sibling)
	return &Entry{MBR: sibling.MBR(), Child: sid}
}
