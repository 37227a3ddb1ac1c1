package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cij/internal/geom"
	"cij/internal/storage"
)

// Second-round tests: serialization fuzz, empty-tree behavior, polygon
// range queries, mixed dynamic/bulk workloads.

func TestNodeSerializationFuzz(t *testing.T) {
	f := func(seed int64, leaf bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := &Node{Leaf: leaf}
		count := rng.Intn(20) + 1
		for i := 0; i < count; i++ {
			if leaf {
				p := geom.Pt(rng.Float64()*1e4, rng.Float64()*1e4)
				n.Entries = append(n.Entries, Entry{
					MBR: geom.RectFromPoint(p), ID: rng.Int63(), Pt: p,
				})
			} else {
				r := geom.NewRect(rng.Float64()*1e4, rng.Float64()*1e4,
					rng.Float64()*1e4, rng.Float64()*1e4)
				n.Entries = append(n.Entries, Entry{MBR: r, Child: storage.PageID(rng.Int63n(1 << 40))})
			}
		}
		got := decodeNode(encodeNode(n, KindPoints, 1024), KindPoints)
		if got.Leaf != n.Leaf || len(got.Entries) != len(n.Entries) {
			return false
		}
		for i := range n.Entries {
			a, b := n.Entries[i], got.Entries[i]
			if leaf {
				if a.ID != b.ID || a.Pt != b.Pt {
					return false
				}
			} else {
				if a.Child != b.Child || a.MBR != b.MBR {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr := New(newBuf(t, 8), KindPoints)
	if got := tr.RangeSearch(geom.NewRect(0, 0, 1e4, 1e4)); len(got) != 0 {
		t.Error("empty tree range search should be empty")
	}
	if got := tr.KNN(geom.Pt(5, 5), 3, nil); len(got) != 0 {
		t.Error("empty tree KNN should be empty")
	}
	it := tr.NewNNIterator(geom.Pt(0, 0))
	if _, _, ok := it.Next(); ok {
		t.Error("empty tree iterator should be exhausted")
	}
	visited := false
	tr.VisitLeaves(func(*Node) { visited = true })
	tr.VisitLeavesHilbert(testDomain, func(*Node) { visited = true })
	if visited {
		t.Error("empty tree has no leaves to visit")
	}
	if tr.NumPages() != 0 {
		t.Error("empty tree has no pages")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("empty tree invariants: %v", err)
	}
}

func TestPolygonTreeRangeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	var items []PolygonItem
	var polys []geom.Polygon
	for i := 0; i < 500; i++ {
		cx, cy := rng.Float64()*9000, rng.Float64()*9000
		poly := geom.NewRect(cx, cy, cx+rng.Float64()*400, cy+rng.Float64()*400).Polygon()
		items = append(items, PolygonItem{ID: int64(i), Poly: poly})
		polys = append(polys, poly)
	}
	tr := PackPolygons(newBuf(t, 128), items)
	for trial := 0; trial < 30; trial++ {
		q := geom.NewRect(rng.Float64()*9000, rng.Float64()*9000,
			rng.Float64()*10000, rng.Float64()*10000)
		got := map[int64]bool{}
		for _, e := range tr.RangeSearch(q) {
			got[e.ID] = true
		}
		for i, poly := range polys {
			want := poly.Bounds().Intersects(q)
			if got[int64(i)] != want {
				t.Fatalf("trial %d: polygon %d presence = %v, want %v", trial, i, got[int64(i)], want)
			}
		}
	}
}

func TestInterleavedInsertAndSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tr := New(newBuf(t, 64), KindPoints)
	var pts []geom.Point
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			p := geom.Pt(rng.Float64()*1e4, rng.Float64()*1e4)
			tr.InsertPoint(int64(len(pts)), p)
			pts = append(pts, p)
		}
		q := geom.NewRect(rng.Float64()*5e3, rng.Float64()*5e3,
			rng.Float64()*1e4, rng.Float64()*1e4)
		got := idsOf(tr.RangeSearch(q))
		want := bruteRange(pts, q)
		if !equalIDs(got, want) {
			t.Fatalf("round %d: %d vs %d results", round, len(got), len(want))
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkThenInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := randPoints(rng, 800)
	buf := newBuf(t, 64)
	tr := BulkLoadPoints(buf, pts, testDomain, 1)
	// Dynamic growth on top of a packed tree.
	for i := 0; i < 300; i++ {
		p := geom.Pt(rng.Float64()*1e4, rng.Float64()*1e4)
		tr.InsertPoint(int64(len(pts)), p)
		pts = append(pts, p)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != len(pts) {
		t.Fatalf("size = %d, want %d", tr.Size(), len(pts))
	}
	q := geom.NewRect(2000, 2000, 7000, 7000)
	if !equalIDs(idsOf(tr.RangeSearch(q)), bruteRange(pts, q)) {
		t.Fatal("range search wrong after mixed bulk+insert")
	}
}

func TestSTJoinEmptyTrees(t *testing.T) {
	empty := New(newBuf(t, 8), KindPolygons)
	full := PackPolygons(newBuf(t, 8), []PolygonItem{
		{ID: 0, Poly: geom.NewRect(0, 0, 10, 10).Polygon()},
	})
	called := false
	STJoin(empty, full, func(a, b Entry) { called = true })
	STJoin(full, empty, func(a, b Entry) { called = true })
	STJoin(empty, empty, func(a, b Entry) { called = true })
	if called {
		t.Error("joins with empty trees should emit nothing")
	}
}

func TestSTJoinPointTrees(t *testing.T) {
	// ST join also works over point trees (MBR = point): it degenerates
	// to an equality-on-location join.
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3)}
	ta := BulkLoadPoints(newBuf(t, 8), pts, testDomain, 1)
	tb := BulkLoadPoints(newBuf(t, 8), []geom.Point{geom.Pt(2, 2), geom.Pt(9, 9)}, testDomain, 1)
	var got [][2]int64
	STJoin(ta, tb, func(a, b Entry) { got = append(got, [2]int64{a.ID, b.ID}) })
	if len(got) != 1 || got[0] != [2]int64{1, 0} {
		t.Fatalf("point ST join = %v", got)
	}
}

func TestNNIteratorTieBreaking(t *testing.T) {
	// Four points equidistant from the anchor must all be returned.
	pts := []geom.Point{geom.Pt(4, 5), geom.Pt(6, 5), geom.Pt(5, 4), geom.Pt(5, 6)}
	tr := BulkLoadPoints(newBuf(t, 8), pts, testDomain, 1)
	it := tr.NewNNIterator(geom.Pt(5, 5))
	seen := 0
	for {
		_, d, ok := it.Next()
		if !ok {
			break
		}
		if d != 1 {
			t.Fatalf("distance %v, want 1", d)
		}
		seen++
	}
	if seen != 4 {
		t.Fatalf("returned %d of 4 tied points", seen)
	}
}

func TestHilbertVsSTRBothCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	pts := randPoints(rng, 2000)
	hil := BulkLoadPoints(newBuf(t, 128), pts, testDomain, 1)
	str := BulkLoadPointsSTR(newBuf(t, 128), pts, 1)
	for trial := 0; trial < 15; trial++ {
		q := geom.NewRect(rng.Float64()*8e3, rng.Float64()*8e3,
			rng.Float64()*1e4, rng.Float64()*1e4)
		a := idsOf(hil.RangeSearch(q))
		b := idsOf(str.RangeSearch(q))
		if !equalIDs(a, b) {
			t.Fatalf("Hilbert and STR trees disagree on range results")
		}
	}
}
