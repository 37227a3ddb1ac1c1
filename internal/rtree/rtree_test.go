package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cij/internal/geom"
	"cij/internal/storage"
)

var testDomain = geom.NewRect(0, 0, 10000, 10000)

func newBuf(t testing.TB, capacity int) *storage.Buffer {
	t.Helper()
	return storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), capacity)
}

func randPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	return pts
}

func TestCapacities(t *testing.T) {
	// 1 KB pages: 25 internal entries, 42 point entries — in the ballpark
	// of the paper's setting.
	if got := MaxInternalEntries(1024); got != 25 {
		t.Errorf("internal fan-out = %d, want 25", got)
	}
	if got := MaxPointEntries(1024); got != 42 {
		t.Errorf("leaf capacity = %d, want 42", got)
	}
}

func TestNodeEncodeDecodePoints(t *testing.T) {
	n := &Node{Leaf: true, Entries: []Entry{
		{MBR: geom.RectFromPoint(geom.Pt(1, 2)), ID: 7, Pt: geom.Pt(1, 2)},
		{MBR: geom.RectFromPoint(geom.Pt(-3.5, 4.25)), ID: 9, Pt: geom.Pt(-3.5, 4.25)},
	}}
	got := decodeNode(encodeNode(n, KindPoints, 1024), KindPoints)
	if !got.Leaf || len(got.Entries) != 2 {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	for i := range n.Entries {
		if got.Entries[i].ID != n.Entries[i].ID || !got.Entries[i].Pt.Eq(n.Entries[i].Pt) {
			t.Errorf("entry %d mismatch: %+v vs %+v", i, got.Entries[i], n.Entries[i])
		}
	}
}

func TestNodeEncodeDecodePolygons(t *testing.T) {
	tri := geom.Polygon{V: []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(0, 5)}}
	quad := geom.NewRect(10, 10, 20, 30).Polygon()
	n := &Node{Leaf: true, Entries: []Entry{
		{MBR: tri.Bounds(), ID: 3, Poly: tri},
		{MBR: quad.Bounds(), ID: 4, Poly: quad},
	}}
	got := decodeNode(encodeNode(n, KindPolygons, 1024), KindPolygons)
	if len(got.Entries) != 2 {
		t.Fatalf("lost entries")
	}
	for i := range n.Entries {
		if len(got.Entries[i].Poly.V) != len(n.Entries[i].Poly.V) {
			t.Fatalf("entry %d vertex count mismatch", i)
		}
		for j, v := range n.Entries[i].Poly.V {
			if !got.Entries[i].Poly.V[j].Eq(v) {
				t.Errorf("entry %d vertex %d mismatch", i, j)
			}
		}
	}
}

func TestNodeEncodeDecodeInternal(t *testing.T) {
	n := &Node{Leaf: false, Entries: []Entry{
		{MBR: geom.NewRect(0, 0, 5, 5), Child: 12},
		{MBR: geom.NewRect(3, 3, 9, 9), Child: 99},
	}}
	got := decodeNode(encodeNode(n, KindPoints, 1024), KindPoints)
	if got.Leaf {
		t.Fatal("leaf flag corrupted")
	}
	for i := range n.Entries {
		if got.Entries[i].Child != n.Entries[i].Child {
			t.Errorf("child %d mismatch", i)
		}
		if got.Entries[i].MBR != n.Entries[i].MBR {
			t.Errorf("MBR %d mismatch", i)
		}
	}
}

func TestBulkLoadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 41, 42, 43, 500, 3000} {
		pts := randPoints(rng, n)
		tr := BulkLoadPoints(newBuf(t, 64), pts, testDomain, 1)
		if tr.Size() != n {
			t.Fatalf("n=%d: size = %d", n, tr.Size())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := len(tr.AllEntries()); got != n {
			t.Fatalf("n=%d: AllEntries = %d", n, got)
		}
	}
}

func TestBulkLoadSTRInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := randPoints(rng, 2500)
	tr := BulkLoadPointsSTR(newBuf(t, 64), pts, 1)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2500 {
		t.Fatalf("size = %d", tr.Size())
	}
}

func TestBulkLoadFillFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pts := randPoints(rng, 2000)
	full := BulkLoadPoints(newBuf(t, 64), pts, testDomain, 1.0)
	loose := BulkLoadPoints(newBuf(t, 64), pts, testDomain, 0.5)
	if loose.NumPages() <= full.NumPages() {
		t.Errorf("half-full tree should use more pages: full=%d loose=%d",
			full.NumPages(), loose.NumPages())
	}
	if err := loose.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertInvariantsAndQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	buf := newBuf(t, 64)
	tr := New(buf, KindPoints)
	pts := randPoints(rng, 1200)
	for i, p := range pts {
		tr.InsertPoint(int64(i), p)
	}
	if tr.Size() != len(pts) {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Inserted tree must answer range queries identically to brute force.
	for trial := 0; trial < 20; trial++ {
		q := geom.NewRect(rng.Float64()*9000, rng.Float64()*9000,
			rng.Float64()*10000, rng.Float64()*10000)
		got := idsOf(tr.RangeSearch(q))
		want := bruteRange(pts, q)
		if !equalIDs(got, want) {
			t.Fatalf("range mismatch: got %d ids, want %d", len(got), len(want))
		}
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pts := randPoints(rng, 3000)
	tr := BulkLoadPoints(newBuf(t, 128), pts, testDomain, 1)
	for trial := 0; trial < 50; trial++ {
		cx, cy := rng.Float64()*10000, rng.Float64()*10000
		w := rng.Float64() * 2000
		q := geom.NewRect(cx-w, cy-w, cx+w, cy+w)
		got := idsOf(tr.RangeSearch(q))
		want := bruteRange(pts, q)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, len(got), len(want))
		}
	}
	// Empty tree returns nothing.
	empty := New(newBuf(t, 4), KindPoints)
	if got := empty.RangeSearch(geom.NewRect(0, 0, 1, 1)); len(got) != 0 {
		t.Fatal("empty tree should return no results")
	}
}

func TestNNIteratorOrderAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pts := randPoints(rng, 2000)
	tr := BulkLoadPoints(newBuf(t, 128), pts, testDomain, 1)
	anchor := geom.Pt(5000, 5000)
	it := tr.NewNNIterator(anchor)
	var dists []float64
	seen := map[int64]bool{}
	for {
		e, d, ok := it.Next()
		if !ok {
			break
		}
		if seen[e.ID] {
			t.Fatalf("object %d returned twice", e.ID)
		}
		seen[e.ID] = true
		dists = append(dists, d)
	}
	if len(dists) != len(pts) {
		t.Fatalf("iterator returned %d of %d objects", len(dists), len(pts))
	}
	if !sort.Float64sAreSorted(dists) {
		t.Fatal("NN iterator distances are not ascending")
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	pts := randPoints(rng, 1500)
	tr := BulkLoadPoints(newBuf(t, 128), pts, testDomain, 1)
	for trial := 0; trial < 20; trial++ {
		anchor := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		k := 1 + rng.Intn(20)
		got := tr.KNN(anchor, k, nil)
		// Brute force.
		idx := make([]int, len(pts))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return pts[idx[a]].Dist2(anchor) < pts[idx[b]].Dist2(anchor)
		})
		if len(got) != k {
			t.Fatalf("KNN returned %d, want %d", len(got), k)
		}
		for i := 0; i < k; i++ {
			if got[i].Pt.Dist(anchor) != pts[idx[i]].Dist(anchor) {
				// Ties can permute ids; compare distances.
				d1, d2 := got[i].Pt.Dist(anchor), pts[idx[i]].Dist(anchor)
				if d1 != d2 {
					t.Fatalf("trial %d: kth dist %v != %v", trial, d1, d2)
				}
			}
		}
	}
}

func TestKNNFilter(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3), geom.Pt(4, 4)}
	tr := BulkLoadPoints(newBuf(t, 16), pts, testDomain, 1)
	got := tr.KNN(geom.Pt(0, 0), 2, func(e Entry) bool { return e.ID != 0 })
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("filtered KNN = %+v", got)
	}
}

func TestVisitLeavesHilbertCoversAllOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	pts := randPoints(rng, 2000)
	tr := BulkLoadPoints(newBuf(t, 128), pts, testDomain, 1)
	seen := map[int64]int{}
	leaves := 0
	tr.VisitLeavesHilbert(testDomain, func(leaf *Node) {
		leaves++
		for _, e := range leaf.Entries {
			seen[e.ID]++
		}
	})
	if len(seen) != len(pts) {
		t.Fatalf("visited %d of %d objects", len(seen), len(pts))
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("object %d visited %d times", id, c)
		}
	}
	if leaves == 0 {
		t.Fatal("no leaves visited")
	}
}

func TestVisitLeavesHilbertLocality(t *testing.T) {
	// Successive leaves in Hilbert order should be closer together on
	// average than in plain stored order on an STR tree (which alternates
	// slabs). Weak statistical check on centers.
	rng := rand.New(rand.NewSource(50))
	pts := randPoints(rng, 4000)
	tr := BulkLoadPoints(newBuf(t, 256), pts, testDomain, 1)
	dist := func(visit func(func(*Node))) float64 {
		var prev geom.Point
		first := true
		total := 0.0
		visit(func(leaf *Node) {
			c := leaf.MBR().Center()
			if !first {
				total += prev.Dist(c)
			}
			prev, first = c, false
		})
		return total
	}
	hil := dist(func(f func(*Node)) { tr.VisitLeavesHilbert(testDomain, f) })
	if hil <= 0 {
		t.Fatal("no traversal happened")
	}
	// The Hilbert-packed tree visited in Hilbert order should walk less
	// total distance than 2x the domain diagonal per sqrt(n) rows — loose
	// sanity bound: average hop below 1/4 of the domain side.
	leaves := 0
	tr.VisitLeaves(func(*Node) { leaves++ })
	if avg := hil / float64(leaves-1); avg > 2500 {
		t.Errorf("average Hilbert hop too large: %v", avg)
	}
}

func TestSTJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	// Polygon trees joined on MBR intersection.
	mk := func(n int, seed int64) (*Tree, []geom.Polygon) {
		r := rand.New(rand.NewSource(seed))
		items := make([]PolygonItem, n)
		polys := make([]geom.Polygon, n)
		for i := 0; i < n; i++ {
			cx, cy := r.Float64()*10000, r.Float64()*10000
			w, h := r.Float64()*300+1, r.Float64()*300+1
			poly := geom.NewRect(cx-w, cy-h, cx+w, cy+h).Polygon()
			items[i] = PolygonItem{ID: int64(i), Poly: poly}
			polys[i] = poly
		}
		sort.Slice(items, func(a, b int) bool {
			return geom.HilbertValue(items[a].Poly.Centroid(), testDomain) <
				geom.HilbertValue(items[b].Poly.Centroid(), testDomain)
		})
		return PackPolygons(newBuf(t, 256), items), polys
	}
	ta, pa := mk(400, 52)
	tb, pb := mk(300, 53)
	_ = rng
	got := map[[2]int64]bool{}
	STJoin(ta, tb, func(ea, eb Entry) {
		got[[2]int64{ea.ID, eb.ID}] = true
	})
	want := map[[2]int64]bool{}
	for i, g1 := range pa {
		for j, g2 := range pb {
			if g1.Bounds().Intersects(g2.Bounds()) {
				want[[2]int64{int64(i), int64(j)}] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("ST join pairs = %d, brute force = %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing pair %v", k)
		}
	}
}

func TestSTJoinDifferentHeights(t *testing.T) {
	// Join a large tree with a tiny one to exercise the height-alignment
	// path.
	rng := rand.New(rand.NewSource(54))
	big := make([]PolygonItem, 2000)
	for i := range big {
		cx, cy := rng.Float64()*10000, rng.Float64()*10000
		big[i] = PolygonItem{ID: int64(i), Poly: geom.NewRect(cx, cy, cx+50, cy+50).Polygon()}
	}
	small := []PolygonItem{
		{ID: 0, Poly: geom.NewRect(0, 0, 5000, 5000).Polygon()},
		{ID: 1, Poly: geom.NewRect(5000, 5000, 10000, 10000).Polygon()},
		{ID: 2, Poly: geom.NewRect(9000, 0, 10050, 1000).Polygon()},
	}
	ta := PackPolygons(newBuf(t, 256), big)
	tb := PackPolygons(newBuf(t, 16), small)
	if ta.Height() <= tb.Height() {
		t.Skipf("height setup failed: %d vs %d", ta.Height(), tb.Height())
	}
	count := 0
	STJoin(ta, tb, func(ea, eb Entry) { count++ })
	want := 0
	for _, b := range big {
		for _, s := range small {
			if b.Poly.Bounds().Intersects(s.Poly.Bounds()) {
				want++
			}
		}
	}
	if count != want {
		t.Fatalf("pairs = %d, want %d", count, want)
	}
	// Join in the opposite order too.
	count2 := 0
	STJoin(tb, ta, func(ea, eb Entry) { count2++ })
	if count2 != want {
		t.Fatalf("reversed pairs = %d, want %d", count2, want)
	}
}

func TestPolygonPackerInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	pk := NewPolygonPacker(newBuf(t, 64))
	const n = 1000
	for i := 0; i < n; i++ {
		cx, cy := rng.Float64()*10000, rng.Float64()*10000
		// Vary vertex counts 3..10 to exercise byte packing.
		k := 3 + rng.Intn(8)
		g := regularPolygon(geom.Pt(cx, cy), 40, k)
		pk.Add(int64(i), g)
	}
	tr := pk.Finish()
	if tr.Size() != n {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.AllEntries()); got != n {
		t.Fatalf("AllEntries = %d", got)
	}
}

func TestInsertWrongKindPanics(t *testing.T) {
	tr := New(newBuf(t, 4), KindPolygons)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.InsertPoint(0, geom.Pt(1, 1))
}

func TestNumPagesMatchesDiskForSingleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	buf := newBuf(t, 64)
	pts := randPoints(rng, 1000)
	tr := BulkLoadPoints(buf, pts, testDomain, 1)
	if got, want := tr.NumPages(), buf.Disk().NumPages(); got != want {
		t.Fatalf("NumPages = %d, disk has %d", got, want)
	}
}

func TestIOAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	buf := newBuf(t, 0) // no cache: logical == physical
	pts := randPoints(rng, 1000)
	tr := BulkLoadPoints(buf, pts, testDomain, 1)
	if w := buf.Stats().PageWrites; w != int64(tr.NumPages()) {
		t.Fatalf("bulk load writes = %d, pages = %d", w, tr.NumPages())
	}
	buf.ResetStats()
	tr.RangeSearch(geom.NewRect(0, 0, 100, 100))
	s := buf.Stats()
	if s.LogicalReads == 0 || s.LogicalReads != s.PageReads {
		t.Fatalf("uncached reads should be all physical: %+v", s)
	}
	// CheckInvariants and NumPages must not move the counters.
	buf.ResetStats()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr.NumPages()
	if s := buf.Stats(); s != (storage.Stats{}) {
		t.Fatalf("bookkeeping perturbed stats: %+v", s)
	}
}

// --- helpers ---

func idsOf(es []Entry) []int64 {
	ids := make([]int64, len(es))
	for i, e := range es {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func bruteRange(pts []geom.Point, q geom.Rect) []int64 {
	var ids []int64
	for i, p := range pts {
		if q.Contains(p) {
			ids = append(ids, int64(i))
		}
	}
	return ids
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func regularPolygon(c geom.Point, radius float64, k int) geom.Polygon {
	vs := make([]geom.Point, k)
	for i := 0; i < k; i++ {
		ang := 2 * math.Pi * float64(i) / float64(k)
		vs[i] = geom.Pt(c.X+radius*math.Cos(ang), c.Y+radius*math.Sin(ang))
	}
	return geom.Polygon{V: vs}
}
