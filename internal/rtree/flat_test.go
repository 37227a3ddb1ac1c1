package rtree

import (
	"math/rand"
	"testing"

	"cij/internal/geom"
	"cij/internal/storage"
)

func flatTestPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	return pts
}

var flatTestDomain = geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}

// frozenTree bulk-loads pts and freezes the result: the one way a flat
// tree is built.
func frozenTree(pts []geom.Point) *Tree {
	buf := storage.NewBuffer(storage.NewDisk(1024), 1<<20)
	return BulkLoadPoints(buf, pts, flatTestDomain, 1).Freeze()
}

// sameStructure walks two trees in lockstep and fails on the first
// structural difference: node shape, entry order or entry content. Child
// page ids are deliberately NOT compared — Freeze renumbers them — only
// the subtrees they denote.
func sameStructure(t *testing.T, a, b *Tree) {
	t.Helper()
	if a.Height() != b.Height() {
		t.Fatalf("height %d != %d", a.Height(), b.Height())
	}
	if a.Size() != b.Size() {
		t.Fatalf("size %d != %d", a.Size(), b.Size())
	}
	if a.NumPages() != b.NumPages() {
		t.Fatalf("pages %d != %d", a.NumPages(), b.NumPages())
	}
	if a.Root() == storage.InvalidPage || b.Root() == storage.InvalidPage {
		if a.Root() != b.Root() {
			t.Fatalf("one tree empty, the other not")
		}
		return
	}
	var walk func(ida, idb storage.PageID, level int)
	walk = func(ida, idb storage.PageID, level int) {
		na, nb := a.readNodeQuiet(ida), b.readNodeQuiet(idb)
		if na.Leaf != nb.Leaf {
			t.Fatalf("level %d: leaf %v != %v", level, na.Leaf, nb.Leaf)
		}
		if len(na.Entries) != len(nb.Entries) {
			t.Fatalf("level %d: %d entries != %d", level, len(na.Entries), len(nb.Entries))
		}
		for i := range na.Entries {
			ea, eb := &na.Entries[i], &nb.Entries[i]
			if ea.MBR != eb.MBR {
				t.Fatalf("level %d entry %d: MBR %v != %v", level, i, ea.MBR, eb.MBR)
			}
			if na.Leaf {
				if ea.ID != eb.ID || ea.Pt != eb.Pt {
					t.Fatalf("level %d entry %d: object (%d,%v) != (%d,%v)",
						level, i, ea.ID, ea.Pt, eb.ID, eb.Pt)
				}
				if len(ea.Poly.V) != len(eb.Poly.V) {
					t.Fatalf("level %d entry %d: %d vertices != %d", level, i, len(ea.Poly.V), len(eb.Poly.V))
				}
				for j := range ea.Poly.V {
					if ea.Poly.V[j] != eb.Poly.V[j] {
						t.Fatalf("level %d entry %d vertex %d: %v != %v", level, i, j, ea.Poly.V[j], eb.Poly.V[j])
					}
				}
			}
		}
		if level > 1 {
			for i := range na.Entries {
				walk(na.Entries[i].Child, nb.Entries[i].Child, level-1)
			}
		}
	}
	walk(a.Root(), b.Root(), a.Height())
}

// TestFreezeStructuralEquality: Freeze is structure-preserving — the flat
// tree is node-for-node, entry-for-entry the paged tree under a
// renumbering of page ids, and its own invariants hold.
func TestFreezeStructuralEquality(t *testing.T) {
	pts := flatTestPoints(10_000, 1)
	buf := storage.NewBuffer(storage.NewDisk(1024), 1<<20)
	paged := BulkLoadPoints(buf, pts, flatTestDomain, 1)
	flat := paged.Freeze()
	if !flat.Flat() {
		t.Fatal("Freeze returned a non-flat tree")
	}
	if flat.Buffer().Backend() != storage.BackendFlat {
		t.Fatal("frozen tree's buffer is not a flat ledger")
	}
	sameStructure(t, paged, flat)
	if err := flat.CheckInvariants(); err != nil {
		t.Fatalf("flat invariants: %v", err)
	}
	// The source tree must be untouched and still paged.
	if paged.Flat() {
		t.Fatal("Freeze mutated the source tree")
	}
	if err := paged.CheckInvariants(); err != nil {
		t.Fatalf("source invariants after Freeze: %v", err)
	}
}

// TestFreezePolygonTree: the vertex arena deep-copies polygon leaves.
func TestFreezePolygonTree(t *testing.T) {
	buf := storage.NewBuffer(storage.NewDisk(1024), 1<<20)
	var items []PolygonItem
	for i := 0; i < 200; i++ {
		x, y := float64(i%20)*500, float64(i/20)*500
		items = append(items, PolygonItem{ID: int64(i), Poly: geom.Polygon{V: []geom.Point{
			geom.Pt(x, y), geom.Pt(x+100, y), geom.Pt(x+50, y+100),
		}}})
	}
	paged := PackPolygons(buf, items)
	flat := paged.Freeze()
	sameStructure(t, paged, flat)
	if err := flat.CheckInvariants(); err != nil {
		t.Fatalf("flat polygon invariants: %v", err)
	}
}

// TestFlatImmutable: every mutation entry point panics on a flat tree.
func TestFlatImmutable(t *testing.T) {
	flat := frozenTree(flatTestPoints(500, 3))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a flat tree did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("InsertPoint", func() { flat.InsertPoint(999, geom.Pt(1, 1)) })
	mustPanic("DeletePoint", func() { flat.DeletePoint(0, geom.Pt(1, 1)) })
	mustPanic("ReadNodeMut", func() { flat.ReadNodeMut(flat.Root()) })
}

// TestFlatLedgerStats: flat reads count logical reads and decode hits on
// the ledger and never touch a page counter.
func TestFlatLedgerStats(t *testing.T) {
	flat := frozenTree(flatTestPoints(5000, 5))
	flat.Buffer().ResetStats()
	var total int64
	var walk func(id storage.PageID, level int)
	walk = func(id storage.PageID, level int) {
		n := flat.ReadNode(id)
		total++
		if level > 1 {
			for i := range n.Entries {
				walk(n.Entries[i].Child, level-1)
			}
		}
	}
	walk(flat.Root(), flat.Height())
	st := flat.Buffer().Stats()
	if st.LogicalReads != total {
		t.Errorf("LogicalReads = %d, want %d", st.LogicalReads, total)
	}
	if st.DecodeHits != total {
		t.Errorf("DecodeHits = %d, want %d (flat invariant DecodeHits == LogicalReads)", st.DecodeHits, total)
	}
	if st.PageAccesses() != 0 || st.DecodeMisses != 0 {
		t.Errorf("flat reads moved page counters: %+v", st)
	}
}

// TestFlatReadNodeAllocs: the steady-state flat read path is
// allocation-free (the alloc-guard of the flat hot path).
func TestFlatReadNodeAllocs(t *testing.T) {
	flat := frozenTree(flatTestPoints(5000, 9))
	root := flat.Root()
	child := flat.ReadNode(root).Entries[0].Child
	allocs := testing.AllocsPerRun(1000, func() {
		n := flat.ReadNode(child)
		_ = flat.ReadNodeStable(root)
		_ = n.Entries[0]
	})
	if allocs != 0 {
		t.Errorf("flat ReadNode allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkFlatBuild prices flat tree construction: one-shot conversion
// of a bulk-loaded paged tree (Freeze).
func BenchmarkFlatBuild(b *testing.B) {
	pts := flatTestPoints(50_000, 11)
	b.Run("Freeze", func(b *testing.B) {
		buf := storage.NewBuffer(storage.NewDisk(1024), 1<<20)
		paged := BulkLoadPoints(buf, pts, flatTestDomain, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			paged.Freeze()
		}
	})
}
