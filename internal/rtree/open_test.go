package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"cij/internal/geom"
	"cij/internal/storage"
)

func collectIDs(entries []Entry) []int64 {
	ids := make([]int64, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// TestOpenFromSnapshot persists a built tree's pages through the page-file
// format and reattaches with Open: the reopened tree must be structurally
// identical and answer searches exactly like the original.
func TestOpenFromSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	buf := newBuf(t, 0)
	tr := New(buf, KindPoints)
	pts := randPoints(rng, 500)
	for i, p := range pts {
		tr.InsertPoint(int64(i), p)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	fs := storage.NewFaultFS()
	if err := storage.SaveDiskFile(fs, "tree.pages", buf.Disk()); err != nil {
		t.Fatalf("SaveDiskFile: %v", err)
	}
	disk, err := storage.OpenDiskFile(fs, "tree.pages")
	if err != nil {
		t.Fatalf("OpenDiskFile: %v", err)
	}
	got, err := Open(storage.NewBuffer(disk, 0), tr.Meta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("reopened tree invariants: %v", err)
	}
	if got.Size() != tr.Size() || got.Height() != tr.Height() || got.Root() != tr.Root() {
		t.Fatalf("reopened header (%d,%d,%d) != original (%d,%d,%d)",
			got.Size(), got.Height(), got.Root(), tr.Size(), tr.Height(), tr.Root())
	}
	for trial := 0; trial < 20; trial++ {
		q := geom.NewRect(rng.Float64()*9000, rng.Float64()*9000, 800, 800)
		a := collectIDs(tr.RangeSearch(q))
		b := collectIDs(got.RangeSearch(q))
		if len(a) != len(b) {
			t.Fatalf("query %v: %d vs %d results after reopen", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %v: result %d differs (%d vs %d)", q, i, a[i], b[i])
			}
		}
	}

	// The reopened tree stays mutable: a COW clone accepts inserts.
	mut := got.CloneMut(0)
	mut.InsertPoint(10_000, geom.Pt(1, 1))
	if mut.Size() != tr.Size()+1 {
		t.Fatalf("mutable clone of reopened tree: size %d", mut.Size())
	}
	if err := mut.CheckInvariants(); err != nil {
		t.Fatalf("mutated clone invariants: %v", err)
	}
}

func TestOpenEmptyTree(t *testing.T) {
	tr, err := Open(newBuf(t, 0), Meta{Kind: KindPoints, Root: storage.InvalidPage})
	if err != nil {
		t.Fatalf("Open empty: %v", err)
	}
	if tr.Size() != 0 || tr.Height() != 0 {
		t.Fatalf("empty open: size %d height %d", tr.Size(), tr.Height())
	}
}

func TestOpenRejectsBadMeta(t *testing.T) {
	cases := []Meta{
		{Kind: KindPoints, Root: 99, Height: 1, Size: 1},                  // root beyond disk
		{Kind: KindPoints, Root: storage.InvalidPage, Height: 2, Size: 5}, // empty root, nonzero shape
		{Kind: KindPoints, Root: -7, Height: 1, Size: 1},                  // negative root
	}
	for i, m := range cases {
		if _, err := Open(newBuf(t, 0), m); err == nil {
			t.Errorf("case %d: Open accepted bad meta %+v", i, m)
		}
	}
	// Every level takes a page, so a header taller than the disk is bad.
	buf := newBuf(t, 0)
	buf.Alloc()
	if _, err := Open(buf, Meta{Kind: KindPoints, Root: 0, Height: 2, Size: 1}); err == nil {
		t.Error("Open accepted a height of 2 on a one-page disk")
	}
}

// TestCheckInvariantsRejectsSharedPage: a page reached along two paths is
// not a tree, even when the leaf count matches the header. Chained, such
// pages would make the walk exponential in the height.
func TestCheckInvariantsRejectsSharedPage(t *testing.T) {
	buf := newBuf(t, 0)
	leaf := buf.Alloc()
	buf.Write(leaf, encodeNode(&Node{Leaf: true, Entries: []Entry{{ID: 0, Pt: geom.Pt(1, 2)}}}, KindPoints, buf.Disk().PageSize()))
	mbr := geom.RectFromPoint(geom.Pt(1, 2))
	root := buf.Alloc()
	buf.Write(root, encodeNode(&Node{Entries: []Entry{{MBR: mbr, Child: leaf}, {MBR: mbr, Child: leaf}}}, KindPoints, buf.Disk().PageSize()))
	tr, err := Open(buf, Meta{Kind: KindPoints, Root: root, Height: 2, Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a leaf shared by two entries")
	}
}
