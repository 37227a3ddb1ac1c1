package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"cij/internal/geom"
)

// rangeIDs collects the sorted object IDs a tree reports for query.
func rangeIDs(t *Tree, query geom.Rect) []int64 {
	var ids []int64
	for _, e := range t.RangeSearch(query) {
		ids = append(ids, e.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestCloneMutIsolatesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 400)
	buf := newBuf(t, 1<<20)
	orig := BulkLoadPoints(buf, pts, testDomain, 1)
	wantIDs := rangeIDs(orig, testDomain)

	mut := orig.CloneMut(1 << 20)

	// Mutate heavily: delete a third of the points, move a third, insert
	// new ones — enough to force splits, condensation and root changes.
	for id := 0; id < 400; id += 3 {
		if !mut.DeletePoint(int64(id), pts[id]) {
			t.Fatalf("delete %d failed", id)
		}
	}
	for id := 1; id < 400; id += 3 {
		if !mut.DeletePoint(int64(id), pts[id]) {
			t.Fatalf("delete-for-move %d failed", id)
		}
		mut.InsertPoint(int64(id), geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
	}
	for id := 400; id < 500; id++ {
		mut.InsertPoint(int64(id), geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
	}

	if err := mut.CheckInvariants(); err != nil {
		t.Fatalf("mutated clone invariants: %v", err)
	}
	if err := orig.CheckInvariants(); err != nil {
		t.Fatalf("original invariants after clone mutation: %v", err)
	}
	if got := rangeIDs(orig, testDomain); len(got) != len(wantIDs) {
		t.Fatalf("original changed: %d objects, want %d", len(got), len(wantIDs))
	} else {
		for i := range got {
			if got[i] != wantIDs[i] {
				t.Fatalf("original id set changed at %d: %d != %d", i, got[i], wantIDs[i])
			}
		}
	}
	wantSize := 400 - 400/3 - 1 + 100 // deletions in the id%0 class, moves keep count
	if mut.Size() != wantSize {
		t.Fatalf("clone size %d, want %d", mut.Size(), wantSize)
	}
	if orig.Size() != 400 {
		t.Fatalf("original size %d, want 400", orig.Size())
	}
}

func TestCloneMutRejectsFlatTree(t *testing.T) {
	buf := newBuf(t, 64)
	tr := BulkLoadPoints(buf, randPoints(rand.New(rand.NewSource(1)), 50), testDomain, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("CloneMut of a flat tree did not panic")
		}
	}()
	tr.Freeze().CloneMut(8)
}

// TestCloneMutFreeze covers the version-bump path the service registry
// uses: a mutated clone re-freezes into a flat tree over its own (cloned)
// disk, and the frozen copy reports the clone's contents, not the
// original's.
func TestCloneMutFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 200)
	buf := newBuf(t, 1<<20)
	orig := BulkLoadPoints(buf, pts, testDomain, 1)

	mut := orig.CloneMut(1 << 20)
	mut.InsertPoint(200, geom.Pt(1234, 5678))
	flat := mut.Freeze()

	probe := geom.NewRect(1233, 5677, 1235, 5679)
	found := false
	for _, e := range flat.RangeSearch(probe) {
		if e.ID == 200 {
			found = true
		}
	}
	if !found {
		t.Fatal("frozen clone missing inserted point")
	}
	for _, e := range orig.Freeze().RangeSearch(probe) {
		if e.ID == 200 {
			t.Fatal("original's frozen copy sees the clone's insert")
		}
	}
}
