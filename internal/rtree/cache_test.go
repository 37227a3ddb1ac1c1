package rtree

import (
	"math/rand"
	"sync"
	"testing"

	"cij/internal/geom"
	"cij/internal/storage"
)

// collectPages returns every page id of the tree (root to leaves).
func collectPages(t *Tree) []storage.PageID {
	var pages []storage.PageID
	var walk func(id storage.PageID, level int)
	walk = func(id storage.PageID, level int) {
		pages = append(pages, id)
		if level <= 1 {
			return
		}
		n := t.readNodeQuiet(id)
		for i := range n.Entries {
			walk(n.Entries[i].Child, level-1)
		}
	}
	if t.Root() != storage.InvalidPage {
		walk(t.Root(), t.Height())
	}
	return pages
}

// nodesEqual compares two decoded nodes field by field.
func nodesEqual(a, b *Node) bool {
	if a.Leaf != b.Leaf || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		ea, eb := &a.Entries[i], &b.Entries[i]
		if ea.MBR != eb.MBR {
			return false
		}
		if a.Leaf {
			if ea.ID != eb.ID || ea.Pt != eb.Pt || len(ea.Poly.V) != len(eb.Poly.V) {
				return false
			}
			for j := range ea.Poly.V {
				if ea.Poly.V[j] != eb.Poly.V[j] {
					return false
				}
			}
		} else if ea.Child != eb.Child {
			return false
		}
	}
	return true
}

// TestReadNodeCachedZeroAlloc is the decode-cache alloc guard: once a
// page's decoded node is installed (second touch of a resident page),
// further ReadNode calls return it without allocating — the steady-state
// hot path of every traversal over a warm buffer is decode-free AND
// allocation-free.
func TestReadNodeCachedZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := BulkLoadPoints(newBuf(t, 1<<20), randPoints(rng, 2000), testDomain, 1)
	pages := collectPages(tr)

	// Warm: first touch decodes to scratch, second installs the node.
	for i := 0; i < 3; i++ {
		for _, id := range pages {
			tr.ReadNode(id)
		}
	}
	before := tr.Buffer().Stats()
	allocs := testing.AllocsPerRun(50, func() {
		for _, id := range pages {
			tr.ReadNode(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cached ReadNode allocates %.2f objects per sweep, want 0", allocs)
	}
	after := tr.Buffer().Stats()
	if hits := after.DecodeHits - before.DecodeHits; hits == 0 {
		t.Fatal("warm sweep recorded no decode hits")
	}
}

// TestReadNodeScratchZeroAllocCapacity0 pins the buffer-less fallback: a
// capacity-0 tree decodes every read into the handle's reused scratch
// node, so even with zero caching the point-tree read path is
// allocation-free once the scratch has grown.
func TestReadNodeScratchZeroAllocCapacity0(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	big := newBuf(t, 1<<20)
	tr := BulkLoadPoints(big, randPoints(rng, 2000), testDomain, 1)
	view := tr.WithBuffer(big.Fork(0)) // buffer-less view, as in Fig. 5
	pages := collectPages(tr)

	for _, id := range pages { // grow the scratch
		view.ReadNode(id)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, id := range pages {
			view.ReadNode(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("capacity-0 scratch ReadNode allocates %.2f objects per sweep, want 0", allocs)
	}
	if hits := view.Buffer().Stats().DecodeHits; hits != 0 {
		t.Fatalf("capacity-0 buffer recorded %d decode hits, want 0 (nothing can be cached)", hits)
	}
}

// TestDecodedCacheCoherenceMutations is the staleness guard: after warm
// reads populate the decoded cache, every mutation path — insert, delete,
// bulkload writes on a shared buffer — must invalidate the touched pages
// so no read ever serves a node that disagrees with the page bytes.
func TestDecodedCacheCoherenceMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	buf := newBuf(t, 1<<20)
	tr := New(buf, KindPoints)
	pts := randPoints(rng, 800)
	for i, p := range pts {
		tr.InsertPoint(int64(i), p)
	}

	verify := func(stage string) {
		t.Helper()
		for _, id := range collectPages(tr) {
			cached := tr.ReadNodeStable(id)
			fresh := tr.ReadNodeMut(id) // always decoded from page bytes
			if !nodesEqual(cached, fresh) {
				t.Fatalf("%s: page %d: cached node differs from page bytes", stage, id)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	// Warm every page into the decoded cache, then mutate repeatedly.
	for i := 0; i < 2; i++ {
		for _, id := range collectPages(tr) {
			tr.ReadNode(id)
		}
	}
	verify("after warm")

	for i := 0; i < 300; i++ {
		tr.InsertPoint(int64(len(pts)+i), geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
	}
	verify("after inserts")

	for i := 0; i < 400; i++ {
		if !tr.DeletePoint(int64(i), pts[i]) {
			t.Fatalf("delete %d failed", i)
		}
	}
	verify("after deletes")

	// Bulkload a second tree on the same buffer: its writes must never
	// poison the first tree's cached nodes (page ids are disjoint, and
	// Write clears only its own page's slot).
	tr2 := BulkLoadPoints(buf, randPoints(rng, 500), testDomain, 1)
	verify("after sibling bulkload")
	for _, id := range collectPages(tr2) {
		cached := tr2.ReadNodeStable(id)
		fresh := tr2.ReadNodeMut(id)
		if !nodesEqual(cached, fresh) {
			t.Fatalf("bulkloaded tree: page %d stale", id)
		}
	}
}

// TestForkDecodedCachesIndependent runs concurrent traversals over
// per-goroutine buffer forks with the race detector watching: decoded
// caches are per-buffer state, so parallel workers must never share (or
// contend on) a decoded node map.
func TestForkDecodedCachesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randPoints(rng, 3000)
	base := newBuf(t, 1<<20)
	tr := BulkLoadPoints(base, pts, testDomain, 1)

	const workers = 8
	var wg sync.WaitGroup
	results := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := tr.WithBuffer(base.Fork(64))
			query := geom.NewRect(float64(w)*1000, 0, float64(w)*1000+2500, 10000)
			for i := 0; i < 20; i++ {
				results[w] = len(view.RangeSearch(query))
			}
			if view.Buffer().Stats().LogicalReads == 0 {
				t.Error("fork performed no reads")
			}
		}(w)
	}
	wg.Wait()

	// Every fork must have seen the same tree.
	for w := 0; w < workers; w++ {
		query := geom.NewRect(float64(w)*1000, 0, float64(w)*1000+2500, 10000)
		if want := len(tr.RangeSearch(query)); results[w] != want {
			t.Fatalf("worker %d saw %d results, want %d", w, results[w], want)
		}
	}
}
