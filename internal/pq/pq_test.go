package pq

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"cij/internal/geom"
	"cij/internal/rtree"
)

func TestQueuePopsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue
	const n = 500
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64() * 1000
		q.Push(Item{Key: keys[i], Ref: int64(i)})
	}
	sort.Float64s(keys)
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	for i := 0; i < n; i++ {
		it := q.Pop()
		if it.Key != keys[i] {
			t.Fatalf("pop %d: key %g, want %g", i, it.Key, keys[i])
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after draining = %d", q.Len())
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q Queue
	last := -1.0
	for round := 0; round < 50; round++ {
		for i := 0; i < rng.Intn(20)+1; i++ {
			q.Push(Item{Key: rng.Float64() * 100})
		}
		// Partial drain: keys must come out ascending within one drain.
		last = -1
		for i := 0; i < rng.Intn(q.Len()+1); i++ {
			it := q.Pop()
			if it.Key < last {
				t.Fatalf("round %d: pop out of order: %g after %g", round, it.Key, last)
			}
			last = it.Key
		}
		q.Reset()
	}
}

func TestQueuePushNodeKeys(t *testing.T) {
	anchor := geom.Pt(5, 5)
	n := &rtree.Node{Leaf: true}
	for i := 0; i < 10; i++ {
		pt := geom.Pt(float64(i), float64(i*2))
		n.Entries = append(n.Entries, rtree.Entry{
			ID: int64(i), Pt: pt, MBR: geom.RectFromPoint(pt),
		})
	}
	var q Queue
	q.PushNode(n, anchor)
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want 10", q.Len())
	}
	last := -1.0
	for q.Len() > 0 {
		it := q.Pop()
		if !it.Leaf {
			t.Fatal("leaf flag lost")
		}
		if want := it.MBR.MinDist2(anchor); it.Key != want {
			t.Fatalf("key %g, want mindist2 %g", it.Key, want)
		}
		// The leaf point is reconstructed from the degenerate MBR.
		if pt := it.Pt(); pt != geom.Pt(float64(it.Ref), float64(it.Ref*2)) {
			t.Fatalf("item %d: Pt() = %v", it.Ref, pt)
		}
		if it.Key < last {
			t.Fatalf("pop out of order: %g after %g", it.Key, last)
		}
		last = it.Key
	}
}

// TestItemSize pins the item layout: sift operations copy whole items, so
// growing the struct silently taxes every heap operation of every
// traversal. 56 bytes = key + ref + MBR + leaf flag (padded).
func TestItemSize(t *testing.T) {
	if got := unsafe.Sizeof(Item{}); got != 56 {
		t.Fatalf("pq.Item is %d bytes, want 56", got)
	}
}

// TestQueueZeroAllocWarm pins the package's reason to exist: once the
// backing array has grown, Push/PushNode/Pop allocate nothing. A
// regression here (e.g. reintroducing container/heap boxing) fails loudly
// instead of silently eroding the join's allocation budget.
func TestQueueZeroAllocWarm(t *testing.T) {
	node := &rtree.Node{Leaf: true}
	for i := 0; i < 32; i++ {
		pt := geom.Pt(float64(i%7), float64(i%11))
		node.Entries = append(node.Entries, rtree.Entry{ID: int64(i), Pt: pt, MBR: geom.RectFromPoint(pt)})
	}
	var q Queue
	anchor := geom.Pt(3, 3)
	// Warm up: grow the backing array past what the measured loop needs.
	for i := 0; i < 4; i++ {
		q.PushNode(node, anchor)
	}
	q.Reset()

	allocs := testing.AllocsPerRun(100, func() {
		q.Reset()
		q.PushNode(node, anchor)
		q.Push(Item{Key: 0.5})
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm push/pop cycle allocates %.1f objects per run, want 0", allocs)
	}
}
