// Package pq provides the typed best-first priority queue shared by every
// best-first R-tree traversal of the CIJ algorithms: BF-VOR (Algorithm 1),
// the batch Voronoi computation (Algorithm 2) and the batch conditional
// filter of NM-CIJ (Algorithm 5).
//
// It replaces the container/heap-based queues those traversals used to
// duplicate. container/heap moves items through interface{} values, which
// boxes every Push and Pop on the heap — with queue items of ~100 bytes
// that was two heap allocations per visited entry, millions per join.
// Queue stores items in a plain typed slice, so after the backing array
// has grown to the traversal's high-water mark, Push and Pop allocate
// nothing (guarded by TestQueueZeroAllocWarm).
//
// Items carry the point-tree projection of an rtree.Entry (id, point,
// MBR, child) rather than the full Entry: the CIJ traversals only ever
// run over point trees, and dropping the polygon field shrinks the item
// from 112 to 80 bytes — sift operations move whole items, so item size
// is the constant factor of every heap operation.
//
// A Queue is owned by exactly one traversal at a time but is meant to be
// reused across calls: Reset empties it while retaining capacity, so a
// batch pipeline processing hundreds of leaves pays the growth cost once.
package pq

import (
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// Item is one prioritized R-tree entry: the entry's point-tree fields,
// whether it came from a leaf node, and its priority key (squared mindist
// from the traversal's anchor point).
//
// The item is deliberately small (56 bytes): sift operations move whole
// items, so item size is the constant factor of every heap operation. Two
// representations are collapsed away: a leaf point's location is its
// degenerate MBR (point trees store MBR = RectFromPoint(pt) exactly), so
// Pt is derived rather than stored, and the object-id and child-page
// fields — never live at the same time — share the Ref slot.
type Item struct {
	Key  float64
	Ref  int64     // leaf entries: object id; internal entries: child page
	MBR  geom.Rect // bounding rectangle
	Leaf bool
}

// Pt returns the indexed point of a leaf entry (the MBR's min corner,
// which for point entries is the point itself).
func (it Item) Pt() geom.Point { return geom.Point{X: it.MBR.MinX, Y: it.MBR.MinY} }

// Child returns the child page of an internal entry.
func (it Item) Child() storage.PageID { return storage.PageID(it.Ref) }

// Queue is a growable binary min-heap of Items ordered by Key. The zero
// value is an empty queue ready for use. Queue is not safe for concurrent
// use; give each goroutine its own.
type Queue struct {
	a []Item
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.a) }

// Reset empties the queue, retaining the backing array for reuse.
func (q *Queue) Reset() { q.a = q.a[:0] }

// Push inserts one item.
func (q *Queue) Push(it Item) {
	q.a = append(q.a, it)
	q.up(len(q.a) - 1)
}

// PushNode bulk-inserts every entry of node n, keyed by the squared
// mindist of its MBR from anchor — the sibling-expansion step shared by
// all best-first traversals ("insert all entries of node(e) into H").
func (q *Queue) PushNode(n *rtree.Node, anchor geom.Point) {
	for i := range n.Entries {
		e := &n.Entries[i]
		ref := e.ID
		if !n.Leaf {
			ref = int64(e.Child)
		}
		q.a = append(q.a, Item{
			Key:  e.MBR.MinDist2(anchor),
			Leaf: n.Leaf,
			Ref:  ref,
			MBR:  e.MBR,
		})
		q.up(len(q.a) - 1)
	}
}

// Pop removes and returns the item with the smallest key. It panics on an
// empty queue, mirroring slice indexing semantics.
func (q *Queue) Pop() Item {
	top := q.a[0]
	last := len(q.a) - 1
	it := q.a[last]
	q.a = q.a[:last]
	if last > 0 {
		q.a[0] = it
		q.down(0)
	}
	return top
}

// Min is the generic companion of Queue: a typed min-heap of arbitrary
// values prioritized by a float64 key, for best-first traversals whose
// items are not R-tree point entries (entry pairs, say). It gives them
// the same no-boxing property: values live in a plain typed slice, so
// Push and Pop allocate nothing once the backing array has reached the
// traversal's high-water mark (guarded by TestMinZeroAllocWarm).
//
// The zero value is an empty heap ready for use; not safe for concurrent
// use.
type Min[T any] struct {
	a []keyed[T]
}

// keyed is one heap slot: the priority key and the carried value.
type keyed[T any] struct {
	key float64
	v   T
}

// Len returns the number of queued values.
func (h *Min[T]) Len() int { return len(h.a) }

// Reset empties the heap, retaining the backing array for reuse.
func (h *Min[T]) Reset() { h.a = h.a[:0] }

// Push inserts v with the given priority key.
func (h *Min[T]) Push(key float64, v T) {
	h.a = append(h.a, keyed[T]{key: key, v: v})
	i := len(h.a) - 1
	it := h.a[i]
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].key <= it.key {
			break
		}
		h.a[i] = h.a[p]
		i = p
	}
	h.a[i] = it
}

// Pop removes and returns the value with the smallest key (and the key).
// It panics on an empty heap, mirroring slice indexing semantics.
func (h *Min[T]) Pop() (float64, T) {
	top := h.a[0]
	last := len(h.a) - 1
	it := h.a[last]
	h.a = h.a[:last]
	if last > 0 {
		i, n := 0, last
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && h.a[r].key < h.a[l].key {
				m = r
			}
			if it.key <= h.a[m].key {
				break
			}
			h.a[i] = h.a[m]
			i = m
		}
		h.a[i] = it
	}
	return top.key, top.v
}

// up sifts the item at index i toward the root, shifting parents down into
// the hole instead of swapping (one item copy per level, not three).
func (q *Queue) up(i int) {
	it := q.a[i]
	for i > 0 {
		p := (i - 1) / 2
		if q.a[p].Key <= it.Key {
			break
		}
		q.a[i] = q.a[p]
		i = p
	}
	q.a[i] = it
}

// down sifts the item at index i toward the leaves.
func (q *Queue) down(i int) {
	it := q.a[i]
	n := len(q.a)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.a[r].Key < q.a[l].Key {
			m = r
		}
		if it.Key <= q.a[m].Key {
			break
		}
		q.a[i] = q.a[m]
		i = m
	}
	q.a[i] = it
}
