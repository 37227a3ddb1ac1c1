package rtree

import "cij/internal/storage"

// CloneMut returns a private MUTABLE copy of the tree over a
// copy-on-write clone (storage.Disk.Clone) of the tree's disk, behind a
// new buffer of the given capacity. This is the mutation counterpart of
// WithBuffer: where views share the original's immutable pages and
// therefore must never write, a mutable clone owns a snapshot that
// detaches shared pages on first write, so InsertPoint/DeletePoint on the
// clone leave the original tree — and every view forked off it, including
// mid-traversal ones — byte-for-byte intact. The clone keeps no reference
// to the original, so a version that is no longer read can be collected
// while its successors live on.
//
// The live-dataset path uses it to build version N+1 next to a serving
// version N: clone, mutate the clone, then atomically install the new
// handle; in-flight joins keep reading version N's pages, which the
// copy-on-write contract guarantees are never touched.
func (t *Tree) CloneMut(capacity int) *Tree {
	if t.flat != nil {
		panic("rtree: flat trees are immutable (CloneMut needs the paged original)")
	}
	clone := *t
	clone.buf = storage.NewBuffer(t.buf.Disk().Clone(), capacity)
	clone.scratch = &Node{}
	return &clone
}
