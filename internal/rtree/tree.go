package rtree

import (
	"fmt"

	"cij/internal/geom"
	"cij/internal/storage"
)

// Tree is a disk-resident R-tree. All node accesses go through the
// storage.Buffer handed to the constructor, so I/O accounting is exact.
//
// Node reads come in three forms with one shared rule — nodes returned by
// the read methods are SHARED and READ-ONLY unless stated otherwise:
//
//   - ReadNode: the hot-path read. Served from the buffer's decoded-node
//     cache when the page is resident; on a capacity-0 (buffer-less)
//     buffer it decodes into a per-handle scratch node, so the result is
//     only valid until the next read through the same handle.
//   - ReadNodeStable: like ReadNode but never scratch-backed — the result
//     stays valid indefinitely. For callers that hold a node across
//     further reads (synchronous-traversal joins, DFS walks).
//   - ReadNodeMut: a private, freshly decoded copy the caller may mutate.
//     Mutation paths (insert/delete) use it; the shared cache never sees
//     nodes that anyone writes to.
//
// Decoded-node caching is what makes repeat accesses to buffer-resident
// pages decode-free; coherence is the buffer's job (eviction and Write
// drop a page's decoded slot), so a cached node can never be stale.
type Tree struct {
	buf    *storage.Buffer
	kind   Kind
	root   storage.PageID
	height int // 1 = root is a leaf
	size   int // number of indexed objects

	maxInternal int
	maxPoints   int
	minFill     int

	// scratch is the reused decode target of capacity-0 reads; one per
	// handle (WithBuffer views get their own), so handles never clobber
	// each other's in-flight node.
	scratch *Node

	// flat, when non-nil, marks an arena-resident tree (see flat.go):
	// node ids are slab indexes, reads are array lookups counted on the
	// buffer ledger, and mutation paths panic.
	flat *flatStore
}

// New creates an empty tree of the given kind on buf. The first Insert
// creates the root.
func New(buf *storage.Buffer, kind Kind) *Tree {
	pageSize := buf.Disk().PageSize()
	t := &Tree{
		buf:         buf,
		kind:        kind,
		root:        storage.InvalidPage,
		maxInternal: MaxInternalEntries(pageSize),
		maxPoints:   MaxPointEntries(pageSize),
		scratch:     &Node{},
	}
	if t.maxInternal < 2 || t.maxPoints < 2 {
		panic(fmt.Sprintf("rtree: page size %d too small", pageSize))
	}
	// Guttman's recommended minimum fill is 40% of capacity.
	t.minFill = t.maxInternal * 2 / 5
	if t.minFill < 1 {
		t.minFill = 1
	}
	return t
}

// Buffer returns the buffer the tree performs I/O through.
func (t *Tree) Buffer() *storage.Buffer { return t.buf }

// WithBuffer returns a read-only view of the tree that performs all its
// I/O through buf, which must be backed by the same disk as the tree's own
// buffer. Views are how concurrent traversals isolate their caching and
// I/O accounting: each goroutine forks a private buffer
// (storage.Buffer.Fork) and reads through its own view, so no LRU state or
// counter is shared. Mutating a view (Insert/Delete) would desynchronize
// the handles; views are for searches and traversals only.
func (t *Tree) WithBuffer(buf *storage.Buffer) *Tree {
	if buf.Disk() != t.buf.Disk() {
		panic("rtree: WithBuffer requires a buffer over the tree's own disk")
	}
	if t.flat != nil && buf.Backend() != storage.BackendFlat {
		panic("rtree: a flat tree's view needs a flat ledger (fork the tree's own buffer)")
	}
	view := *t
	view.buf = buf
	// Each view decodes into its own scratch and caches into its own
	// buffer's decoded slots: views share immutable pages, never decode
	// state.
	view.scratch = &Node{}
	return &view
}

// Kind returns what the leaves store.
func (t *Tree) Kind() Kind { return t.kind }

// Root returns the root page id, or storage.InvalidPage for an empty tree.
func (t *Tree) Root() storage.PageID { return t.root }

// Height returns the number of levels (1 = the root is a leaf; 0 = empty).
func (t *Tree) Height() int { return t.height }

// Size returns the number of indexed objects.
func (t *Tree) Size() int { return t.size }

// NumPages returns the number of nodes (= pages) of the tree. It is
// computed by traversal and used to size LRU buffers and the LB cost.
func (t *Tree) NumPages() int {
	if t.root == storage.InvalidPage {
		return 0
	}
	if t.flat != nil {
		return len(t.flat.nodes)
	}
	return t.countPages(t.root, t.height)
}

func (t *Tree) countPages(id storage.PageID, level int) int {
	if level <= 1 {
		return 1
	}
	n := t.readNodeQuiet(id)
	total := 1
	for i := range n.Entries {
		total += t.countPages(n.Entries[i].Child, level-1)
	}
	return total
}

// ReadNode fetches the node stored at id, counting one node access in the
// buffer statistics exactly like a plain page read. When the page is
// buffer-resident and carries a decoded node, that node is returned
// without re-parsing (a decode hit). A resident page read without a
// decoded node (second touch) is decoded once into a fresh node that is
// attached to the page for subsequent reads. A physical miss — and every
// read on a capacity-0, buffer-less tree — decodes into the handle's
// reused scratch node: pages that are never re-read while resident never
// pay a heap decode, which keeps the paper's tiny-buffer experiments
// allocation-lean without inflating their accounting.
//
// The returned node is shared and read-only, and — because of the
// scratch — guaranteed valid only until the next read through the same
// handle. Callers that retain a node across further reads must use
// ReadNodeStable; callers that mutate must use ReadNodeMut.
func (t *Tree) ReadNode(id storage.PageID) *Node {
	// Flat trees serve reads straight from the node arena: an index plus
	// two ledger increments, nothing decoded, nothing cached. Arena nodes
	// are immutable, so the result is stable despite coming from the hot
	// read path.
	if f := t.flat; f != nil {
		t.buf.NoteFlatRead()
		return &f.nodes[id]
	}
	data, dec, resident := t.buf.ReadDecoded(id)
	if dec != nil {
		return dec.(*Node)
	}
	if !resident || t.buf.Capacity() == 0 {
		return decodeNodeInto(t.scratch, data, t.kind)
	}
	n := decodeNode(data, t.kind)
	t.buf.SetDecoded(id, n)
	return n
}

// ReadNodeStable is ReadNode without the scratch reuse: the returned node
// is shared and read-only but remains valid indefinitely (a decoded node
// is immutable; mutations replace, never modify, cached nodes).
// Traversals that hold a parent node while reading its children read
// through this method. It installs the decode on first touch — stable
// callers (DFS walks, synchronous joins) revisit upper levels reliably.
func (t *Tree) ReadNodeStable(id storage.PageID) *Node {
	if f := t.flat; f != nil {
		t.buf.NoteFlatRead()
		return &f.nodes[id]
	}
	data, dec, _ := t.buf.ReadDecoded(id)
	if dec != nil {
		return dec.(*Node)
	}
	n := decodeNode(data, t.kind)
	t.buf.SetDecoded(id, n)
	return n
}

// ReadNodeMut fetches a private, freshly decoded copy of the node that
// the caller may mutate. It bypasses the decoded-node cache in both
// directions: it never returns a shared node and never installs one, so
// insert/delete/split can edit entry slices freely. Coherence with
// readers is re-established by the writeNode that follows every mutation
// (Buffer.Write clears the page's decoded slot).
func (t *Tree) ReadNodeMut(id storage.PageID) *Node {
	if t.flat != nil {
		panic("rtree: flat trees are immutable")
	}
	return decodeNode(t.buf.Read(id), t.kind)
}

// readNodeQuiet reads a (shared, read-only) node without disturbing the
// I/O counters; it is used by structural bookkeeping (page counting,
// invariant checks) that is not part of any measured algorithm.
func (t *Tree) readNodeQuiet(id storage.PageID) *Node {
	snapshot := t.buf.Stats()
	n := t.ReadNodeStable(id)
	t.buf.RestoreStats(snapshot)
	return n
}

// readNodeQuietMut is readNodeQuiet for mutation paths: a private,
// counter-silent copy.
func (t *Tree) readNodeQuietMut(id storage.PageID) *Node {
	snapshot := t.buf.Stats()
	n := t.ReadNodeMut(id)
	t.buf.RestoreStats(snapshot)
	return n
}

// writeNode encodes and stores n at id.
func (t *Tree) writeNode(id storage.PageID, n *Node) {
	if t.flat != nil {
		panic("rtree: flat trees are immutable")
	}
	t.buf.Write(id, encodeNode(n, t.kind, t.buf.Disk().PageSize()))
}

// allocNode allocates a page and stores n there.
func (t *Tree) allocNode(n *Node) storage.PageID {
	if t.flat != nil {
		panic("rtree: flat trees are immutable")
	}
	id := t.buf.Alloc()
	t.writeNode(id, n)
	return id
}

// leafFits reports whether the entries (plus optionally extra) fit into a
// leaf page, accounting for variable-size polygon entries.
func (t *Tree) leafFits(entries []Entry, extra *Entry) bool {
	if t.kind == KindPoints {
		n := len(entries)
		if extra != nil {
			n++
		}
		return n <= t.maxPoints
	}
	sz := headerSize
	for i := range entries {
		sz += polyEntrySize(entries[i].Poly)
	}
	if extra != nil {
		sz += polyEntrySize(extra.Poly)
	}
	return sz <= t.buf.Disk().PageSize()
}

// CheckInvariants validates the structural invariants of the tree: every
// page is reached once, every internal entry's MBR equals the MBR of its
// child node, all leaves are at the same depth, and node occupancy
// respects capacities. Tests and snapshot restore call it; it returns a
// descriptive error.
func (t *Tree) CheckInvariants() error {
	if t.root == storage.InvalidPage {
		if t.size != 0 {
			return fmt.Errorf("empty root but size %d", t.size)
		}
		return nil
	}
	count, err := t.checkNode(t.root, t.height, make(map[storage.PageID]bool))
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("leaf objects %d != size %d", count, t.size)
	}
	return nil
}

// checkNode validates the subtree at id, whose level is given. seen holds
// the pages visited so far: a page reached twice means a cycle or a
// shared child, which would otherwise make the walk exponential.
func (t *Tree) checkNode(id storage.PageID, level int, seen map[storage.PageID]bool) (int, error) {
	if seen[id] {
		return 0, fmt.Errorf("page %d: reached twice", id)
	}
	seen[id] = true
	n := t.readNodeQuiet(id)
	if level == 1 != n.Leaf {
		return 0, fmt.Errorf("page %d: leaf flag %v at level %d (height %d)", id, n.Leaf, level, t.height)
	}
	if len(n.Entries) == 0 {
		return 0, fmt.Errorf("page %d: empty node", id)
	}
	if n.Leaf {
		if t.kind == KindPoints && len(n.Entries) > t.maxPoints {
			return 0, fmt.Errorf("page %d: leaf overflow %d > %d", id, len(n.Entries), t.maxPoints)
		}
		if !t.leafFits(n.Entries, nil) {
			return 0, fmt.Errorf("page %d: leaf byte overflow", id)
		}
		return len(n.Entries), nil
	}
	if len(n.Entries) > t.maxInternal {
		return 0, fmt.Errorf("page %d: internal overflow %d > %d", id, len(n.Entries), t.maxInternal)
	}
	total := 0
	for i := range n.Entries {
		e := &n.Entries[i]
		child := t.readNodeQuiet(e.Child)
		cm := child.MBR()
		if !rectAlmostEqual(cm, e.MBR) {
			return 0, fmt.Errorf("page %d entry %d: MBR %v != child MBR %v", id, i, e.MBR, cm)
		}
		c, err := t.checkNode(e.Child, level-1, seen)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func rectAlmostEqual(a, b geom.Rect) bool {
	const tol = 1e-6
	return abs(a.MinX-b.MinX) < tol && abs(a.MinY-b.MinY) < tol &&
		abs(a.MaxX-b.MaxX) < tol && abs(a.MaxY-b.MaxY) < tol
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
