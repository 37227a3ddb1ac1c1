package storage

import "fmt"

// Stats accumulates the I/O counters reported in the paper's experiments.
type Stats struct {
	// LogicalReads counts node accesses: every page request, hit or miss.
	// Fig. 5 reports this metric (per-query node accesses, no buffer).
	LogicalReads int64
	// PageReads counts physical reads, i.e. buffer misses. Together with
	// PageWrites this is the "page accesses" metric of Figs. 6-9 and
	// Tables II-III.
	PageReads int64
	// PageWrites counts physical page writes (tree materialization cost).
	PageWrites int64
	// DecodeHits counts ReadDecoded calls served from a page's attached
	// decoded representation — accesses that skipped re-parsing the page.
	// Purely a CPU-side metric: it never contributes to PageAccesses.
	DecodeHits int64
	// DecodeMisses counts ReadDecoded calls that found no decoded
	// representation attached (cold or invalidated page) and had to
	// re-parse the page bytes.
	DecodeMisses int64
}

// PageAccesses returns the combined physical I/O count.
func (s Stats) PageAccesses() int64 { return s.PageReads + s.PageWrites }

// Sub returns the difference s - o of two counter snapshots, used to
// attribute I/O to phases (MAT vs JOIN in Fig. 7).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		LogicalReads: s.LogicalReads - o.LogicalReads,
		PageReads:    s.PageReads - o.PageReads,
		PageWrites:   s.PageWrites - o.PageWrites,
		DecodeHits:   s.DecodeHits - o.DecodeHits,
		DecodeMisses: s.DecodeMisses - o.DecodeMisses,
	}
}

// Add returns the sum of two counter snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		LogicalReads: s.LogicalReads + o.LogicalReads,
		PageReads:    s.PageReads + o.PageReads,
		PageWrites:   s.PageWrites + o.PageWrites,
		DecodeHits:   s.DecodeHits + o.DecodeHits,
		DecodeMisses: s.DecodeMisses + o.DecodeMisses,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("logical=%d reads=%d writes=%d decodehits=%d", s.LogicalReads, s.PageReads, s.PageWrites, s.DecodeHits)
}

// Buffer is an LRU page cache in front of a Disk. Capacity 0 disables
// caching entirely (every access is physical), which matches the
// buffer-less node-access experiments of Fig. 5.
//
// Writes are write-through: each Write costs one physical page write and
// installs the page in the cache, so materializing an R-tree costs exactly
// its page count in writes (Section III-C: "the I/O cost of tree
// construction is exactly the cost of writing the nodes of R'P to disk").
//
// Each cached page can carry one decoded representation (SetDecoded), a
// side slot that rides the page's LRU residency: it is dropped together
// with the page on eviction and cleared by any Write to the page, so a
// non-nil decoded value returned by ReadDecoded is always coherent with
// the page bytes. The slot is how rtree.Tree avoids re-parsing hot nodes
// on every buffer hit without perturbing a single I/O counter — the read
// path (LogicalReads, PageReads, LRU order) is byte-for-byte the one of
// Read.
type Buffer struct {
	disk     *Disk
	capacity int
	stats    Stats
	gen      uint64 // write generation: incremented by every Write

	// Intrusive LRU: a sentinel-anchored doubly-linked list of bufEntry
	// with a free list for recycled nodes, so steady-state page churn —
	// thousands of install/evict cycles per join on a paper-sized 2%
	// buffer — allocates nothing.
	head    bufEntry // sentinel: head.next = most recently used
	free    *bufEntry
	entries map[PageID]*bufEntry // page id -> live entry
	count   int

	// backend marks what the buffer fronts: BackendPaged for the ordinary
	// page cache, BackendFlat for the stats-only ledger of an
	// arena-resident tree (see backend.go). Forks inherit it.
	backend Backend

	// onEvict, when non-nil, observes every page leaving the cache
	// (capacity eviction, shrink, DropAll) together with its attached
	// decoded value. Diagnostics/test hook; it must not call back into the
	// buffer.
	onEvict func(id PageID, decoded any)
}

type bufEntry struct {
	id         PageID
	data       []byte
	decoded    any // decoded representation of data, nil when none attached
	prev, next *bufEntry
}

// NewBuffer creates a buffer over disk with room for capacity pages.
func NewBuffer(disk *Disk, capacity int) *Buffer {
	if capacity < 0 {
		capacity = 0
	}
	b := &Buffer{
		disk:     disk,
		capacity: capacity,
		entries:  make(map[PageID]*bufEntry),
	}
	b.head.prev, b.head.next = &b.head, &b.head
	return b
}

// unlink removes e from the LRU list.
func (b *Buffer) unlink(e *bufEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// linkFront inserts e as most recently used.
func (b *Buffer) linkFront(e *bufEntry) {
	e.prev = &b.head
	e.next = b.head.next
	e.next.prev = e
	b.head.next = e
}

// moveToFront marks e most recently used.
func (b *Buffer) moveToFront(e *bufEntry) {
	if b.head.next == e {
		return
	}
	b.unlink(e)
	b.linkFront(e)
}

// release returns an unlinked entry to the free list.
func (b *Buffer) release(e *bufEntry) {
	e.data = nil
	e.decoded = nil
	e.prev = nil
	e.next = b.free
	b.free = e
}

// Disk returns the underlying disk.
func (b *Buffer) Disk() *Disk { return b.disk }

// Fork returns a fresh, empty buffer over the same disk with the given
// capacity and zeroed counters. A Buffer is single-goroutine state (LRU
// list plus counters), so concurrent readers each Fork their own buffer
// instead of sharing one: Disk reads are safe concurrently as long as no
// page is allocated or written (see the Disk doc), which holds for the
// join phase of the CIJ algorithms — they only read the two input trees.
// Per-fork Stats then attribute I/O to each worker exactly, and summing
// them yields the total physical I/O of a parallel run.
//
// Decoded-page slots are per-buffer state like the LRU list, so each fork
// starts with an empty, private decoded cache — forks never share decoded
// nodes, which is what keeps parallel workers and per-request service
// views race-free without any locking. A fork inherits the eviction hook:
// a hook installed on a dataset's base buffer observes evictions from
// every per-request view forked off it, so it must itself be safe for
// concurrent use (an atomic counter is the typical shape).
func (b *Buffer) Fork(capacity int) *Buffer {
	f := NewBuffer(b.disk, capacity)
	f.onEvict = b.onEvict
	f.backend = b.backend
	return f
}

// Capacity returns the buffer capacity in pages.
func (b *Buffer) Capacity() int { return b.capacity }

// SetCapacity resizes the buffer, evicting least-recently-used pages if it
// shrinks.
func (b *Buffer) SetCapacity(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	b.capacity = capacity
	b.evictOverflow()
}

// Stats returns a snapshot of the I/O counters.
func (b *Buffer) Stats() Stats { return b.stats }

// ResetStats zeroes the I/O counters without touching cached pages.
func (b *Buffer) ResetStats() { b.stats = Stats{} }

// RestoreStats overwrites the counters with a previously captured
// snapshot. Structural bookkeeping (invariant checks, page counting) uses
// it to stay invisible in measured experiments.
func (b *Buffer) RestoreStats(s Stats) { b.stats = s }

// DropAll empties the cache (cold restart) without touching the counters.
// Decoded slots leave with their pages.
func (b *Buffer) DropAll() {
	for e := b.head.next; e != &b.head; {
		next := e.next
		if b.onEvict != nil {
			b.onEvict(e.id, e.decoded)
		}
		delete(b.entries, e.id)
		b.release(e)
		e = next
	}
	b.head.prev, b.head.next = &b.head, &b.head
	b.count = 0
}

// Read returns the contents of the page, through the cache. The returned
// slice is shared; callers must not modify it.
func (b *Buffer) Read(id PageID) []byte {
	b.stats.LogicalReads++
	if e, ok := b.entries[id]; ok {
		b.moveToFront(e)
		return e.data
	}
	b.stats.PageReads++
	data := b.disk.read(id)
	b.install(id, data)
	return data
}

// ReadDecoded is Read plus the page's decoded slot: it returns the page
// bytes and, when one is attached, the decoded representation last stored
// with SetDecoded. The I/O accounting and LRU
// effect are exactly those of Read — the decoded value changes what the
// caller must re-parse, never what the buffer counts. A nil decoded
// result means the caller should decode the bytes (and may SetDecoded the
// result for the next access).
//
// resident reports whether the page was in the buffer BEFORE this read
// (a buffer hit). Callers use it as an install heuristic: decoding into a
// heap node is only worth it for pages that demonstrably get re-read, so
// the hot read path keeps first-touch decodes in scratch and installs on
// the second touch.
func (b *Buffer) ReadDecoded(id PageID) (data []byte, decoded any, resident bool) {
	b.stats.LogicalReads++
	if e, ok := b.entries[id]; ok {
		b.moveToFront(e)
		if e.decoded != nil {
			b.stats.DecodeHits++
			return e.data, e.decoded, true
		}
		b.stats.DecodeMisses++
		return e.data, nil, true
	}
	b.stats.PageReads++
	b.stats.DecodeMisses++
	d := b.disk.read(id)
	b.install(id, d)
	return d, nil, false
}

// SetDecoded attaches a decoded representation to the page's buffer slot,
// to be returned by subsequent ReadDecoded calls while the page stays
// resident and unwritten. It is a no-op when the page is not resident
// (capacity-0 buffers never cache decodes). No counter is touched and the
// LRU order is left alone: attaching is bookkeeping on an access that was
// already counted.
func (b *Buffer) SetDecoded(id PageID, v any) {
	if e, ok := b.entries[id]; ok {
		e.decoded = v
	}
}

// Decoded returns the decoded value currently attached to the page, if
// any, without touching counters or LRU order. Test/diagnostic accessor.
func (b *Buffer) Decoded(id PageID) (any, bool) {
	if e, ok := b.entries[id]; ok && e.decoded != nil {
		return e.decoded, true
	}
	return nil, false
}

// Generation returns the buffer's write generation: a counter incremented
// by every Write through this buffer. Decoded-node caches use it in tests
// to assert that mutation epochs were observed; page-level coherence
// itself is structural (Write clears the written page's decoded slot).
func (b *Buffer) Generation() uint64 { return b.gen }

// SetOnEvict installs a hook observing every page that leaves the cache
// (LRU eviction, capacity shrink, DropAll), along with the decoded value
// the page carried. Pass nil to remove it. The hook must not mutate the
// buffer. Buffers forked after the call inherit the hook (see Fork), so a
// hook that may run on several forks concurrently must be thread-safe.
func (b *Buffer) SetOnEvict(fn func(id PageID, decoded any)) { b.onEvict = fn }

// Contains reports whether the page is currently cached (no counter
// impact). Used by tests.
func (b *Buffer) Contains(id PageID) bool {
	_, ok := b.entries[id]
	return ok
}

// Write stores data into the page (write-through) and caches it. The
// page's decoded slot is cleared — whatever representation was attached
// described the old bytes — and the write generation advances.
func (b *Buffer) Write(id PageID, data []byte) {
	b.stats.PageWrites++
	b.gen++
	b.disk.write(id, data)
	if e, ok := b.entries[id]; ok {
		e.data = b.disk.read(id)
		e.decoded = nil
		b.moveToFront(e)
		return
	}
	b.install(id, b.disk.read(id))
}

// Alloc allocates a fresh page on the underlying disk. Allocation itself
// is free; the subsequent Write pays the I/O.
func (b *Buffer) Alloc() PageID { return b.disk.Alloc() }

func (b *Buffer) install(id PageID, data []byte) {
	if b.capacity == 0 {
		return
	}
	e := b.free
	if e != nil {
		b.free = e.next
		e.next = nil
	} else {
		e = &bufEntry{}
	}
	e.id, e.data, e.decoded = id, data, nil
	b.linkFront(e)
	b.entries[id] = e
	b.count++
	b.evictOverflow()
}

func (b *Buffer) evictOverflow() {
	for b.count > b.capacity {
		back := b.head.prev
		if back == &b.head {
			return
		}
		b.unlink(back)
		delete(b.entries, back.id)
		b.count--
		if b.onEvict != nil {
			b.onEvict(back.id, back.decoded)
		}
		b.release(back)
	}
}
