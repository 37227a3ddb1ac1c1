// Package storage simulates the disk substrate the CIJ paper measures
// against: a page-structured store (1 KB pages by default, as in Section V)
// fronted by an LRU buffer whose capacity is a percentage of the data size.
//
// Every R-tree node occupies exactly one page. All node accesses go through
// a Buffer; a buffer miss is one physical page access — the unit of the
// paper's "page accesses" metric. The simulated disk has no latency: the
// experiment harness can convert page counts to charged time with the
// paper's 10 ms/page model. Each resident page also carries its decoded
// node (Buffer.ReadDecoded/SetDecoded), so a buffer hit skips re-parsing;
// the slot is always on and moves no I/O counter or LRU position.
//
// # Durability
//
// The in-memory Disk stays the working representation, but the package
// also provides the primitives the service's durable tier is built from,
// all behind the FS/File seam (fs.go) so tests can inject faults:
//
//   - Page files (pagefile.go): SaveDiskFile writes a Disk as one
//     checksummed image — a CRC-framed header plus one CRC-framed frame
//     per page, binding each checksum to its page ID — replaced
//     atomically via WriteFileAtomic (tmp + fsync + rename + dir sync).
//     OpenDiskFile restores a byte-identical Disk after checking every
//     checksum, so a reopened tree reads the same pages and counts the
//     same I/O as the original. Boot and fsck both read a snapshot
//     through it, once.
//   - Write-ahead log (wal.go): CRC-framed, fsync-gated records with a
//     torn-tail-tolerant open scan — the expected crash shape (a partial
//     final frame) is repaired silently, while a mid-log checksum
//     mismatch is surfaced as corruption and the log truncated to its
//     valid prefix.
//   - Fault injection (faultfs.go): FaultFS is an in-memory FS that can
//     fail or crash at any write/sync/rename, in three crash modes
//     (lose-unsynced, keep-unsynced, torn-write). The crash-recovery
//     matrix in internal/check drives every fault point through it.
//
// OSFS is the production implementation over the real filesystem.
package storage

import "fmt"

// DefaultPageSize is the page size used throughout the paper's evaluation
// ("a disk page size of 1K bytes").
const DefaultPageSize = 1024

// PageID identifies a page on the simulated disk. The zero value is a valid
// page; InvalidPage marks "no page".
type PageID int64

// InvalidPage is the sentinel for a missing page reference.
const InvalidPage PageID = -1

// Disk is an in-memory simulation of a page-structured disk. It only
// tracks raw pages; caching and I/O accounting live in Buffer.
//
// Disk is not safe for concurrent mutation: Alloc and write must not run
// while any other access is in flight. Concurrent reads of an immutable
// disk ARE safe — read only returns pages, never touching Disk state —
// which is what the parallel join engine relies on: trees are built
// single-threaded, then workers read them through private Buffer forks
// (Buffer.Fork) with no locking.
//
// Clone extends that contract to mutation: it snapshots the disk
// copy-on-write, so a writer may keep allocating and writing on the clone
// while any number of readers keep reading the original. The two disks
// share page storage until a shared page is written, at which point the
// writing disk reallocates it privately — the original's page slices are
// never touched after the clone, which is what makes live-dataset version
// snapshots safe without any locking on the read side.
type Disk struct {
	pageSize int
	pages    [][]byte
	// shared flags pages whose backing slice is (potentially) referenced
	// by another disk in this clone lineage; a write to a shared page must
	// reallocate before touching bytes. nil means "no page is shared"
	// (a disk that was never cloned).
	shared []bool
}

// NewDisk creates an empty disk with the given page size.
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		panic(fmt.Sprintf("storage: invalid page size %d", pageSize))
	}
	return &Disk{pageSize: pageSize}
}

// PageSize returns the fixed page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// NumPages returns the number of allocated pages (the "data size on disk"
// in pages, used to size buffers as a percentage).
func (d *Disk) NumPages() int { return len(d.pages) }

// Alloc allocates a new zeroed page and returns its id.
func (d *Disk) Alloc() PageID {
	d.pages = append(d.pages, make([]byte, d.pageSize))
	if d.shared != nil {
		d.shared = append(d.shared, false)
	}
	return PageID(len(d.pages) - 1)
}

// Clone returns a copy-on-write snapshot of the disk: the clone sees the
// same page contents, allocates and writes independently, and never
// perturbs pages the original (or its readers) can see. Both disks mark
// every currently allocated page shared, so a later write on EITHER side
// reallocates before mutating — the snapshot holds even if the source
// keeps being written, though in the intended use (dataset versioning)
// the source is frozen the moment it is cloned.
func (d *Disk) Clone() *Disk {
	n := len(d.pages)
	c := &Disk{
		pageSize: d.pageSize,
		pages:    append(make([][]byte, 0, n), d.pages...),
		shared:   make([]bool, n),
	}
	for i := range c.shared {
		c.shared[i] = true
	}
	// The source's shared bitmap may be shorter than its page table when
	// pages were allocated after an earlier clone; (re)build it to cover
	// everything now shared with c.
	d.shared = make([]bool, n)
	for i := range d.shared {
		d.shared[i] = true
	}
	return c
}

// read returns the raw page contents. Callers must treat the slice as
// read-only.
func (d *Disk) read(id PageID) []byte {
	if id < 0 || int(id) >= len(d.pages) {
		panic(fmt.Sprintf("storage: read of unallocated page %d", id))
	}
	return d.pages[id]
}

// write replaces the page contents. data must be at most one page.
func (d *Disk) write(id PageID, data []byte) {
	if id < 0 || int(id) >= len(d.pages) {
		panic(fmt.Sprintf("storage: write of unallocated page %d", id))
	}
	if len(data) > d.pageSize {
		panic(fmt.Sprintf("storage: write of %d bytes exceeds page size %d", len(data), d.pageSize))
	}
	if int(id) < len(d.shared) && d.shared[id] {
		// The slice is visible through another disk of the clone lineage:
		// writing in place would corrupt that snapshot. Detach first.
		d.pages[id] = make([]byte, d.pageSize)
		d.shared[id] = false
	}
	page := d.pages[id]
	copy(page, data)
	for i := len(data); i < len(page); i++ {
		page[i] = 0
	}
}
