// Package rtree implements the disk-resident R-tree substrate of the CIJ
// paper: Guttman point insertion with quadratic split, bottom-up bulk loading in
// Hilbert order (the optimized Voronoi R-tree construction of Section
// III-C), range search, best-first incremental nearest-neighbor browsing
// (Hjaltason & Samet), depth-first traversal in Hilbert order, and the
// Synchronous Traversal intersection join (Brinkhoff et al.).
//
// Every node occupies exactly one page of the storage substrate, so the
// buffer statistics of storage.Buffer are precisely the paper's node/page
// access counts.
//
// A tree stores either points (the join inputs P and Q) or convex polygons
// (materialized Voronoi diagrams R'P, R'Q). Point entries have fixed size;
// polygon entries are variable-sized and leaves are byte-packed, mirroring
// the paper's observation that "each cell has at least three vertices and
// not all cells have the same number of vertices".
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"cij/internal/geom"
	"cij/internal/storage"
)

// Kind discriminates what the tree's leaf entries carry.
type Kind uint8

const (
	// KindPoints marks a tree over point data.
	KindPoints Kind = iota
	// KindPolygons marks a tree over convex polygons (Voronoi cells).
	KindPolygons
)

// Entry is a single slot of a node: a child pointer in internal nodes, a
// point or polygon object in leaves.
type Entry struct {
	MBR   geom.Rect      // bounding rectangle of the child/object
	Child storage.PageID // internal nodes: page of the child node
	ID    int64          // leaves: object identifier (dataset index)
	Pt    geom.Point     // leaves of point trees
	Poly  geom.Polygon   // leaves of polygon trees
}

// Node is the in-memory decoding of one page.
type Node struct {
	Leaf    bool
	Entries []Entry
}

// MBR returns the bounding rectangle of all entries of the node.
func (n *Node) MBR() geom.Rect {
	r := geom.EmptyRect()
	for i := range n.Entries {
		r = r.Union(n.Entries[i].MBR)
	}
	return r
}

// Page layout:
//
//	header: [0] kind, [1] leaf flag, [2:4] entry count, [4:8] reserved
//	internal entry: 4×float64 MBR, int64 child          (40 bytes)
//	point leaf entry: int64 id, 2×float64 coordinates    (24 bytes)
//	polygon leaf entry: int64 id, uint16 nv, nv×16 bytes (10+16nv bytes)
const (
	headerSize        = 8
	internalEntrySize = 4*8 + 8
	pointEntrySize    = 8 + 2*8
	polyEntryFixed    = 8 + 2
	vertexSize        = 2 * 8
)

// MaxInternalEntries returns the fan-out of internal nodes for a page size.
func MaxInternalEntries(pageSize int) int {
	return (pageSize - headerSize) / internalEntrySize
}

// MaxPointEntries returns the capacity of point leaves for a page size.
func MaxPointEntries(pageSize int) int {
	return (pageSize - headerSize) / pointEntrySize
}

// polyEntrySize returns the on-page size of one polygon entry.
func polyEntrySize(g geom.Polygon) int {
	return polyEntryFixed + len(g.V)*vertexSize
}

// encodeNode serializes n into a page-sized buffer.
func encodeNode(n *Node, kind Kind, pageSize int) []byte {
	buf := make([]byte, pageSize)
	buf[0] = byte(kind)
	if n.Leaf {
		buf[1] = 1
	}
	binary.LittleEndian.PutUint16(buf[2:4], uint16(len(n.Entries)))
	off := headerSize
	for i := range n.Entries {
		e := &n.Entries[i]
		switch {
		case !n.Leaf:
			off = putRect(buf, off, e.MBR)
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.Child))
			off += 8
		case kind == KindPoints:
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.ID))
			off += 8
			off = putFloat(buf, off, e.Pt.X)
			off = putFloat(buf, off, e.Pt.Y)
		default: // polygon leaf
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.ID))
			off += 8
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(e.Poly.V)))
			off += 2
			for _, v := range e.Poly.V {
				off = putFloat(buf, off, v.X)
				off = putFloat(buf, off, v.Y)
			}
		}
	}
	if off > pageSize {
		panic(fmt.Sprintf("rtree: node overflow, %d bytes > page %d", off, pageSize))
	}
	return buf
}

// decodeNode parses a page into a freshly allocated Node.
func decodeNode(buf []byte, kind Kind) *Node {
	n := &Node{}
	decodeNodeInto(n, buf, kind)
	return n
}

// decodeNodeInto parses a page into n, reusing n's entry slice (and, for
// polygon leaves, the per-slot vertex slices) when their capacity
// suffices. It is the scratch-decode path of buffer-less trees: a Tree
// reading through a capacity-0 buffer decodes every access into one
// reused node, so the Fig. 5 experiments stay allocation-lean without any
// caching. Entries beyond the new count keep their backing arrays but are
// zeroed-by-overwrite on the next reuse only as far as the then-current
// count, which is fine because Node consumers never look past
// len(Entries).
func decodeNodeInto(n *Node, buf []byte, kind Kind) *Node {
	n.Leaf = buf[1] == 1
	count := int(binary.LittleEndian.Uint16(buf[2:4]))
	if cap(n.Entries) >= count {
		n.Entries = n.Entries[:count]
	} else {
		n.Entries = make([]Entry, count)
	}
	off := headerSize
	// One specialized loop per node shape: the discriminator is per-node,
	// not per-entry, and hoisting it lets each loop run branch-free over
	// the fixed-size records. Fields the shape does not use are left
	// unspecified when the entry slice is reused — every consumer reads
	// only shape-appropriate fields (leaf flags gate ID/Pt/Poly vs Child),
	// and fresh nodes come from a zeroed allocation.
	switch {
	case !n.Leaf:
		for i := 0; i < count; i++ {
			e := &n.Entries[i]
			e.MBR, off = getRect(buf, off)
			e.Child = storage.PageID(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	case kind == KindPoints:
		for i := 0; i < count; i++ {
			e := &n.Entries[i]
			e.ID = int64(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
			var x, y float64
			x, off = getFloat(buf, off)
			y, off = getFloat(buf, off)
			e.Pt = geom.Pt(x, y)
			e.MBR = geom.RectFromPoint(e.Pt)
		}
	default:
		for i := 0; i < count; i++ {
			e := &n.Entries[i]
			e.ID = int64(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
			nv := int(binary.LittleEndian.Uint16(buf[off:]))
			off += 2
			vs := e.Poly.V
			if cap(vs) >= nv {
				vs = vs[:nv]
			} else {
				vs = make([]geom.Point, nv)
			}
			for j := 0; j < nv; j++ {
				var x, y float64
				x, off = getFloat(buf, off)
				y, off = getFloat(buf, off)
				vs[j] = geom.Pt(x, y)
			}
			e.Poly = geom.Polygon{V: vs}
			e.MBR = e.Poly.Bounds()
		}
	}
	return n
}

func putRect(buf []byte, off int, r geom.Rect) int {
	off = putFloat(buf, off, r.MinX)
	off = putFloat(buf, off, r.MinY)
	off = putFloat(buf, off, r.MaxX)
	off = putFloat(buf, off, r.MaxY)
	return off
}

func getRect(buf []byte, off int) (geom.Rect, int) {
	var r geom.Rect
	r.MinX, off = getFloat(buf, off)
	r.MinY, off = getFloat(buf, off)
	r.MaxX, off = getFloat(buf, off)
	r.MaxY, off = getFloat(buf, off)
	return r, off
}

func putFloat(buf []byte, off int, f float64) int {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(f))
	return off + 8
}

func getFloat(buf []byte, off int) (float64, int) {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])), off + 8
}
