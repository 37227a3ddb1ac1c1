package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Page-file format: the durable image of a Disk, one file per dataset
// version. The layout preserves the paper's page structure exactly — the
// payload of frame i is byte-for-byte page i of the simulated disk — so a
// dataset restored from a snapshot performs the identical page accesses
// (and produces identical pair sets) as the in-memory original.
//
//	file header (24 bytes):
//	  [0:8]   magic "CIJPAGE1" (format version rides in the magic)
//	  [8:12]  page size, uint32 LE
//	  [12:16] page count, uint32 LE
//	  [16:20] CRC-32C of bytes [0:16]
//	  [20:24] reserved (zero)
//	frame i at 24 + i*(8 + pageSize):
//	  [0:4]   CRC-32C of (page id || payload)
//	  [4:8]   page id, uint32 LE (binds the frame to its slot, so a
//	          misdirected write is a checksum error, not silent corruption)
//	  [8:8+pageSize] the raw page bytes
const (
	pageFileMagic      = "CIJPAGE1"
	pageFileHeaderSize = 24
	pageFrameHeader    = 8
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func pageFrameSize(pageSize int) int { return pageFrameHeader + pageSize }

func frameCRC(id uint32, payload []byte) uint32 {
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], id)
	crc := crc32.Update(0, crcTable, idb[:])
	return crc32.Update(crc, crcTable, payload)
}

// EncodeDiskImage serializes the disk into the page-file format. The
// image is built in memory and written in one pwrite by SaveDiskFile, so
// a snapshot is a small, enumerable number of fault points (create,
// write, fsync, rename, dir fsync) rather than one per page.
func EncodeDiskImage(d *Disk) []byte {
	n := d.NumPages()
	frame := pageFrameSize(d.pageSize)
	img := make([]byte, pageFileHeaderSize+n*frame)
	copy(img[0:8], pageFileMagic)
	binary.LittleEndian.PutUint32(img[8:12], uint32(d.pageSize))
	binary.LittleEndian.PutUint32(img[12:16], uint32(n))
	binary.LittleEndian.PutUint32(img[16:20], crc32.Checksum(img[0:16], crcTable))
	for i := 0; i < n; i++ {
		off := pageFileHeaderSize + i*frame
		payload := d.pages[i]
		binary.LittleEndian.PutUint32(img[off:off+4], frameCRC(uint32(i), payload))
		binary.LittleEndian.PutUint32(img[off+4:off+8], uint32(i))
		copy(img[off+pageFrameHeader:], payload)
	}
	return img
}

// SaveDiskFile writes the disk's durable image to path atomically (temp
// file, fsync, rename, directory fsync): after any crash, path holds
// either the previous complete snapshot or the new one.
func SaveDiskFile(fs FS, path string, d *Disk) error {
	return WriteFileAtomic(fs, path, EncodeDiskImage(d))
}

// readPageFileHeader preads and validates the header, returning
// (pageSize, pageCount).
func readPageFileHeader(f File, path string) (int, int, error) {
	var hdr [pageFileHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, 0, fmt.Errorf("storage: %s: reading page-file header: %w", path, err)
	}
	if string(hdr[0:8]) != pageFileMagic {
		return 0, 0, fmt.Errorf("storage: %s: not a page file (magic %q)", path, hdr[0:8])
	}
	if got, want := crc32.Checksum(hdr[0:16], crcTable), binary.LittleEndian.Uint32(hdr[16:20]); got != want {
		return 0, 0, fmt.Errorf("storage: %s: page-file header checksum mismatch (got %08x, want %08x)", path, got, want)
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[8:12]))
	count := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if pageSize <= 0 || pageSize > 1<<20 {
		return 0, 0, fmt.Errorf("storage: %s: implausible page size %d", path, pageSize)
	}
	return pageSize, count, nil
}

// readPageFrame preads and validates frame i into a fresh page slice.
func readPageFrame(f File, path string, i, pageSize int) ([]byte, error) {
	buf := make([]byte, pageFrameSize(pageSize))
	off := int64(pageFileHeaderSize) + int64(i)*int64(pageFrameSize(pageSize))
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("storage: %s: reading page %d: %w", path, i, err)
	}
	wantCRC := binary.LittleEndian.Uint32(buf[0:4])
	id := binary.LittleEndian.Uint32(buf[4:8])
	payload := buf[pageFrameHeader:]
	if int(id) != i {
		return nil, fmt.Errorf("storage: %s: page %d: frame carries id %d (misdirected write)", path, i, id)
	}
	if got := frameCRC(id, payload); got != wantCRC {
		return nil, fmt.Errorf("storage: %s: page %d: checksum mismatch (got %08x, want %08x)", path, i, got, wantCRC)
	}
	return payload, nil
}

// OpenDiskFile preads a snapshot back into a Disk, verifying every page
// checksum. The restored disk has the exact page population and bytes of
// the saved one; Buffer, rtree and COW-clone semantics apply to it
// unchanged, which is what keeps the durable tier's I/O accounting
// byte-identical to the simulated one.
func OpenDiskFile(fs FS, path string) (*Disk, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pageSize, count, err := readPageFileHeader(f, path)
	if err != nil {
		return nil, err
	}
	if size, err := f.Size(); err == nil {
		if want := int64(pageFileHeaderSize) + int64(count)*int64(pageFrameSize(pageSize)); size != want {
			return nil, fmt.Errorf("storage: %s: truncated or oversized page file (%d bytes, want %d for %d pages)", path, size, want, count)
		}
	}
	d := NewDisk(pageSize)
	d.pages = make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		payload, err := readPageFrame(f, path, i, pageSize)
		if err != nil {
			return nil, err
		}
		d.pages = append(d.pages, payload)
	}
	return d, nil
}

// PageBytes returns the raw bytes of page id — the durable-equivalence
// tests compare these byte-for-byte between a disk and its restored
// snapshot. The slice is the live page; callers must not modify it.
func (d *Disk) PageBytes(id PageID) []byte { return d.read(id) }
