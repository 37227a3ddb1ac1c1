package storage

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func walAppendAll(t testing.TB, fs FS, path string, recs ...[]byte) {
	t.Helper()
	w, _, err := OpenWAL(fs, path)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func walRecords(t *testing.T, fs FS, path string) *WALOpenResult {
	t.Helper()
	w, res, err := OpenWAL(fs, path)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	w.Close()
	return res
}

func TestWALEmpty(t *testing.T) {
	fs := NewFaultFS()
	w, res, err := OpenWAL(fs, "wal")
	if err != nil {
		t.Fatalf("OpenWAL on absent file: %v", err)
	}
	defer w.Close()
	if len(res.Records) != 0 || res.TornTail || res.CorruptRecords != 0 || res.DroppedBytes != 0 {
		t.Fatalf("empty WAL scan = %+v, want all-zero", res)
	}
	if w.Size() != 0 {
		t.Fatalf("empty WAL size = %d", w.Size())
	}
}

func TestWALRoundtrip(t *testing.T) {
	fs := NewFaultFS()
	recs := [][]byte{[]byte("one"), []byte("two-two"), bytes.Repeat([]byte{0xAB}, 5000)}
	walAppendAll(t, fs, "wal", recs...)
	res := walRecords(t, fs, "wal")
	if len(res.Records) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(res.Records), len(recs))
	}
	for i, r := range recs {
		if !bytes.Equal(res.Records[i], r) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if res.TornTail || res.CorruptRecords != 0 {
		t.Fatalf("clean WAL reported damage: %+v", res)
	}
}

// corruptAt flips one byte of the file at off.
func corruptAt(t *testing.T, fs FS, path string, off int64) {
	t.Helper()
	f, err := fs.OpenRW(path)
	if err != nil {
		t.Fatalf("OpenRW: %v", err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
}

func truncateTo(t *testing.T, fs FS, path string, size int64) {
	t.Helper()
	f, err := fs.OpenRW(path)
	if err != nil {
		t.Fatalf("OpenRW: %v", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
}

func fileSize(t *testing.T, fs FS, path string) int64 {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	return size
}

func TestWALTornTail(t *testing.T) {
	fs := NewFaultFS()
	walAppendAll(t, fs, "wal", []byte("alpha"), []byte("beta"), []byte("gamma"))
	size := fileSize(t, fs, "wal")
	// Tear the final frame: drop its last 2 bytes.
	truncateTo(t, fs, "wal", size-2)

	res := walRecords(t, fs, "wal")
	if !res.TornTail {
		t.Fatalf("truncated final frame not reported as torn tail: %+v", res)
	}
	if len(res.Records) != 2 || string(res.Records[1]) != "beta" {
		t.Fatalf("torn-tail recovery kept %d records, want the 2 intact ones", len(res.Records))
	}
	if res.DroppedBytes == 0 {
		t.Fatalf("torn tail reported zero dropped bytes")
	}
	// The open truncated the tail; a new append must produce a clean log.
	walAppendAll(t, fs, "wal", []byte("delta"))
	res = walRecords(t, fs, "wal")
	if len(res.Records) != 3 || string(res.Records[2]) != "delta" || res.TornTail || res.CorruptRecords != 0 {
		t.Fatalf("append after torn-tail repair: %+v", res)
	}
}

func TestWALTornHeader(t *testing.T) {
	fs := NewFaultFS()
	walAppendAll(t, fs, "wal", []byte("alpha"))
	// A crash right after writing 3 bytes of the next frame header.
	f, err := fs.OpenRW("wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{9, 0, 0}, fileSize(t, fs, "wal")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res := walRecords(t, fs, "wal")
	if !res.TornTail || len(res.Records) != 1 {
		t.Fatalf("partial header: %+v, want torn tail after 1 record", res)
	}
}

func TestWALCorruptCRCMidLog(t *testing.T) {
	fs := NewFaultFS()
	walAppendAll(t, fs, "wal", []byte("alpha"), []byte("beta"), []byte("gamma"))
	// Flip a payload byte of the middle record: frame 0 is 8+5 bytes, so
	// record two's payload begins at 13+8.
	corruptAt(t, fs, "wal", 13+8)

	res := walRecords(t, fs, "wal")
	if res.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", res.CorruptRecords)
	}
	if res.TornTail {
		t.Fatalf("mid-log corruption misreported as torn tail")
	}
	// Replay stops at the last valid record BEFORE the corruption; the
	// intact "gamma" after it is unreachable (its predecessor is gone).
	if len(res.Records) != 1 || string(res.Records[0]) != "alpha" {
		t.Fatalf("recovered %d records, want just the prefix before corruption", len(res.Records))
	}
	if size := fileSize(t, fs, "wal"); size != 13 {
		t.Fatalf("post-open WAL size = %d, want truncated to valid prefix 13", size)
	}
}

func TestWALZeroLengthFrame(t *testing.T) {
	fs := NewFaultFS()
	walAppendAll(t, fs, "wal", []byte("alpha"))
	// Append a full frame of zeros (stale zero-fill): length 0 is framing
	// corruption, not a record.
	f, err := fs.OpenRW("wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 16), fileSize(t, fs, "wal")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res := walRecords(t, fs, "wal")
	if res.CorruptRecords != 1 || len(res.Records) != 1 {
		t.Fatalf("zero-fill tail: %+v, want 1 corrupt frame after 1 record", res)
	}
}

func TestWALImplausibleLength(t *testing.T) {
	fs := NewFaultFS()
	walAppendAll(t, fs, "wal", []byte("alpha"))
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(maxWALRecord+1))
	f, err := fs.OpenRW("wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(frame[:], fileSize(t, fs, "wal")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res := walRecords(t, fs, "wal")
	if res.CorruptRecords != 1 || len(res.Records) != 1 {
		t.Fatalf("oversized length: %+v, want 1 corrupt frame after 1 record", res)
	}
}

func TestWALTrim(t *testing.T) {
	fs := NewFaultFS()
	w, _, err := OpenWAL(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Trim(); err != nil {
		t.Fatalf("Trim: %v", err)
	}
	if w.Size() != 0 {
		t.Fatalf("post-trim size = %d", w.Size())
	}
	// Appends after a trim start a fresh log.
	if err := w.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	res := walRecords(t, fs, "wal")
	if len(res.Records) != 1 || string(res.Records[0]) != "fresh" {
		t.Fatalf("post-trim log: %+v", res)
	}
}

func TestScanWALDoesNotTruncate(t *testing.T) {
	fs := NewFaultFS()
	walAppendAll(t, fs, "wal", []byte("alpha"), []byte("beta"))
	size := fileSize(t, fs, "wal")
	truncateTo(t, fs, "wal", size-2)
	torn := fileSize(t, fs, "wal")

	res, err := ScanWAL(fs, "wal")
	if err != nil {
		t.Fatalf("ScanWAL: %v", err)
	}
	if !res.TornTail || len(res.Records) != 1 {
		t.Fatalf("ScanWAL on torn log: %+v", res)
	}
	if got := fileSize(t, fs, "wal"); got != torn {
		t.Fatalf("ScanWAL modified the file: size %d -> %d", torn, got)
	}
	// Missing file scans as empty, no error.
	res, err = ScanWAL(fs, "absent")
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("ScanWAL on missing file: %+v, %v", res, err)
	}
}

func TestWALRejectsBadRecordSize(t *testing.T) {
	fs := NewFaultFS()
	w, _, err := OpenWAL(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(nil); err == nil {
		t.Fatalf("Append(nil) succeeded")
	}
}

// walImage returns the bytes of a fresh log holding recs.
func walImage(t testing.TB, recs ...[]byte) []byte {
	t.Helper()
	fs := NewFaultFS()
	walAppendAll(t, fs, "wal", recs...)
	img, err := ReadFileAll(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// FuzzScanWAL: whatever bytes wal.log holds, the read-only scan (fsck's)
// and the open-time scan (boot's) report the same findings; the records
// they keep re-frame to exactly the prefix the open keeps; a reopened log
// drops nothing; and an append after open reads back as one more record.
func FuzzScanWAL(f *testing.F) {
	// The damaged logs of the table tests above.
	abc := walImage(f, []byte("alpha"), []byte("beta"), []byte("gamma"))
	alpha := walImage(f, []byte("alpha"))
	var oversized [walFrameHeader]byte
	binary.LittleEndian.PutUint32(oversized[0:4], uint32(maxWALRecord+1))
	midCRC := bytes.Clone(abc)
	midCRC[13+8] ^= 0xFF
	f.Add(abc[:len(abc)-2])                                // TestWALTornTail
	f.Add(append(bytes.Clone(alpha), 9, 0, 0))             // TestWALTornHeader
	f.Add(midCRC)                                          // TestWALCorruptCRCMidLog
	f.Add(append(bytes.Clone(alpha), make([]byte, 16)...)) // TestWALZeroLengthFrame
	f.Add(append(bytes.Clone(alpha), oversized[:]...))     // TestWALImplausibleLength
	f.Fuzz(func(t *testing.T, log []byte) {
		fs := NewFaultFS()
		if err := WriteFileAtomic(fs, "wal.log", log); err != nil {
			t.Fatal(err)
		}
		scan, err := ScanWAL(fs, "wal.log")
		if err != nil {
			t.Fatalf("ScanWAL: %v", err)
		}
		w, open, err := OpenWAL(fs, "wal.log")
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		if len(scan.Records) != len(open.Records) || scan.CorruptRecords != open.CorruptRecords ||
			scan.TornTail != open.TornTail || scan.DroppedBytes != open.DroppedBytes {
			t.Fatalf("ScanWAL found %d records, %d corrupt, torn %v, %d dropped; OpenWAL %d, %d, %v, %d",
				len(scan.Records), scan.CorruptRecords, scan.TornTail, scan.DroppedBytes,
				len(open.Records), open.CorruptRecords, open.TornTail, open.DroppedBytes)
		}
		for i := range open.Records {
			if !bytes.Equal(scan.Records[i], open.Records[i]) {
				t.Fatalf("record %d differs between ScanWAL and OpenWAL", i)
			}
		}
		kept := int64(len(log)) - open.DroppedBytes
		if w.Size() != kept {
			t.Fatalf("open log size %d, want the %d-byte kept prefix", w.Size(), kept)
		}
		if len(open.Records) > 0 && !bytes.Equal(walImage(t, open.Records...), log[:kept]) {
			t.Fatal("re-framing the kept records does not reproduce the kept prefix")
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		if again := walRecords(t, fs, "wal.log"); again.DroppedBytes != 0 || len(again.Records) != len(open.Records) {
			t.Fatalf("reopen after repair dropped %d bytes, kept %d of %d records", again.DroppedBytes, len(again.Records), len(open.Records))
		}
		walAppendAll(t, fs, "wal.log", []byte("next"))
		after := walRecords(t, fs, "wal.log")
		if after.DroppedBytes != 0 || len(after.Records) != len(open.Records)+1 || string(after.Records[len(open.Records)]) != "next" {
			t.Fatalf("append after open: %d records (want %d ending in \"next\"), %d bytes dropped",
				len(after.Records), len(open.Records)+1, after.DroppedBytes)
		}
	})
}
