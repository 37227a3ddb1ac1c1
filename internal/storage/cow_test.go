package storage

import (
	"bytes"
	"testing"
)

// fillPage builds page-sized content whose every byte is b.
func fillPage(size int, b byte) []byte {
	data := make([]byte, size)
	for i := range data {
		data[i] = b
	}
	return data
}

func TestDiskCloneIsolation(t *testing.T) {
	d := NewDisk(32)
	for i := 0; i < 4; i++ {
		id := d.Alloc()
		d.write(id, fillPage(32, byte('a'+i)))
	}

	c := d.Clone()
	if c.NumPages() != d.NumPages() {
		t.Fatalf("clone has %d pages, want %d", c.NumPages(), d.NumPages())
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(c.read(PageID(i)), d.read(PageID(i))) {
			t.Fatalf("page %d differs after clone", i)
		}
	}

	// Retain the original's raw slices: a COW write on the clone must not
	// touch them.
	before := make([][]byte, 4)
	for i := range before {
		before[i] = d.read(PageID(i)) // shared slice, observed live
	}

	c.write(0, fillPage(32, 'X'))
	nid := c.Alloc()
	c.write(nid, fillPage(32, 'Y'))

	for i := 0; i < 4; i++ {
		want := fillPage(32, byte('a'+i))
		if !bytes.Equal(before[i], want) {
			t.Fatalf("original page %d corrupted by clone write: %q", i, before[i][:4])
		}
		if !bytes.Equal(d.read(PageID(i)), want) {
			t.Fatalf("original disk read of page %d changed", i)
		}
	}
	if got := c.read(0); got[0] != 'X' {
		t.Fatalf("clone page 0 = %q, want X", got[:1])
	}
	if d.NumPages() != 4 {
		t.Fatalf("clone Alloc leaked into original: %d pages", d.NumPages())
	}

	// Writes on the source after cloning must not leak into the clone
	// either (both sides are COW-protected).
	d.write(1, fillPage(32, 'Z'))
	if got := c.read(1); got[0] != 'b' {
		t.Fatalf("source write leaked into clone: %q", got[:1])
	}
	if got := d.read(1); got[0] != 'Z' {
		t.Fatalf("source write lost: %q", got[:1])
	}
}

func TestDiskCloneChain(t *testing.T) {
	d := NewDisk(16)
	id := d.Alloc()
	d.write(id, fillPage(16, '1'))

	c1 := d.Clone()
	c1.write(id, fillPage(16, '2'))
	// Pages allocated after a clone are private until the next Clone marks
	// them shared.
	extra := c1.Alloc()
	c1.write(extra, fillPage(16, 'e'))

	c2 := c1.Clone()
	c2.write(id, fillPage(16, '3'))
	c2.write(extra, fillPage(16, 'f'))

	if got := d.read(id)[0]; got != '1' {
		t.Fatalf("root disk sees %q", got)
	}
	if got := c1.read(id)[0]; got != '2' {
		t.Fatalf("first clone sees %q", got)
	}
	if got := c1.read(extra)[0]; got != 'e' {
		t.Fatalf("first clone extra page sees %q", got)
	}
	if got := c2.read(id)[0]; got != '3' {
		t.Fatalf("second clone sees %q", got)
	}
	if got := c2.read(extra)[0]; got != 'f' {
		t.Fatalf("second clone extra page sees %q", got)
	}
}

// TestDiskCloneThroughBuffer exercises the COW contract through the Buffer
// layer the way the service uses it: an old reader's buffer keeps serving
// the old bytes while a writer mutates the clone through its own buffer.
func TestDiskCloneThroughBuffer(t *testing.T) {
	d := NewDisk(32)
	base := NewBuffer(d, 8)
	id := base.Alloc()
	base.Write(id, fillPage(32, 'o'))

	reader := base.Fork(8)
	if got := reader.Read(id)[0]; got != 'o' {
		t.Fatalf("reader sees %q before clone", got)
	}

	writer := NewBuffer(d.Clone(), 8)
	writer.Write(id, fillPage(32, 'n'))

	if got := reader.Read(id)[0]; got != 'o' {
		t.Fatalf("reader sees %q after clone write (cached)", got)
	}
	reader.DropAll()
	if got := reader.Read(id)[0]; got != 'o' {
		t.Fatalf("reader sees %q after clone write (cold)", got)
	}
	if got := writer.Read(id)[0]; got != 'n' {
		t.Fatalf("writer sees %q", got)
	}
}
