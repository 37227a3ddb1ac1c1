package storage

import (
	"bytes"
	"testing"
)

// testDisk builds a small disk with deterministic page contents.
func testDisk(t *testing.T, pages int) *Disk {
	t.Helper()
	d := NewDisk(DefaultPageSize)
	for i := 0; i < pages; i++ {
		id := d.Alloc()
		p := make([]byte, DefaultPageSize)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		d.write(id, p)
	}
	return d
}

func TestPageFileRoundtrip(t *testing.T) {
	fs := NewFaultFS()
	d := testDisk(t, 7)
	if err := SaveDiskFile(fs, "data.pages", d); err != nil {
		t.Fatalf("SaveDiskFile: %v", err)
	}
	got, err := OpenDiskFile(fs, "data.pages")
	if err != nil {
		t.Fatalf("OpenDiskFile: %v", err)
	}
	if got.PageSize() != d.PageSize() || got.NumPages() != d.NumPages() {
		t.Fatalf("restored disk shape %d/%d, want %d/%d",
			got.PageSize(), got.NumPages(), d.PageSize(), d.NumPages())
	}
	for i := 0; i < d.NumPages(); i++ {
		if !bytes.Equal(got.PageBytes(PageID(i)), d.PageBytes(PageID(i))) {
			t.Fatalf("page %d not byte-identical after restore", i)
		}
	}
	// Atomic save leaves no temp file behind.
	for _, p := range fs.DumpPaths() {
		if p != "data.pages" {
			t.Fatalf("stray file after save: %s", p)
		}
	}
}

func TestPageFileEmptyDisk(t *testing.T) {
	fs := NewFaultFS()
	d := NewDisk(DefaultPageSize)
	if err := SaveDiskFile(fs, "empty.pages", d); err != nil {
		t.Fatalf("SaveDiskFile: %v", err)
	}
	got, err := OpenDiskFile(fs, "empty.pages")
	if err != nil {
		t.Fatalf("OpenDiskFile: %v", err)
	}
	if got.NumPages() != 0 {
		t.Fatalf("empty disk restored with %d pages", got.NumPages())
	}
}

func TestPageFileDetectsCorruption(t *testing.T) {
	save := func(t *testing.T) FS {
		fs := NewFaultFS()
		if err := SaveDiskFile(fs, "data.pages", testDisk(t, 3)); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	cases := []struct {
		name string
		mut  func(t *testing.T, fs FS)
	}{
		{"header magic", func(t *testing.T, fs FS) { corruptAt(t, fs, "data.pages", 0) }},
		{"header fields", func(t *testing.T, fs FS) { corruptAt(t, fs, "data.pages", 9) }},
		{"page payload", func(t *testing.T, fs FS) {
			corruptAt(t, fs, "data.pages", pageFileHeaderSize+pageFrameHeader+100)
		}},
		{"page id", func(t *testing.T, fs FS) {
			// Swap-in a wrong-but-plausible frame id: a misdirected write.
			corruptAt(t, fs, "data.pages", pageFileHeaderSize+4)
		}},
		{"truncated", func(t *testing.T, fs FS) {
			truncateTo(t, fs, "data.pages", fileSize(t, fs, "data.pages")-10)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := save(t)
			tc.mut(t, fs)
			if _, err := OpenDiskFile(fs, "data.pages"); err == nil {
				t.Fatalf("OpenDiskFile accepted corrupted file (%s)", tc.name)
			}
		})
	}
}

func TestPageFileRoundtripOSFS(t *testing.T) {
	dir := t.TempDir()
	fs := OSFS{}
	d := testDisk(t, 5)
	path := dir + "/data.pages"
	if err := SaveDiskFile(fs, path, d); err != nil {
		t.Fatalf("SaveDiskFile: %v", err)
	}
	got, err := OpenDiskFile(fs, path)
	if err != nil {
		t.Fatalf("OpenDiskFile: %v", err)
	}
	for i := 0; i < d.NumPages(); i++ {
		if !bytes.Equal(got.PageBytes(PageID(i)), d.PageBytes(PageID(i))) {
			t.Fatalf("page %d differs through OSFS", i)
		}
	}
}
