package service

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"strings"

	"cij/internal/storage"
)

// FsckDataset is one dataset's verification summary.
type FsckDataset struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	File     string `json:"file"`
	Pages    int    `json:"pages"`
	PageSize int    `json:"page_size"`
	Points   int    `json:"points"`
}

// FsckReport is the offline consistency check of a data directory:
// everything it found, with Problems collecting whatever would make boot
// fail (empty means boot would restore the directory). WAL records that
// recovery drops as corrupt are counted, as boot counts them, not listed
// as problems.
type FsckReport struct {
	Fresh         bool          `json:"fresh"`
	CleanShutdown bool          `json:"clean_shutdown"`
	Datasets      []FsckDataset `json:"datasets"`
	WALRecords    int           `json:"wal_records"`
	WALReplayable int           `json:"wal_replayable"`
	WALStale      int           `json:"wal_stale"`
	WALCorrupt    int           `json:"wal_corrupt"`
	WALTornTail   bool          `json:"wal_torn_tail"`
	Orphans       []string      `json:"orphans,omitempty"`
	Problems      []string      `json:"problems,omitempty"`
}

// OK reports whether the directory is consistent.
func (r *FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck verifies a data directory offline, without opening it for
// writing, by running recovery's own pipeline against a scratch
// registry: readManifest, restoreSnapshot (which reads each page file
// once, checksums and all) and replayWAL. Its verdict is therefore
// whether boot would succeed, and its WAL counts are the ones boot would
// log. cijtool's `fsck` subcommand prints the report.
func Fsck(fsys storage.FS, dir string) *FsckReport {
	r := &FsckReport{}
	man, fresh, err := readManifest(fsys, dir)
	if err != nil {
		r.problemf("%v", err)
		return r
	}
	if fresh {
		r.Fresh = true
		r.CleanShutdown = true
		return r
	}
	r.CleanShutdown = man.CleanShutdown

	reg := NewRegistry(0)
	referenced := make(map[string]bool, len(man.Datasets))
	for _, md := range man.Datasets {
		referenced[md.File] = true
		fd := FsckDataset{Name: md.Name, Version: md.Version, File: md.File}
		disk, d, err := restoreSnapshot(fsys, dir, md, reg)
		if disk != nil {
			fd.Pages, fd.PageSize = disk.NumPages(), disk.PageSize()
		}
		if err != nil {
			r.problemf("%s: %v", md.Name, err)
		} else {
			fd.Points = d.Live
		}
		r.Datasets = append(r.Datasets, fd)
	}

	scan, err := storage.ScanWAL(fsys, filepath.Join(dir, walName))
	if err != nil {
		r.problemf("WAL: %v", err)
		return r
	}
	info := &RecoveryInfo{CorruptRecords: scan.CorruptRecords}
	if err := replayWAL(reg, scan.Records, info, slog.New(slog.DiscardHandler)); err != nil {
		r.problemf("%v", err)
	}
	r.WALRecords = len(scan.Records)
	r.WALReplayable = info.Replayed
	r.WALStale = info.Stale
	r.WALCorrupt = info.CorruptRecords
	r.WALTornTail = scan.TornTail

	// Unreferenced page files are expected flotsam of a crash between a
	// snapshot write and its manifest (or a failed cleanup) — reported,
	// not a problem.
	names, err := fsys.List(dir)
	if err == nil {
		for _, n := range names {
			if strings.HasSuffix(n, ".pages") && !referenced[n] {
				r.Orphans = append(r.Orphans, n)
			}
		}
	}
	return r
}
