package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"time"

	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// The durable store. One directory holds the whole registry:
//
//	MANIFEST.json        the root: per-dataset version + snapshot file +
//	                     tree header, plus the clean-shutdown marker.
//	                     Replaced atomically (write tmp, fsync, rename,
//	                     fsync dir); after any crash it is either the old
//	                     or the new manifest, complete.
//	<name>.v<N>.pages    version N of one dataset's disk, in the
//	                     checksummed page-file format (storage.SaveDiskFile)
//	                     — the same 1 KB pages the in-memory simulation
//	                     serves, byte for byte.
//	wal.log              the write-ahead log: one CRC-framed record per
//	                     atomic mutation batch, fsync'd BEFORE the batch
//	                     installs, so an acknowledged mutation is always
//	                     recoverable.
//
// Recovery replays manifest -> snapshots -> WAL tail: each snapshot
// restores its dataset at the manifest's version, then WAL records apply
// in order wherever record.Result == version+1 and are skipped as stale
// wherever record.Result <= version (the checkpoint-then-crash-before-trim
// case — replay is idempotent by version arithmetic, no record ever
// applies twice). Checkpoints fold the log into fresh snapshots and trim
// it; the manifest moves first, so a crash between the two only creates
// stale records.
const (
	manifestName   = "MANIFEST.json"
	walName        = "wal.log"
	manifestFormat = 1
	// DefaultCheckpointWALBytes is the WAL size that triggers a
	// checkpoint after a mutation installs.
	DefaultCheckpointWALBytes = 4 << 20
)

// manifestDataset is one dataset's durable root: which snapshot file
// holds its pages and the tree header to reattach with.
type manifestDataset struct {
	Name    string     `json:"name"`
	Version int        `json:"version"`
	File    string     `json:"file"`
	Meta    rtree.Meta `json:"meta"`
}

type manifest struct {
	Format        int               `json:"format"`
	CleanShutdown bool              `json:"clean_shutdown"`
	Datasets      []manifestDataset `json:"datasets"`
}

func (m *manifest) find(name string) *manifestDataset {
	for i := range m.Datasets {
		if m.Datasets[i].Name == name {
			return &m.Datasets[i]
		}
	}
	return nil
}

func (m *manifest) set(md manifestDataset) {
	if cur := m.find(md.Name); cur != nil {
		*cur = md
		return
	}
	m.Datasets = append(m.Datasets, md)
}

// walRecord is one logged mutation batch. Base and Result pin it to a
// version transition, which is what makes replay idempotent: a record
// applies only onto exactly Base, and is stale everywhere at or past
// Result.
type walRecord struct {
	Name   string       `json:"name"`
	Base   int          `json:"base"`
	Result int          `json:"result"`
	Spec   MutationSpec `json:"spec"`
}

// RecoveryInfo is what a cold start found — logged at boot and exported
// through the cij_recovery_* metric families.
type RecoveryInfo struct {
	// Fresh means no manifest existed: a brand-new data directory.
	Fresh bool
	// CleanShutdown is the marker the previous process left; false means
	// it crashed (or was killed) and the WAL tail did the recovering.
	CleanShutdown bool
	// Datasets restored from snapshots.
	Datasets int
	// Replayed counts WAL records applied on top of the snapshots.
	Replayed int
	// Stale counts WAL records skipped because their version was already
	// in a snapshot (checkpoint ran, crash hit before the trim).
	Stale int
	// CorruptRecords and TornTail report what the WAL scan dropped.
	CorruptRecords int
	TornTail       bool
}

// Store is a Service's durable tier: the manifest, the snapshot page
// files and the WAL under one directory, reached through a storage.FS so
// the crash tests can run it on storage.FaultFS. All mutating methods are
// called with the service's mutMu held — the store itself is
// single-writer.
type Store struct {
	fs  storage.FS
	dir string
	wal *storage.WAL
	man manifest
	// checkpointBytes is the WAL size that triggers a checkpoint after an
	// install folds in.
	checkpointBytes int64
	metrics         *serviceMetrics // nil in store-only tests
	logger          *slog.Logger
}

func (st *Store) path(name string) string { return filepath.Join(st.dir, name) }

func snapshotFile(name string, version int) string {
	return fmt.Sprintf("%s.v%d.pages", name, version)
}

// openStore opens (or initializes) the durable directory, restores every
// manifest dataset into reg, replays the WAL tail, and marks the manifest
// dirty so the next boot can tell whether this process shut down cleanly.
func openStore(fsys storage.FS, dir string, reg *Registry, metrics *serviceMetrics, logger *slog.Logger) (*Store, *RecoveryInfo, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("service: creating data dir: %w", err)
	}
	st := &Store{
		fs:              fsys,
		dir:             dir,
		checkpointBytes: DefaultCheckpointWALBytes,
		metrics:         metrics,
		logger:          logger,
	}
	man, fresh, err := readManifest(fsys, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	st.man = man
	info := &RecoveryInfo{Fresh: fresh, CleanShutdown: man.CleanShutdown}

	for _, md := range st.man.Datasets {
		if _, _, err := restoreSnapshot(fsys, dir, md, reg); err != nil {
			return nil, nil, fmt.Errorf("service: restoring %q v%d: %w", md.Name, md.Version, err)
		}
		info.Datasets++
	}

	wal, scan, err := storage.OpenWAL(fsys, st.path(walName))
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening WAL: %w", err)
	}
	st.wal = wal
	info.CorruptRecords = scan.CorruptRecords
	info.TornTail = scan.TornTail
	if scan.DroppedBytes > 0 {
		logger.Warn("WAL tail dropped",
			"bytes", scan.DroppedBytes,
			"torn_tail", scan.TornTail,
			"corrupt_records", scan.CorruptRecords)
	}

	if err := replayWAL(reg, scan.Records, info, logger); err != nil {
		wal.Close()
		return nil, nil, fmt.Errorf("service: %w", err)
	}

	// From here the process is live: mark the manifest dirty so the next
	// boot knows whether Close ran.
	st.man.CleanShutdown = false
	st.man.Format = manifestFormat
	if err := st.writeManifest(); err != nil {
		wal.Close()
		return nil, nil, fmt.Errorf("service: marking manifest dirty: %w", err)
	}
	return st, info, nil
}

// readManifest reads and decodes dir's manifest. fresh reports that none
// exists — a brand-new data directory — and then man is the empty
// manifest a new store starts from.
func readManifest(fsys storage.FS, dir string) (man manifest, fresh bool, err error) {
	data, err := storage.ReadFileAll(fsys, filepath.Join(dir, manifestName))
	if storage.IsNotExist(err) {
		return manifest{Format: manifestFormat, CleanShutdown: true}, true, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("reading manifest: %w", err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return manifest{}, false, fmt.Errorf("decoding manifest: %w", err)
	}
	if man.Format != manifestFormat {
		return manifest{}, false, fmt.Errorf("manifest format %d, this build reads %d", man.Format, manifestFormat)
	}
	return man, false, nil
}

// replayWAL applies the WAL tail to the restored snapshots in reg,
// counting into info: a record applies where its Base is the dataset's
// version and is skipped as stale where its Result is already reached
// (or its dataset is unknown). An undecodable record or a version gap
// stops replay and counts as corrupt, like a mid-log checksum failure.
// A record that fails to apply is an error: recovery cannot reach the
// state it acknowledged. Recovery (openStore) and Fsck both replay
// through here.
func replayWAL(reg *Registry, records [][]byte, info *RecoveryInfo, logger *slog.Logger) error {
	for i, raw := range records {
		var rec walRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			// The frame CRC held but the payload does not decode: framing
			// from a different build, or corruption the CRC cannot see.
			info.CorruptRecords++
			logger.Warn("stopping WAL replay at undecodable record", "index", i, "err", err)
			return nil
		}
		cur, ok := reg.Get(rec.Name)
		if !ok {
			// A record for a dataset the manifest does not know: the
			// ingest protocol writes the manifest before any WAL record
			// can name the dataset, so this is stale state from before a
			// (crashed) re-initialization. Skip.
			info.Stale++
			continue
		}
		if rec.Result <= cur.Version {
			info.Stale++
			continue
		}
		if rec.Base != cur.Version {
			info.CorruptRecords++
			logger.Warn("stopping WAL replay at version gap",
				"index", i, "dataset", rec.Name, "record_base", rec.Base, "have", cur.Version)
			return nil
		}
		if _, _, _, err := reg.Mutate(rec.Name, rec.Spec); err != nil {
			// The batch validated before it was logged; failing now means
			// the recovered base state does not match what the record was
			// built against — corruption, not a tolerable skip.
			return fmt.Errorf("replaying WAL record %d for %q: %w", i, rec.Name, err)
		}
		info.Replayed++
	}
	return nil
}

func (st *Store) writeManifest() error {
	data, err := json.MarshalIndent(&st.man, "", "  ")
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(st.fs, st.path(manifestName), data)
}

// logMutation appends the batch as one WAL record and fsyncs it — the
// commit point. Called between PrepareMutation and Install, under mutMu.
func (st *Store) logMutation(p *PreparedMutation) error {
	rec := walRecord{Name: p.name, Base: p.Base(), Result: p.Result(), Spec: p.Spec()}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := st.wal.Append(data); err != nil {
		return err
	}
	start := time.Now()
	if err := st.wal.Sync(); err != nil {
		return err
	}
	if st.metrics != nil {
		st.metrics.walAppends.Inc()
		st.metrics.walFsync.Observe(time.Since(start).Seconds())
	}
	return nil
}

// logIngest makes a prepared ingest durable before it installs: the new
// version's snapshot page file, then the manifest pointing at it. A crash
// in between leaves an orphan snapshot file the next successful ingest
// cleanup collects; a crash after the manifest write recovers the ingest
// (unacknowledged but complete — never partial).
func (st *Store) logIngest(d *Dataset, version int) error {
	file := snapshotFile(d.Name, version)
	if err := storage.SaveDiskFile(st.fs, st.path(file), d.Tree.Buffer().Disk()); err != nil {
		return err
	}
	prev := st.man.find(d.Name)
	var prevFile string
	if prev != nil {
		prevFile = prev.File
	}
	st.man.set(manifestDataset{Name: d.Name, Version: version, File: file, Meta: d.Tree.Meta()})
	if err := st.writeManifest(); err != nil {
		return err
	}
	st.removeSuperseded(prevFile)
	return nil
}

// maybeCheckpoint folds the WAL into snapshots once it has outgrown the
// threshold. Failures are logged, not returned: the WAL still holds every
// committed batch, so a failed checkpoint costs replay time, not data.
func (st *Store) maybeCheckpoint(reg *Registry) {
	if st.wal.Size() < st.checkpointBytes {
		return
	}
	if err := st.checkpoint(reg); err != nil {
		st.logger.Warn("checkpoint failed; WAL keeps the batches", "err", err)
	}
}

// checkpoint snapshots every dataset whose serving version is newer than
// its manifest entry, moves the manifest, and only then trims the WAL.
// Called under mutMu.
func (st *Store) checkpoint(reg *Registry) error {
	var superseded []string
	changed := false
	for _, d := range reg.List() {
		md := st.man.find(d.Name)
		if md != nil && md.Version == d.Version {
			continue
		}
		file := snapshotFile(d.Name, d.Version)
		if err := storage.SaveDiskFile(st.fs, st.path(file), d.Tree.Buffer().Disk()); err != nil {
			return fmt.Errorf("snapshotting %q v%d: %w", d.Name, d.Version, err)
		}
		if md != nil {
			superseded = append(superseded, md.File)
		}
		st.man.set(manifestDataset{Name: d.Name, Version: d.Version, File: file, Meta: d.Tree.Meta()})
		changed = true
	}
	if changed {
		if err := st.writeManifest(); err != nil {
			return fmt.Errorf("writing manifest: %w", err)
		}
	}
	// The manifest is durable; the log's records are all stale now.
	if err := st.wal.Trim(); err != nil {
		return fmt.Errorf("trimming WAL: %w", err)
	}
	if st.metrics != nil {
		st.metrics.checkpoints.Inc()
	}
	st.removeSuperseded(superseded...)
	return nil
}

// removeSuperseded deletes snapshot files no manifest entry references
// anymore. Best-effort: a leftover file wastes disk, nothing else.
func (st *Store) removeSuperseded(files ...string) {
	removed := false
	for _, f := range files {
		if f == "" {
			continue
		}
		if cur := st.man.find(datasetOfSnapshot(f)); cur != nil && cur.File == f {
			continue // still referenced (version did not move)
		}
		if err := st.fs.Remove(st.path(f)); err != nil && !storage.IsNotExist(err) {
			st.logger.Warn("removing superseded snapshot", "file", f, "err", err)
			continue
		}
		removed = true
	}
	if removed {
		if err := st.fs.SyncDir(st.dir); err != nil {
			st.logger.Warn("syncing data dir after snapshot cleanup", "err", err)
		}
	}
}

// datasetOfSnapshot recovers the dataset name from a snapshot file name
// (<name>.v<N>.pages; dataset names cannot contain "/", and the ".v"
// split is anchored at the END so dotted dataset names survive).
func datasetOfSnapshot(file string) string {
	base := file
	if i := len(base) - len(".pages"); i > 0 && base[i:] == ".pages" {
		base = base[:i]
	}
	for i := len(base) - 1; i > 0; i-- {
		if base[i] == 'v' && base[i-1] == '.' {
			return base[:i-1]
		}
	}
	return base
}

// close checkpoints, marks the shutdown clean and releases the WAL.
// Called under mutMu after the HTTP server has drained.
func (st *Store) close(reg *Registry) error {
	if err := st.checkpoint(reg); err != nil {
		return err
	}
	st.man.CleanShutdown = true
	if err := st.writeManifest(); err != nil {
		return err
	}
	return st.wal.Close()
}

// restoreSnapshot reads md's page file, checking every page checksum, and
// installs the dataset it holds into reg. Boot and fsck both restore
// through here, so each reads a snapshot once. The disk is returned
// whenever the file itself was sound, even if the tree on it was not.
func restoreSnapshot(fsys storage.FS, dir string, md manifestDataset, reg *Registry) (*storage.Disk, *Dataset, error) {
	disk, err := storage.OpenDiskFile(fsys, filepath.Join(dir, md.File))
	if err != nil {
		return nil, nil, err
	}
	d, err := restoreDataset(disk, md, reg.bufferPct)
	if err == nil {
		err = reg.InstallRestored(d)
	}
	return disk, d, err
}

// restoreDataset rebuilds one serving Dataset from its snapshot's disk:
// reattach the tree at the manifest's header and reconstruct the point
// table from the leaves. Point IDs are leaf entry IDs, so live points
// land back in their exact slots; slots the leaves do not name were
// tombstoned before the snapshot and stay dead (their coordinates are
// gone, but nothing reads a dead slot's position).
//
// Checksums prove a page holds the bytes that were written, not that the
// pages form a dataset, so the tree is untrusted input: it must be a
// point tree that passes its invariants, and name each point once, inside
// the domain, within the ID space any dataset may have. A page that does
// not decode is an error here, not a panic.
func restoreDataset(disk *storage.Disk, md manifestDataset, bufferPct float64) (d *Dataset, err error) {
	if md.Meta.Kind != rtree.KindPoints {
		return nil, fmt.Errorf("snapshot tree has kind %d, not a point tree", md.Meta.Kind)
	}
	defer func() {
		if p := recover(); p != nil {
			d, err = nil, fmt.Errorf("snapshot tree does not decode: %v", p)
		}
	}()
	// Restore-time traversals run through the build buffer, exactly like
	// an ingest-time build; newDataset applies the serving capacity (and
	// clears the stats) once the dataset is assembled.
	tree, err := rtree.Open(storage.NewBuffer(disk, buildBufferPages), md.Meta)
	if err != nil {
		return nil, err
	}
	if err := tree.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("restored tree fails invariants: %w", err)
	}

	// CheckInvariants matched the leaf entries to md.Meta.Size.
	entries := tree.AllEntries()
	if len(entries) == 0 {
		return nil, fmt.Errorf("restored tree holds no points")
	}
	maxID := int64(-1)
	for _, e := range entries {
		if e.ID < 0 || e.ID >= maxDatasetPoints {
			return nil, fmt.Errorf("restored tree carries point id %d outside [0, %d)", e.ID, maxDatasetPoints)
		}
		if !dataset.Domain.Contains(e.Pt) {
			return nil, fmt.Errorf("restored tree places point %d at (%v, %v), outside the domain", e.ID, e.Pt.X, e.Pt.Y)
		}
		maxID = max(maxID, e.ID)
	}
	pts := make([]geom.Point, maxID+1)
	alive := make([]bool, maxID+1)
	for _, e := range entries {
		if alive[e.ID] {
			return nil, fmt.Errorf("restored tree names point %d twice", e.ID)
		}
		alive[e.ID] = true
		pts[e.ID] = e.Pt
	}
	if len(entries) == len(pts) {
		alive = nil // no tombstones
	}

	return newDataset(&Dataset{
		Name:    md.Name,
		Version: md.Version,
		Points:  pts,
		Alive:   alive,
		Live:    len(entries),
		Tree:    tree,
	}, bufferPct), nil
}
