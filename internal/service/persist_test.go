package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// durableConfig is the test configuration for a durable service over an
// injected filesystem.
func durableConfig(fsys storage.FS) Config {
	return Config{DataDir: "data", FS: fsys}
}

func mustOpen(t *testing.T, fsys storage.FS) *Service {
	t.Helper()
	s, err := Open(durableConfig(fsys))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustIngest(t *testing.T, s *Service, name string, pts []geom.Point) *Dataset {
	t.Helper()
	d, err := s.Ingest(name, pts)
	if err != nil {
		t.Fatalf("Ingest(%s): %v", name, err)
	}
	return d
}

func mustMutate(t *testing.T, s *Service, name string, req MutationRequest) *MutationResponse {
	t.Helper()
	resp, err := s.MutatePoints(name, req)
	if err != nil {
		t.Fatalf("MutatePoints(%s): %v", name, err)
	}
	return resp
}

// sortedPairs is a canonical projection of a join result for equality.
func sortedPairs(pairs []core.Pair) []core.Pair {
	out := append([]core.Pair(nil), pairs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].Q < out[j].Q
	})
	return out
}

// joinNM runs one uncached nm/paged join and returns its pairs and pages.
func joinNM(t *testing.T, s *Service, left, right string) ([]core.Pair, int64) {
	t.Helper()
	out, err := s.Join(context.Background(), Query{Left: left, Right: right, Algo: "nm", Storage: "paged"}, execHooks{})
	if err != nil {
		t.Fatalf("Join(%s,%s): %v", left, right, err)
	}
	if out.Cached {
		t.Fatalf("join unexpectedly served from cache")
	}
	return sortedPairs(out.Result.Pairs), out.Result.IO.PageAccesses()
}

// assertDatasetsEqual compares the observable surface of two datasets:
// identity, point table, tombstones, and the raw page bytes of their
// disks (the durable tier's byte-for-byte contract).
func assertDatasetsEqual(t *testing.T, want, got *Dataset) {
	t.Helper()
	if got.Name != want.Name || got.Version != want.Version {
		t.Fatalf("dataset %s: version %d, want %d", want.Name, got.Version, want.Version)
	}
	if got.Live != want.Live || len(got.Points) != len(want.Points) {
		t.Fatalf("dataset %s: %d/%d points, want %d/%d", want.Name, got.Live, len(got.Points), want.Live, len(want.Points))
	}
	for i := range want.Points {
		wa := want.Alive == nil || want.Alive[i]
		ga := got.Alive == nil || got.Alive[i]
		if wa != ga {
			t.Fatalf("dataset %s: point %d alive=%v, want %v", want.Name, i, ga, wa)
		}
		if wa && !got.Points[i].Eq(want.Points[i]) {
			t.Fatalf("dataset %s: point %d = %v, want %v", want.Name, i, got.Points[i], want.Points[i])
		}
	}
	wd, gd := want.Tree.Buffer().Disk(), got.Tree.Buffer().Disk()
	if gd.NumPages() != wd.NumPages() || gd.PageSize() != wd.PageSize() {
		t.Fatalf("dataset %s: disk %d pages of %d, want %d of %d",
			want.Name, gd.NumPages(), gd.PageSize(), wd.NumPages(), wd.PageSize())
	}
	for i := 0; i < wd.NumPages(); i++ {
		if !bytes.Equal(gd.PageBytes(storage.PageID(i)), wd.PageBytes(storage.PageID(i))) {
			t.Fatalf("dataset %s: page %d not byte-identical after restore", want.Name, i)
		}
	}
}

// TestDurableLifecycle: ingest + mutations + clean shutdown, then a cold
// start — the reopened service serves the identical registry, and its
// joins are byte-equivalent (same pair sets, same pages/op) to the
// pre-shutdown ones.
func TestDurableLifecycle(t *testing.T) {
	fs := storage.NewFaultFS()
	s := mustOpen(t, fs)
	if rec := s.Recovery(); !rec.Fresh || !rec.CleanShutdown {
		t.Fatalf("fresh open recovery = %+v", rec)
	}
	mustIngest(t, s, "p", dataset.Uniform(400, 1))
	mustIngest(t, s, "q", dataset.Uniform(300, 2))
	mustMutate(t, s, "p", MutationRequest{Insert: []PointJSON{{X: 11, Y: 22}, {X: 33, Y: 44}}})
	mustMutate(t, s, "p", MutationRequest{Delete: []int64{0, 7}})
	mustMutate(t, s, "q", MutationRequest{Update: []MovePointJSON{{ID: 3, X: 500, Y: 500}}})

	wantPairs, wantPages := joinNM(t, s, "p", "q")
	wantP, _ := s.reg.Get("p")
	wantQ, _ := s.reg.Get("q")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, fs)
	rec := s2.Recovery()
	if rec.Fresh || !rec.CleanShutdown {
		t.Fatalf("reopen recovery = %+v, want clean", rec)
	}
	if rec.Replayed != 0 {
		t.Fatalf("clean reopen replayed %d WAL records, want 0 (Close checkpoints)", rec.Replayed)
	}
	gotP, ok := s2.reg.Get("p")
	if !ok {
		t.Fatal("dataset p lost across restart")
	}
	gotQ, ok := s2.reg.Get("q")
	if !ok {
		t.Fatal("dataset q lost across restart")
	}
	assertDatasetsEqual(t, wantP, gotP)
	assertDatasetsEqual(t, wantQ, gotQ)

	gotPairs, gotPages := joinNM(t, s2, "p", "q")
	if gotPages != wantPages {
		t.Fatalf("restored join performed %d page accesses, original %d", gotPages, wantPages)
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("restored join found %d pairs, original %d", len(gotPairs), len(wantPairs))
	}
	for i := range wantPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, gotPairs[i], wantPairs[i])
		}
	}
}

// TestDurableCrashRecoversAcknowledged: kill the filesystem without Close
// (the kill -9 shape) — every acknowledged mutation must be recovered
// from the WAL, the recovery must report the unclean shutdown, and the
// recovered join must equal the brute-force oracle.
func TestDurableCrashRecoversAcknowledged(t *testing.T) {
	fs := storage.NewFaultFS()
	s := mustOpen(t, fs)
	mustIngest(t, s, "p", dataset.Uniform(300, 3))
	mustIngest(t, s, "q", dataset.Uniform(200, 4))
	for i := 0; i < 5; i++ {
		mustMutate(t, s, "p", MutationRequest{
			Insert: []PointJSON{{X: float64(100 + i), Y: float64(200 + i)}},
			Delete: []int64{int64(2 * i)},
		})
	}
	wantP, _ := s.reg.Get("p")
	wantVersion := wantP.Version

	fs.Crash(storage.CrashLoseUnsynced)
	fs.Restart()

	s2 := mustOpen(t, fs)
	rec := s2.Recovery()
	if rec.CleanShutdown {
		t.Fatal("crash recovery reported a clean shutdown")
	}
	if rec.Replayed != 5 {
		t.Fatalf("replayed %d WAL records, want 5", rec.Replayed)
	}
	gotP, ok := s2.reg.Get("p")
	if !ok {
		t.Fatal("dataset p lost in crash")
	}
	if gotP.Version != wantVersion {
		t.Fatalf("recovered p at version %d, acknowledged %d", gotP.Version, wantVersion)
	}
	for i := range wantP.Points {
		wa := wantP.Alive == nil || wantP.Alive[i]
		ga := gotP.Alive == nil || gotP.Alive[i]
		if wa != ga || (wa && !gotP.Points[i].Eq(wantP.Points[i])) {
			t.Fatalf("recovered point %d diverges from acknowledged state", i)
		}
	}

	// The recovered dataset must join exactly like the oracle says.
	pairs, _ := joinNM(t, s2, "p", "q")
	pp, pids := gotP.JoinPoints() // p saw deletes, so pids maps positions to IDs
	qq, _ := s2.mustGet(t, "q").JoinPoints()
	oracle := core.BruteCIJ(pp, qq, dataset.Domain)
	for i := range oracle {
		oracle[i].P = pids[oracle[i].P]
	}
	oracle = sortedPairs(oracle)
	if len(pairs) != len(oracle) {
		t.Fatalf("recovered join found %d pairs, oracle %d", len(pairs), len(oracle))
	}
	for i := range pairs {
		if pairs[i] != oracle[i] {
			t.Fatalf("recovered pair %d = %+v, oracle %+v", i, pairs[i], oracle[i])
		}
	}
}

// mustGet is a test helper fetching a dataset that must exist.
func (s *Service) mustGet(t *testing.T, name string) *Dataset {
	t.Helper()
	d, ok := s.reg.Get(name)
	if !ok {
		t.Fatalf("dataset %s missing", name)
	}
	return d
}

// TestCheckpointThenCrashBeforeTrim: replay is idempotent. A checkpoint
// whose WAL trim never lands leaves every record stale; recovery must
// skip all of them and change nothing.
func TestCheckpointThenCrashBeforeTrim(t *testing.T) {
	fs := storage.NewFaultFS()
	s := mustOpen(t, fs)
	mustIngest(t, s, "p", dataset.Uniform(200, 5))
	mustMutate(t, s, "p", MutationRequest{Insert: []PointJSON{{X: 1, Y: 2}}})
	mustMutate(t, s, "p", MutationRequest{Delete: []int64{5}})

	// Capture the WAL as it stands with both records committed.
	walBytes, err := storage.ReadFileAll(fs, "data/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(walBytes) == 0 {
		t.Fatal("WAL empty before checkpoint; the mutation path is not logging")
	}
	wantP, _ := s.reg.Get("p")
	if err := s.Close(); err != nil { // checkpoints, trims, marks clean
		t.Fatal(err)
	}

	// Simulate the crash landing between the checkpoint's manifest write
	// and its WAL trim: put the pre-checkpoint records back.
	f, err := fs.Create("data/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(walBytes, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, fs)
	rec := s2.Recovery()
	if rec.Replayed != 0 {
		t.Fatalf("replayed %d stale records; checkpointed batches must not re-apply", rec.Replayed)
	}
	if rec.Stale != 2 {
		t.Fatalf("stale = %d, want 2", rec.Stale)
	}
	gotP := s2.mustGet(t, "p")
	assertDatasetsEqual(t, wantP, gotP)
}

// TestDurableMatchesSimulated: the durable tier must not perturb the
// simulation it persists — a service with a store and one without,
// driven identically, produce byte-identical disks and identical join
// I/O.
func TestDurableMatchesSimulated(t *testing.T) {
	drive := func(s *Service) {
		mustIngest(t, s, "p", dataset.Uniform(350, 6))
		mustIngest(t, s, "q", dataset.Uniform(250, 7))
		mustMutate(t, s, "p", MutationRequest{Insert: []PointJSON{{X: 9, Y: 9}}})
		mustMutate(t, s, "q", MutationRequest{Delete: []int64{1, 2, 3}})
	}
	plain := New(Config{})
	drive(plain)
	fs := storage.NewFaultFS()
	durable := mustOpen(t, fs)
	drive(durable)

	for _, name := range []string{"p", "q"} {
		assertDatasetsEqual(t, plain.mustGet(t, name), durable.mustGet(t, name))
	}
	pPairs, pPages := joinNM(t, plain, "p", "q")
	dPairs, dPages := joinNM(t, durable, "p", "q")
	if pPages != dPages {
		t.Fatalf("durable join: %d page accesses, simulated %d", dPages, pPages)
	}
	if fmt.Sprint(pPairs) != fmt.Sprint(dPairs) {
		t.Fatalf("durable and simulated joins disagree")
	}

	// And the restart of the durable one still matches the simulation.
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, fs)
	for _, name := range []string{"p", "q"} {
		assertDatasetsEqual(t, plain.mustGet(t, name), reopened.mustGet(t, name))
	}
	rPairs, rPages := joinNM(t, reopened, "p", "q")
	if rPages != pPages || fmt.Sprint(rPairs) != fmt.Sprint(pPairs) {
		t.Fatalf("reopened join diverged: %d pages vs %d", rPages, pPages)
	}
}

// TestCheckpointTriggersAndTrims: once the WAL outgrows the configured
// threshold, a mutation triggers the fold and the log shrinks to zero,
// with the state surviving a crash on snapshots alone.
func TestCheckpointTriggersAndTrims(t *testing.T) {
	fs := storage.NewFaultFS()
	cfg := durableConfig(fs)
	cfg.CheckpointWALBytes = 1 // every mutation checkpoints
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s, "p", dataset.Uniform(150, 8))
	mustMutate(t, s, "p", MutationRequest{Insert: []PointJSON{{X: 1, Y: 1}}})
	st := s.store.Load()
	if st.wal.Size() != 0 {
		t.Fatalf("WAL holds %d bytes after checkpoint, want 0", st.wal.Size())
	}
	wantP, _ := s.reg.Get("p")

	// No Close: the snapshots alone must carry the state.
	fs.Crash(storage.CrashLoseUnsynced)
	fs.Restart()
	s2 := mustOpen(t, fs)
	rec := s2.Recovery()
	if rec.Replayed != 0 {
		t.Fatalf("replayed %d records, want 0 (checkpoint already folded them)", rec.Replayed)
	}
	assertDatasetsEqual(t, wantP, s2.mustGet(t, "p"))
}

// TestFsck: a healthy directory reports no problems; corruption in a
// snapshot page is caught and named; and a WAL record whose batch cannot
// apply fails both boot and fsck, because fsck replays the WAL the way
// boot does.
func TestFsck(t *testing.T) {
	fs := storage.NewFaultFS()
	s := mustOpen(t, fs)
	mustIngest(t, s, "p", dataset.Uniform(120, 9))
	mustMutate(t, s, "p", MutationRequest{Insert: []PointJSON{{X: 2, Y: 3}}})

	// Live (unclean) directory: WAL has one replayable record.
	rep := Fsck(fs, "data")
	if !rep.OK() {
		t.Fatalf("healthy dir reported problems: %v", rep.Problems)
	}
	if rep.WALReplayable != 1 || rep.CleanShutdown {
		t.Fatalf("live dir fsck = %+v, want 1 replayable record, unclean", rep)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep = Fsck(fs, "data")
	if !rep.OK() || !rep.CleanShutdown || rep.WALRecords != 0 {
		t.Fatalf("closed dir fsck = %+v (problems %v)", rep, rep.Problems)
	}
	if len(rep.Datasets) != 1 || rep.Datasets[0].Points != 121 {
		t.Fatalf("fsck datasets = %+v", rep.Datasets)
	}

	// Flip a byte inside the snapshot's page area: fsck must object.
	name := rep.Datasets[0].File
	f, err := fs.OpenRW("data/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 100); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], 100); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if rep := Fsck(fs, "data"); rep.OK() {
		t.Fatal("fsck accepted a corrupted snapshot")
	}

	// A record with a good frame whose Base is the snapshot's version, but
	// whose batch deletes a point the dataset never had.
	fs = storage.NewFaultFS()
	s = mustOpen(t, fs)
	d := mustIngest(t, s, "p", dataset.Uniform(120, 9))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, _, err := storage.OpenWAL(fs, "data/"+walName)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := json.Marshal(walRecord{Name: "p", Base: d.Version, Result: d.Version + 1,
		Spec: MutationSpec{Delete: []int64{int64(len(d.Points)) + 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(bad); err != nil {
		t.Fatal(err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(durableConfig(fs)); err == nil {
		t.Fatal("Open replayed a WAL batch that cannot apply")
	}
	if rep := Fsck(fs, "data"); rep.OK() {
		t.Fatalf("fsck passed a directory boot cannot recover: %+v", rep)
	}

	// Snapshots whose page checksums all hold but whose tree no dataset
	// can come from: boot refuses each, and fsck names it.
	for _, c := range malformedSnapshots() {
		fs := storage.NewFaultFS()
		writeSnapshotDir(t, fs, c.pages, c.meta)
		if _, err := Open(durableConfig(fs)); err == nil {
			t.Errorf("%s: Open restored the snapshot", c.name)
		}
		if rep := Fsck(fs, "data"); rep.OK() {
			t.Errorf("%s: fsck passed the snapshot: %+v", c.name, rep)
		}
	}
}

// malformedSnapshot is a snapshot's page images, back to back, and the
// tree header its manifest entry carries.
type malformedSnapshot struct {
	name  string
	pages []byte
	meta  rtree.Meta
}

// malformedSnapshots are well-checksummed snapshots that restore must
// reject: a point table with a duplicate ID, a page that does not decode,
// and a self-referencing root under a header taller than the disk.
func malformedSnapshots() []malformedSnapshot {
	// Leaves naming points {0, 2, 2}: restored naively, point 2 is
	// indexed twice and the unnamed slot 1 comes back live at (0, 0).
	dup := rtree.New(storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 8), rtree.KindPoints)
	for i, id := range []int64{0, 2, 2} {
		dup.InsertPoint(id, geom.Pt(float64(10*i+10), 10))
	}
	// A leaf whose header claims 65,535 entries, far more than a page
	// holds.
	huge := make([]byte, storage.DefaultPageSize)
	huge[1] = 1
	binary.LittleEndian.PutUint16(huge[2:4], 0xFFFF)
	// An internal root whose one entry points back at the root itself.
	loop := make([]byte, storage.DefaultPageSize)
	binary.LittleEndian.PutUint16(loop[2:4], 1)
	binary.LittleEndian.PutUint64(loop[24:32], math.Float64bits(1)) // MBR (0, 0)-(1, 1)
	binary.LittleEndian.PutUint64(loop[32:40], math.Float64bits(1))
	return []malformedSnapshot{
		{"duplicate point id", dup.Buffer().Disk().PageBytes(dup.Root()), dup.Meta()},
		{"undecodable leaf", huge, rtree.Meta{Kind: rtree.KindPoints, Root: 0, Height: 1, Size: 0xFFFF}},
		{"self-referencing root", loop, rtree.Meta{Kind: rtree.KindPoints, Root: 0, Height: math.MaxInt32, Size: 1}},
	}
}

// writeSnapshotDir makes dir "data" hold one dataset "p" at version 1,
// whose snapshot is pages (cut into DefaultPageSize pages, the last one
// zero-padded) under a manifest entry carrying meta. It returns that
// entry.
func writeSnapshotDir(t testing.TB, fs storage.FS, pages []byte, meta rtree.Meta) manifestDataset {
	t.Helper()
	disk := storage.NewDisk(storage.DefaultPageSize)
	buf := storage.NewBuffer(disk, 0)
	for off := 0; off < len(pages); off += storage.DefaultPageSize {
		buf.Write(buf.Alloc(), pages[off:min(off+storage.DefaultPageSize, len(pages))])
	}
	md := manifestDataset{Name: "p", Version: 1, File: snapshotFile("p", 1), Meta: meta}
	man, err := json.Marshal(manifest{Format: manifestFormat, CleanShutdown: true, Datasets: []manifestDataset{md}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("data"); err != nil {
		t.Fatal(err)
	}
	if err := storage.SaveDiskFile(fs, "data/"+md.File, disk); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteFileAtomic(fs, "data/"+manifestName, man); err != nil {
		t.Fatal(err)
	}
	return md
}

// FuzzRestoreSnapshot: whatever pages a snapshot holds (checksums valid)
// and whatever tree header its manifest carries, restore either fails
// with an error or yields a dataset whose live IDs are distinct, whose
// live count is the tree's size, and whose every live point sits in its
// own slot.
func FuzzRestoreSnapshot(f *testing.F) {
	good := loadTree(dataset.Uniform(120, 5))
	disk := good.Buffer().Disk()
	var img []byte
	for i := 0; i < disk.NumPages(); i++ {
		img = append(img, disk.PageBytes(storage.PageID(i))...)
	}
	seed := func(pages []byte, m rtree.Meta) {
		f.Add(pages, uint8(m.Kind), int64(m.Root), m.Height, m.Size)
	}
	seed(img, good.Meta())
	for _, c := range malformedSnapshots() {
		seed(c.pages, c.meta)
	}
	f.Fuzz(func(t *testing.T, pages []byte, kind uint8, root int64, height, size int) {
		fs := storage.NewFaultFS()
		md := writeSnapshotDir(t, fs, pages, rtree.Meta{Kind: rtree.Kind(kind), Root: storage.PageID(root), Height: height, Size: size})
		_, d, err := restoreSnapshot(fs, "data", md, NewRegistry(0))
		if err != nil {
			return
		}
		entries := d.Tree.AllEntries()
		if d.Live != len(entries) || d.Live != d.Tree.Size() {
			t.Fatalf("Live = %d, tree holds %d entries, size %d", d.Live, len(entries), d.Tree.Size())
		}
		named := make(map[int64]bool, len(entries))
		for _, e := range entries {
			if named[e.ID] {
				t.Fatalf("point %d is live twice", e.ID)
			}
			named[e.ID] = true
			if !d.alive(e.ID) || d.Points[e.ID] != e.Pt {
				t.Fatalf("point %d at %v is not in its slot", e.ID, e.Pt)
			}
		}
		for id := range d.Points {
			if d.alive(int64(id)) && !named[int64(id)] {
				t.Fatalf("slot %d is live but the tree does not name it", id)
			}
		}
	})
}
