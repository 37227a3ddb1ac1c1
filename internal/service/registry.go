package service

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"

	"cij/internal/dataset"
	"cij/internal/delta"
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// Point aliases geom.Point so service callers (cmd/cijserver, the load
// generator) can ingest without importing internal/geom themselves.
type Point = geom.Point

// nameRe restricts dataset names to a safe token: they are embedded in
// cache keys and URLs.
var nameRe = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)

// Dataset is one registered pointset: the points, the R-tree built over
// them at ingest time, and the private disk+buffer the tree lives on. A
// Dataset is immutable after construction — replacing a name installs a
// new Dataset value (re-ingest) or a copy-on-write successor (Mutate) —
// so any number of queries may hold and read one concurrently through
// forked buffer views, even while the next version is being built.
type Dataset struct {
	Name    string
	Version int
	// Points maps point IDs (the IDs join pairs carry) to positions. The
	// slice is append-only across versions: deleting a point tombstones
	// its slot (Alive) rather than renumbering, so IDs stay stable for
	// subscribers diffing pair churn across versions.
	Points []geom.Point
	// Alive, when non-nil, flags which Points entries are live; nil means
	// every entry is (a dataset that has never seen a delete).
	Alive []bool
	// Live is the number of live points (== len(Points) when Alive is
	// nil). Planner cardinality gates and wire point counts read it.
	Live int
	Tree *rtree.Tree
	// FlatTree is the arena-resident (flat) copy of Tree, frozen once at
	// ingest: structurally identical, decode-free to read, zero page I/O.
	// Plans with Storage "flat" read it through FlatView.
	FlatTree *rtree.Tree
	// Pages is the tree's page count on its private disk.
	Pages int
	// BufferPages is the LRU capacity each query view forks with.
	BufferPages int
}

// View returns a read-only handle on the dataset's tree whose I/O goes
// through a fresh private buffer: per-request state, never shared, so
// concurrent queries neither race on LRU bookkeeping nor pollute each
// other's cache locality. The view's counters start at zero, which is what
// lets the executor attribute physical I/O to one request exactly.
func (d *Dataset) View() *rtree.Tree {
	return d.Tree.WithBuffer(d.Tree.Buffer().Fork(d.BufferPages))
}

// FlatView is View for the flat copy: a read handle over the shared node
// arena whose accesses are counted on a fresh private ledger fork, so
// per-request I/O attribution works identically in both storage modes.
// (The ledger caches nothing, so capacity 0 is exact, not a limitation.)
func (d *Dataset) FlatView() *rtree.Tree {
	return d.FlatTree.WithBuffer(d.FlatTree.Buffer().Fork(0))
}

// StorageView dispatches on a plan's storage choice: "flat" reads the
// arena, anything else the paged tree.
func (d *Dataset) StorageView(storage string) *rtree.Tree {
	if storage == "flat" {
		return d.FlatView()
	}
	return d.View()
}

// JoinPoints returns the live points in ID order and, when the dataset
// carries tombstones, the original ID of each returned point. ids is nil
// for never-deleted datasets, whose positions already are their IDs —
// the common case, which the grid backend then consumes with zero copying
// or remapping.
func (d *Dataset) JoinPoints() (pts []geom.Point, ids []int64) {
	if d.Alive == nil {
		return d.Points, nil
	}
	pts = make([]geom.Point, 0, d.Live)
	ids = make([]int64, 0, d.Live)
	for i, p := range d.Points {
		if d.Alive[i] {
			pts = append(pts, p)
			ids = append(ids, int64(i))
		}
	}
	return pts, ids
}

// alive reports whether id names a live point.
func (d *Dataset) alive(id int64) bool {
	if id < 0 || id >= int64(len(d.Points)) {
		return false
	}
	return d.Alive == nil || d.Alive[id]
}

// Registry is the concurrent name -> Dataset map. Versions are scoped to
// the registry, not the Dataset value: replacing a name always moves its
// version strictly forward, which is what makes version-qualified cache
// keys sound.
type Registry struct {
	bufferPct float64

	mu       sync.RWMutex
	byName   map[string]*Dataset
	versions map[string]int
}

// NewRegistry creates an empty registry whose datasets size their query
// buffers to bufferPct% of their data pages (the paper's experiments use
// 2%).
func NewRegistry(bufferPct float64) *Registry {
	if bufferPct <= 0 {
		bufferPct = 2
	}
	return &Registry{
		bufferPct: bufferPct,
		byName:    make(map[string]*Dataset),
		versions:  make(map[string]int),
	}
}

// Put indexes pts under name, replacing any previous version. The build
// happens outside the registry lock (bulk-loading a large pointset is the
// expensive part); only the install is serialized.
func (r *Registry) Put(name string, pts []geom.Point) (*Dataset, error) {
	d, err := r.PrepareIngest(name, pts)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.versions[name]++
	d.Version = r.versions[name]
	r.byName[name] = d
	r.mu.Unlock()
	return d, nil
}

// PrepareIngest validates and builds a dataset without installing it —
// the first half of Put, split out so the durable tier can snapshot the
// build to disk before any reader can see it. The returned dataset has no
// version yet; InstallIngest assigns one.
func (r *Registry) PrepareIngest(name string, pts []geom.Point) (*Dataset, error) {
	if !nameRe.MatchString(name) {
		return nil, fmt.Errorf("service: invalid dataset name %q (want %s)", name, nameRe)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("service: dataset %q has no points", name)
	}
	return newDataset(&Dataset{Name: name, Points: pts, Live: len(pts), Tree: loadTree(pts)}, r.bufferPct), nil
}

// NextVersion returns the version the next install under name will
// assign. The prediction is exact only while the caller serializes
// writers (the service's mutMu does); the durable tier uses it to name
// snapshot files and WAL records before installing.
func (r *Registry) NextVersion(name string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.versions[name] + 1
}

// InstallIngest installs a prepared dataset at the given version, which
// must be the name's next one — a mismatch means another writer slipped
// in between prepare and install, and the caller's durable state (named
// by the predicted version) would not describe what got installed.
func (r *Registry) InstallIngest(d *Dataset, version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.versions[d.Name]+1 != version {
		return fmt.Errorf("service: %w (%q: prepared as version %d, next is %d)",
			ErrMutationConflict, d.Name, version, r.versions[d.Name]+1)
	}
	r.versions[d.Name] = version
	d.Version = version
	r.byName[d.Name] = d
	return nil
}

// InstallRestored registers a dataset recovered from the durable store at
// its recorded version. Restore happens at boot into an empty (or
// strictly older) registry; a version moving backwards means the manifest
// and the registry disagree, which is corruption, not a race.
func (r *Registry) InstallRestored(d *Dataset) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d.Version <= r.versions[d.Name] {
		return fmt.Errorf("service: restored %q at version %d, but the registry is already at %d",
			d.Name, d.Version, r.versions[d.Name])
	}
	r.versions[d.Name] = d.Version
	r.byName[d.Name] = d
	return nil
}

// Get returns the current version of the named dataset.
func (r *Registry) Get(name string) (*Dataset, bool) {
	r.mu.RLock()
	d, ok := r.byName[name]
	r.mu.RUnlock()
	return d, ok
}

// List returns the current datasets sorted by name.
func (r *Registry) List() []*Dataset {
	r.mu.RLock()
	out := make([]*Dataset, 0, len(r.byName))
	for _, d := range r.byName {
		out = append(out, d)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Mutation sentinel errors; the HTTP layer maps them to statuses
// (404 unknown, 409 conflict, 400 everything else).
var (
	ErrUnknownDataset    = errors.New("unknown dataset")
	ErrMutationConflict  = errors.New("dataset replaced concurrently; retry the mutation")
	errEmptyMutation     = errors.New("empty mutation batch")
	errMutationTooLarge  = errors.New("mutation batch too large")
	errMutationEmptiesIt = errors.New("mutation would leave the dataset empty")
)

// maxMutationBatch bounds one atomic mutation; larger edits should
// re-ingest, which rebuilds by bulk load instead of per-point updates.
const maxMutationBatch = 10000

// PointMove relocates one live point to a new position.
type PointMove struct {
	ID int64
	Pt geom.Point
}

// MutationSpec is one atomic batch of point-level changes: inserts (IDs
// assigned densely past the current high-water mark), moves and deletes.
// Each existing ID may appear at most once per batch.
type MutationSpec struct {
	Insert []geom.Point
	Update []PointMove
	Delete []int64
}

func (m MutationSpec) size() int { return len(m.Insert) + len(m.Update) + len(m.Delete) }

// Mutate applies spec to the named dataset and installs the result as
// its next version. The heavy work — cloning the disk copy-on-write,
// replaying the batch through dynamic insert/delete, re-freezing the
// flat copy — happens outside the registry lock, against a snapshot no
// reader shares; only the final install is serialized, and it fails with
// ErrMutationConflict if another writer replaced the dataset meanwhile
// (the server layer serializes mutations, so that arm guards re-ingest
// races, not mutate/mutate ones).
//
// On success it returns the displaced version, the installed version,
// and the batch in delta.Change form — exactly what the incremental
// join maintenance engine consumes.
func (r *Registry) Mutate(name string, spec MutationSpec) (old, cur *Dataset, changes []delta.Change, err error) {
	p, err := r.PrepareMutation(name, spec)
	if err != nil {
		return nil, nil, nil, err
	}
	return r.Install(p)
}

// PreparedMutation is a validated mutation whose next version is fully
// built but not yet visible — the seam the write-ahead log needs: the
// durable tier logs and fsyncs the batch between PrepareMutation and
// Install, so a crash on either side of the log record leaves either no
// trace or a replayable record, never a half-applied batch.
type PreparedMutation struct {
	name    string
	old     *Dataset
	cur     *Dataset
	spec    MutationSpec
	changes []delta.Change
}

// Base is the version the mutation was prepared against.
func (p *PreparedMutation) Base() int { return p.old.Version }

// Result is the version Install will assign. Exact while writers are
// serialized (installs bump by exactly one, and nothing can slip between
// prepare and install under the service's writer lock).
func (p *PreparedMutation) Result() int { return p.old.Version + 1 }

// Spec returns the batch, for WAL encoding.
func (p *PreparedMutation) Spec() MutationSpec { return p.spec }

// PrepareMutation validates spec against the current version of name and
// builds the next version beside it — everything Mutate does short of
// installing.
func (r *Registry) PrepareMutation(name string, spec MutationSpec) (*PreparedMutation, error) {
	d, ok := r.Get(name)
	if !ok {
		return nil, fmt.Errorf("service: %w %q", ErrUnknownDataset, name)
	}
	if spec.size() == 0 {
		return nil, fmt.Errorf("service: %w for %q", errEmptyMutation, name)
	}
	if spec.size() > maxMutationBatch {
		return nil, fmt.Errorf("service: %w: %d changes (max %d); re-ingest instead", errMutationTooLarge, spec.size(), maxMutationBatch)
	}
	if ids := len(d.Points) + len(spec.Insert); ids > maxDatasetPoints {
		return nil, fmt.Errorf("service: %w: %q would hold %d point IDs (max %d); re-ingest instead", errMutationTooLarge, name, ids, maxDatasetPoints)
	}
	touched := make(map[int64]bool, len(spec.Update)+len(spec.Delete))
	for _, id := range spec.Delete {
		if !d.alive(id) {
			return nil, fmt.Errorf("service: delete of unknown point %d in %q", id, name)
		}
		if touched[id] {
			return nil, fmt.Errorf("service: point %d named twice in one batch for %q", id, name)
		}
		touched[id] = true
	}
	for _, mv := range spec.Update {
		if !d.alive(mv.ID) {
			return nil, fmt.Errorf("service: update of unknown point %d in %q", mv.ID, name)
		}
		if touched[mv.ID] {
			return nil, fmt.Errorf("service: point %d named twice in one batch for %q", mv.ID, name)
		}
		touched[mv.ID] = true
		if !dataset.Domain.Contains(mv.Pt) {
			return nil, fmt.Errorf("service: update of point %d in %q to (%v, %v) outside the domain", mv.ID, name, mv.Pt.X, mv.Pt.Y)
		}
	}
	for _, p := range spec.Insert {
		if !dataset.Domain.Contains(p) {
			return nil, fmt.Errorf("service: insert at (%v, %v) outside the domain of %q", p.X, p.Y, name)
		}
	}
	if d.Live+len(spec.Insert)-len(spec.Delete) < 1 {
		return nil, fmt.Errorf("service: %w: %q has %d live points, batch deletes %d and inserts %d",
			errMutationEmptiesIt, name, d.Live, len(spec.Delete), len(spec.Insert))
	}

	// Build version N+1 beside the serving version: COW-clone the disk,
	// fork a mutable tree over the clone, replay the batch. Deletes and
	// updates keep their original IDs; inserts extend the ID space.
	mt := d.Tree.CloneMut(storage.NewBuffer(d.Tree.Buffer().Disk().Clone(), buildBufferPages))
	pts := append([]geom.Point(nil), d.Points...)
	var alive []bool
	if d.Alive != nil {
		alive = append([]bool(nil), d.Alive...)
	} else if len(spec.Delete) > 0 {
		alive = make([]bool, len(pts))
		for i := range alive {
			alive[i] = true
		}
	}
	changes := make([]delta.Change, 0, spec.size())
	for _, id := range spec.Delete {
		mt.DeletePoint(id, pts[id])
		alive[id] = false
		changes = append(changes, delta.Change{Op: delta.OpDelete, ID: id, Old: pts[id]})
	}
	for _, mv := range spec.Update {
		mt.DeletePoint(mv.ID, pts[mv.ID])
		mt.InsertPoint(mv.ID, mv.Pt)
		changes = append(changes, delta.Change{Op: delta.OpUpdate, ID: mv.ID, Old: pts[mv.ID], New: mv.Pt})
		pts[mv.ID] = mv.Pt
	}
	for _, p := range spec.Insert {
		id := int64(len(pts))
		pts = append(pts, p)
		if alive != nil {
			alive = append(alive, true)
		}
		mt.InsertPoint(id, p)
		changes = append(changes, delta.Change{Op: delta.OpInsert, ID: id, New: p})
	}

	// The new page population gets its serving shape and a cold buffer,
	// exactly like an ingest-time build.
	cur := newDataset(&Dataset{
		Name:   name,
		Points: pts,
		Alive:  alive,
		Live:   d.Live + len(spec.Insert) - len(spec.Delete),
		Tree:   mt,
	}, r.bufferPct)
	return &PreparedMutation{name: name, old: d, cur: cur, spec: spec, changes: changes}, nil
}

// Install makes a prepared mutation the serving version. It fails with
// ErrMutationConflict if the dataset was replaced since PrepareMutation —
// impossible while the service's writer lock is held across both halves,
// so a WAL record logged in between always names the version that
// installs.
func (r *Registry) Install(p *PreparedMutation) (old, cur *Dataset, changes []delta.Change, err error) {
	r.mu.Lock()
	if r.byName[p.name] != p.old {
		r.mu.Unlock()
		return nil, nil, nil, fmt.Errorf("service: %w (%q)", ErrMutationConflict, p.name)
	}
	r.versions[p.name]++
	p.cur.Version = r.versions[p.name]
	r.byName[p.name] = p.cur
	r.mu.Unlock()
	return p.old, p.cur, p.changes, nil
}

// buildBufferPages is the capacity of the buffer a tree is built, cloned
// or restored through: effectively unbounded, because construction I/O is
// not what the service meters. coldBuffer then shrinks it to serving size.
const buildBufferPages = 1 << 30

// newDataset completes a Dataset around its freshly built tree: it
// cold-starts the tree's buffer at serving size and freezes the flat
// copy. Ingest, mutation and restore all finish their datasets here.
func newDataset(d *Dataset, bufferPct float64) *Dataset {
	d.Pages = d.Tree.NumPages()
	d.BufferPages = coldBuffer(d.Tree.Buffer(), d.Pages, bufferPct)
	d.FlatTree = d.Tree.Freeze()
	return d
}

// coldBuffer sizes buf to bufferPct% of pages (at least one page) and
// clears its contents and counters, so measurement starts cold; it
// returns the capacity.
func coldBuffer(buf *storage.Buffer, pages int, bufferPct float64) int {
	capPages := int(math.Ceil(float64(pages) * bufferPct / 100))
	if capPages < 1 {
		capPages = 1
	}
	buf.SetCapacity(capPages)
	buf.DropAll()
	buf.ResetStats()
	return capPages
}

// loadTree bulk-loads pts into an R-tree on a fresh private disk behind a
// build buffer; newDataset sizes it with coldBuffer.
func loadTree(pts []geom.Point) *rtree.Tree {
	buf := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), buildBufferPages)
	return rtree.BulkLoadPoints(buf, pts, dataset.Domain, 1)
}
