package delta

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
	"cij/internal/voronoi"
)

var domain = dataset.Domain

// version is one immutable version of a dataset: its live points by ID
// and its tree, built the way the service registry builds them.
type version struct {
	pts  map[int64]geom.Point
	next int64 // the ID the next insert gets
	tree *rtree.Tree
}

// load bulk-loads pts (IDs = indexes) through an unbounded buffer, then
// shrinks the buffer to 2% of the pages and starts it cold.
func load(pts []geom.Point) *version {
	buf := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 1<<30)
	v := &version{pts: make(map[int64]geom.Point, len(pts)), next: int64(len(pts))}
	for i, p := range pts {
		v.pts[int64(i)] = p
	}
	v.tree = rtree.BulkLoadPoints(buf, pts, domain, 1)
	coldBuffer(v.tree)
	return v
}

func coldBuffer(t *rtree.Tree) {
	buf := t.Buffer()
	buf.SetCapacity(max(1, int(math.Ceil(float64(t.NumPages())*0.02))))
	buf.DropAll()
	buf.ResetStats()
}

// apply builds the next version beside v: a copy-on-write disk clone with
// the batch replayed through dynamic delete and insert.
func (v *version) apply(changes []Change) *version {
	mt := v.tree.CloneMut(storage.NewBuffer(v.tree.Buffer().Disk().Clone(), 1<<30))
	next := &version{pts: make(map[int64]geom.Point, len(v.pts)+len(changes)), next: v.next, tree: mt}
	for id, p := range v.pts {
		next.pts[id] = p
	}
	for _, c := range changes {
		if c.Op == OpDelete || c.Op == OpUpdate {
			if !mt.DeletePoint(c.ID, c.Old) {
				panic(fmt.Sprintf("delete of missing point %d", c.ID))
			}
			delete(next.pts, c.ID)
		}
		if c.Op == OpInsert || c.Op == OpUpdate {
			mt.InsertPoint(c.ID, c.New)
			next.pts[c.ID] = c.New
		}
		if c.Op == OpInsert {
			next.next = max(next.next, c.ID+1)
		}
	}
	coldBuffer(mt)
	return next
}

// view is a per-call read handle, as the service hands PairChurn.
func (v *version) view() *rtree.Tree {
	return v.tree.WithBuffer(v.tree.Buffer().Fork(v.tree.Buffer().Capacity()))
}

// ids returns the live IDs in ascending order.
func (v *version) ids() []int64 {
	ids := make([]int64, 0, len(v.pts))
	for id := range v.pts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// brutePairs is the full join by brute force, with original IDs.
func brutePairs(mutated, other *version, mutatedLeft bool) map[core.Pair]bool {
	mids, oids := mutated.ids(), other.ids()
	mpts, opts := make([]geom.Point, len(mids)), make([]geom.Point, len(oids))
	for i, id := range mids {
		mpts[i] = mutated.pts[id]
	}
	for i, id := range oids {
		opts[i] = other.pts[id]
	}
	out := make(map[core.Pair]bool)
	if mutatedLeft {
		for _, p := range core.BruteCIJ(mpts, opts, domain) {
			out[core.Pair{P: mids[p.P], Q: oids[p.Q]}] = true
		}
	} else {
		for _, p := range core.BruteCIJ(opts, mpts, domain) {
			out[core.Pair{P: oids[p.P], Q: mids[p.Q]}] = true
		}
	}
	return out
}

// bruteChurn diffs the brute-force joins before and after the batch.
func bruteChurn(old, cur, other *version, mutatedLeft bool) (added, removed []core.Pair) {
	before, after := brutePairs(old, other, mutatedLeft), brutePairs(cur, other, mutatedLeft)
	for p := range after {
		if !before[p] {
			added = append(added, p)
		}
	}
	for p := range before {
		if !after[p] {
			removed = append(removed, p)
		}
	}
	core.SortPairs(added)
	core.SortPairs(removed)
	return added, removed
}

// checkChurn runs one batch in both operand orientations and holds the
// churn to the brute-force diff and the memo to its invariants.
func checkChurn(t *testing.T, old, other *version, changes []Change) {
	t.Helper()
	cur := old.apply(changes)
	for _, mutatedLeft := range []bool{true, false} {
		e := newEngine(old.view(), cur.view(), other.view(), domain)
		res := e.churn(changes, mutatedLeft)
		wantAdd, wantRem := bruteChurn(old, cur, other, mutatedLeft)
		if !core.SamePairs(res.Added, wantAdd) || !core.SamePairs(res.Removed, wantRem) {
			t.Fatalf("mutatedLeft=%v: churn +%d/-%d, brute force +%d/-%d\nmissing added %v, spurious added %v\nmissing removed %v, spurious removed %v",
				mutatedLeft, len(res.Added), len(res.Removed), len(wantAdd), len(wantRem),
				core.DiffPairs(wantAdd, res.Added), core.DiffPairs(res.Added, wantAdd),
				core.DiffPairs(wantRem, res.Removed), core.DiffPairs(res.Removed, wantRem))
		}
		checkMemo(t, e, res, [3]*version{roleOld: old, roleNew: cur, roleOther: other})
	}
}

// checkMemo pins the work counter and the memo: no cell was computed
// twice (Cells is at most the number of distinct (role, site) cells the
// call touched, which are exactly the memo's keys), and every memoized
// cell is the exact cell of its site in its role's tree.
func checkMemo(t *testing.T, e *engine, res Result, versions [3]*version) {
	t.Helper()
	if res.Cells > len(e.memo) {
		t.Fatalf("Cells = %d for %d distinct (role, site) cells: a cell was computed twice", res.Cells, len(e.memo))
	}
	var ws voronoi.Workspace
	for k, c := range e.memo {
		pt, ok := versions[k.role].pts[k.id]
		if !ok {
			t.Fatalf("memo holds a cell for site %d, absent from role %d's tree", k.id, k.role)
		}
		want := ws.BFVor(versions[k.role].tree, voronoi.Site{ID: k.id, Pt: pt}, domain)
		if math.Abs(c.poly.Area()-want.Area()) > 1e-6*math.Max(1, want.Area()) || c.box != c.poly.Bounds() {
			t.Fatalf("memoized cell of site %d in role %d has area %v, BF-VOR gives %v", k.id, k.role, c.poly.Area(), want.Area())
		}
	}
}

func TestPairChurnSingleChanges(t *testing.T) {
	p, q := load(dataset.Uniform(300, 1)), load(dataset.Uniform(300, 2))
	cases := []struct {
		name    string
		changes []Change
	}{
		{"insert", []Change{{Op: OpInsert, ID: p.next, New: geom.Pt(4321, 5678)}}},
		{"delete", []Change{{Op: OpDelete, ID: 17, Old: p.pts[17]}}},
		{"update", []Change{{Op: OpUpdate, ID: 42, Old: p.pts[42], New: geom.Pt(1234, 8765)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkChurn(t, p, q, tc.changes) })
	}
}

// TestPairChurnSharedNeighbourhood mutates one small neighbourhood with
// every kind of change, so the changes' screens and the affected sites'
// partner probes hit the same cells again and again. Each probe looks up
// one opposite-side cell, so Cells < Probes proves the memo served some
// of them.
func TestPairChurnSharedNeighbourhood(t *testing.T) {
	p, q := load(dataset.Uniform(300, 3)), load(dataset.Uniform(300, 4))
	c := geom.Pt(5000, 5000)
	near := p.ids()
	slices.SortFunc(near, func(a, b int64) int { return cmp.Compare(p.pts[a].Dist2(c), p.pts[b].Dist2(c)) })
	changes := []Change{
		{Op: OpInsert, ID: p.next, New: geom.Pt(5010, 4990)},
		{Op: OpInsert, ID: p.next + 1, New: geom.Pt(4950, 5060)},
		{Op: OpInsert, ID: p.next + 2, New: geom.Pt(5100, 5100)},
		{Op: OpDelete, ID: near[0], Old: p.pts[near[0]]},
		{Op: OpDelete, ID: near[1], Old: p.pts[near[1]]},
		{Op: OpUpdate, ID: near[2], Old: p.pts[near[2]], New: geom.Pt(4900, 4900)},
		{Op: OpUpdate, ID: near[3], Old: p.pts[near[3]], New: geom.Pt(5200, 5000)},
	}
	checkChurn(t, p, q, changes)
	res := PairChurn(p.view(), p.apply(changes).view(), q.view(), changes, true, domain)
	if res.Cells >= res.Probes {
		t.Fatalf("Cells = %d, not below Probes = %d", res.Cells, res.Probes)
	}
}

// TestPairChurnDuplicatePosition inserts onto an existing point's exact
// position, on both the mutated and the opposite side's points: the new
// site and the old one share a degenerate cell.
func TestPairChurnDuplicatePosition(t *testing.T) {
	p, q := load(dataset.Uniform(300, 5)), load(dataset.Uniform(300, 6))
	checkChurn(t, p, q, []Change{{Op: OpInsert, ID: p.next, New: p.pts[99]}})
	checkChurn(t, p, q, []Change{{Op: OpInsert, ID: p.next, New: q.pts[7]}})
	checkChurn(t, p, q, []Change{{Op: OpUpdate, ID: 3, Old: p.pts[3], New: p.pts[4]}})
}

// TestPairChurnDomainCorner changes points at the domain's corners, where
// cells are clipped by the domain boundary.
func TestPairChurnDomainCorner(t *testing.T) {
	pts := dataset.Uniform(300, 7)
	pts[0] = geom.Pt(domain.MinX, domain.MinY)
	pts[1] = geom.Pt(domain.MaxX, domain.MaxY)
	p, q := load(pts), load(dataset.Uniform(300, 8))
	checkChurn(t, p, q, []Change{{Op: OpInsert, ID: p.next, New: geom.Pt(domain.MaxX, domain.MinY)}})
	checkChurn(t, p, q, []Change{{Op: OpDelete, ID: 0, Old: pts[0]}})
	checkChurn(t, p, q, []Change{{Op: OpUpdate, ID: 1, Old: pts[1], New: geom.Pt(domain.MinX, domain.MaxY)}})
}

// TestPairChurnEmptyRegion changes clustered data in the empty part of
// the domain: the changed sites' cells are huge, so one range search
// yields more uncached candidates than a leaf holds, and their cells are
// computed in several Algorithm 2 traversals.
func TestPairChurnEmptyRegion(t *testing.T) {
	p, q := load(dataset.Clustered(300, 3, 9)), load(dataset.Clustered(300, 3, 10))
	checkChurn(t, p, q, []Change{
		{Op: OpInsert, ID: p.next, New: geom.Pt(domain.MinX+1, domain.MinY+1)},
		{Op: OpInsert, ID: p.next + 1, New: geom.Pt(domain.MaxX-1, domain.MaxY-1)},
		{Op: OpUpdate, ID: 5, Old: p.pts[5], New: geom.Pt(domain.MaxX-1, domain.MinY+1)},
	})
}

// Each batch of the mutate-live shape inserts batchInserts points, moves
// batchMoves and deletes batchDeletes.
const (
	batchInserts = 8
	batchMoves   = 4
	batchDeletes = 4
)

// step is one PairChurn call of a mutation sequence.
type step struct {
	old, cur, other *version
	changes         []Change
	mutatedLeft     bool
}

// mutateLive builds the mutate-live shape: two uniform sets of n points,
// mutated alternately by batches of 8 inserts, 4 moves and 4 deletes at
// seeded positions. Each step maintains a⋈b across one batch.
func mutateLive(n, batches int, seed int64) []step {
	rng := rand.New(rand.NewSource(seed))
	sets := [2]*version{load(dataset.Uniform(n, seed)), load(dataset.Uniform(n, seed+1))}
	randPt := func() geom.Point { return geom.Pt(rng.Float64()*domain.MaxX, rng.Float64()*domain.MaxY) }
	steps := make([]step, 0, batches)
	for i := range batches {
		side := i % 2
		old := sets[side]
		live := old.ids()
		rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
		var changes []Change
		for _, id := range live[:batchMoves] {
			changes = append(changes, Change{Op: OpUpdate, ID: id, Old: old.pts[id], New: randPt()})
		}
		for _, id := range live[batchMoves : batchMoves+batchDeletes] {
			changes = append(changes, Change{Op: OpDelete, ID: id, Old: old.pts[id]})
		}
		for k := range batchInserts {
			changes = append(changes, Change{Op: OpInsert, ID: old.next + int64(k), New: randPt()})
		}
		sets[side] = old.apply(changes)
		steps = append(steps, step{old: old, cur: sets[side], other: sets[1-side], changes: changes, mutatedLeft: side == 0})
	}
	return steps
}

// TestPairChurnWorkMutateLive pins the work counters on the mutate-live
// shape: memoized, batch-computed cells cost fewer computations than the
// probes they serve, and none is computed twice.
func TestPairChurnWorkMutateLive(t *testing.T) {
	for i, s := range mutateLive(10000, 4, 1) {
		e := newEngine(s.old.view(), s.cur.view(), s.other.view(), domain)
		res := e.churn(s.changes, s.mutatedLeft)
		if res.Cells > len(e.memo) {
			t.Errorf("batch %d: Cells = %d for %d distinct (role, site) cells", i, res.Cells, len(e.memo))
		}
		if res.Cells >= res.Probes {
			t.Errorf("batch %d: Cells = %d, not below Probes = %d", i, res.Cells, res.Probes)
		}
	}
}

// BenchmarkPairChurn times PairChurn on the mutate-live shape (2 × 10k
// uniform, batches of 8 inserts, 4 moves and 4 deletes, fixed seed). One
// op is one batch; ops cycle through a fixed sequence of 60 batches, so
// -benchtime 60x averages over the whole sequence.
func BenchmarkPairChurn(b *testing.B) {
	benchChurn(b, mutateLive(10000, 60, 1))
}

// BenchmarkPairChurnEmptyRegion times one batch that inserts and moves
// points into the empty part of two clustered 10k sets: huge cells, each
// meeting thousands of opposite-side candidates — the regime where one
// traversal per search box would go quadratic.
func BenchmarkPairChurnEmptyRegion(b *testing.B) {
	p, q := load(dataset.Clustered(10000, 4, 1)), load(dataset.Clustered(10000, 4, 2))
	changes := []Change{{Op: OpDelete, ID: 3, Old: p.pts[3]}, {Op: OpUpdate, ID: 7, Old: p.pts[7], New: geom.Pt(2500, 7500)}}
	for i, pt := range []geom.Point{geom.Pt(1, 1), geom.Pt(9999, 1), geom.Pt(1, 9999), geom.Pt(9999, 9999), geom.Pt(5000, 5000)} {
		changes = append(changes, Change{Op: OpInsert, ID: p.next + int64(i), New: pt})
	}
	benchChurn(b, []step{{old: p, cur: p.apply(changes), other: q, changes: changes, mutatedLeft: true}})
}

// benchChurn runs PairChurn over steps cyclically, one step per op, and
// reports the work counters per op.
func benchChurn(b *testing.B, steps []step) {
	var cells, probes, churn int
	b.ResetTimer()
	for i := range b.N {
		s := steps[i%len(steps)]
		res := PairChurn(s.old.view(), s.cur.view(), s.other.view(), s.changes, s.mutatedLeft, domain)
		cells += res.Cells
		probes += res.Probes
		churn += len(res.Added) + len(res.Removed)
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	b.ReportMetric(float64(churn)/float64(b.N), "churn/op")
}
