package check

import (
	"fmt"
	"math/rand"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/delta"
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// liveSet is the evolving state of a mutable dataset in the delta oracle:
// every position ever assigned (index = ID), a tombstone map, and the
// current tree version over its own copy-on-write disk lineage — the same
// shape the service registry maintains.
type liveSet struct {
	pts   []geom.Point
	alive []bool
	tree  *rtree.Tree
}

func buildLive(pts []geom.Point) *liveSet {
	buf := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 1<<30)
	alive := make([]bool, len(pts))
	for i := range alive {
		alive[i] = true
	}
	return &liveSet{
		pts:   append([]geom.Point(nil), pts...),
		alive: alive,
		tree:  rtree.BulkLoadPoints(buf, pts, dataset.Domain, 1),
	}
}

// apply produces the next version: a COW disk clone, the batch replayed
// through dynamic insert/delete, the previous version left untouched.
func (ls *liveSet) apply(changes []delta.Change) *liveSet {
	mt := ls.tree.CloneMut(storage.NewBuffer(ls.tree.Buffer().Disk().Clone(), 1<<30))
	next := &liveSet{
		pts:   append([]geom.Point(nil), ls.pts...),
		alive: append([]bool(nil), ls.alive...),
		tree:  mt,
	}
	for _, c := range changes {
		switch c.Op {
		case delta.OpInsert:
			if c.ID != int64(len(next.pts)) {
				panic("oracle: insert IDs must be dense")
			}
			next.pts = append(next.pts, c.New)
			next.alive = append(next.alive, true)
			mt.InsertPoint(c.ID, c.New)
		case delta.OpDelete:
			if !mt.DeletePoint(c.ID, c.Old) {
				panic("oracle: delete of missing point")
			}
			next.alive[c.ID] = false
		case delta.OpUpdate:
			if !mt.DeletePoint(c.ID, c.Old) {
				panic("oracle: update of missing point")
			}
			mt.InsertPoint(c.ID, c.New)
			next.pts[c.ID] = c.New
		}
	}
	return next
}

func (ls *liveSet) livePoints() (pts []geom.Point, ids []int64) {
	for i, p := range ls.pts {
		if ls.alive[i] {
			pts = append(pts, p)
			ids = append(ids, int64(i))
		}
	}
	return pts, ids
}

// brutePairs is the full-recompute oracle with original IDs restored on
// the mutated side. mutatedLeft selects the operand order.
func (ls *liveSet) brutePairs(other []geom.Point, mutatedLeft bool) []core.Pair {
	pts, ids := ls.livePoints()
	var raw []core.Pair
	if mutatedLeft {
		raw = core.BruteCIJ(pts, other, dataset.Domain)
		for i := range raw {
			raw[i].P = ids[raw[i].P]
		}
	} else {
		raw = core.BruteCIJ(other, pts, dataset.Domain)
		for i := range raw {
			raw[i].Q = ids[raw[i].Q]
		}
	}
	return raw
}

// diffPairs splits old→new into (added, removed).
func diffPairs(old, new []core.Pair) (added, removed []core.Pair) {
	oldSet := make(map[core.Pair]bool, len(old))
	for _, p := range old {
		oldSet[p] = true
	}
	newSet := make(map[core.Pair]bool, len(new))
	for _, p := range new {
		newSet[p] = true
	}
	for p := range newSet {
		if !oldSet[p] {
			added = append(added, p)
		}
	}
	for p := range oldSet {
		if !newSet[p] {
			removed = append(removed, p)
		}
	}
	core.SortPairs(added)
	core.SortPairs(removed)
	return added, removed
}

// mutationBatch derives one deterministic batch from the current state:
// inserts that deliberately duplicate live points or opposite-set points
// (the degeneracies the generator targets), deletes, and moves — mixed in
// one batch when the state allows it.
func mutationBatch(rng *rand.Rand, ls *liveSet, other []geom.Point, round int) []delta.Change {
	liveIDs := make([]int64, 0, len(ls.pts))
	for i := range ls.pts {
		if ls.alive[i] {
			liveIDs = append(liveIDs, int64(i))
		}
	}
	randPt := func() geom.Point {
		switch rng.Intn(5) {
		case 0: // exact duplicate of a live point
			return ls.pts[liveIDs[rng.Intn(len(liveIDs))]]
		case 1: // exact duplicate of an opposite-set point
			return other[rng.Intn(len(other))]
		case 2: // near-duplicate: degenerate sliver cells
			base := ls.pts[liveIDs[rng.Intn(len(liveIDs))]]
			return geom.Pt(geom.Clamp(base.X+rng.Float64()*2-1, 0, dataset.Domain.MaxX),
				geom.Clamp(base.Y+rng.Float64()*2-1, 0, dataset.Domain.MaxY))
		case 3: // inside the generator's populated window
			return geom.Pt(rng.Float64()*150, rng.Float64()*150)
		default: // far away in the empty part of the domain
			return geom.Pt(rng.Float64()*dataset.Domain.MaxX, rng.Float64()*dataset.Domain.MaxY)
		}
	}
	// Per-batch op mix: round 0 inserts, round 1 deletes+updates, round 2
	// all three. Deletes/updates draw distinct live IDs; when too few live
	// points remain the op degrades to an insert so the set never empties.
	used := map[int64]bool{}
	takeLive := func() (int64, bool) {
		for tries := 0; tries < 10; tries++ {
			id := liveIDs[rng.Intn(len(liveIDs))]
			if !used[id] {
				used[id] = true
				return id, true
			}
		}
		return 0, false
	}
	var ops []delta.Op
	switch round % 3 {
	case 0:
		ops = []delta.Op{delta.OpInsert, delta.OpInsert}
	case 1:
		ops = []delta.Op{delta.OpDelete, delta.OpUpdate}
	default:
		ops = []delta.Op{delta.OpInsert, delta.OpDelete, delta.OpUpdate}
	}
	var changes []delta.Change
	nextID := int64(len(ls.pts))
	deletes := 0
	for _, op := range ops {
		switch op {
		case delta.OpDelete, delta.OpUpdate:
			// Keep at least one live point; count updates as neutral.
			id, ok := takeLive()
			if !ok || (op == delta.OpDelete && len(liveIDs)-deletes <= 1) {
				op = delta.OpInsert
				break
			}
			if op == delta.OpDelete {
				deletes++
				changes = append(changes, delta.Change{Op: delta.OpDelete, ID: id, Old: ls.pts[id]})
			} else {
				changes = append(changes, delta.Change{Op: delta.OpUpdate, ID: id, Old: ls.pts[id], New: randPt()})
			}
			continue
		}
		changes = append(changes, delta.Change{Op: delta.OpInsert, ID: nextID, New: randPt()})
		nextID++
	}
	return changes
}

// TestDeltaSeeds is the delta-vs-full-recompute oracle: across the full
// adversarial seed matrix, a sequence of insert/delete/update batches is
// applied through the COW mutation path, and the incremental engine's
// churn must reproduce the brute-force diff exactly — in both operand
// orientations — while the pre-mutation versions stay byte-identical for
// readers (snapshot isolation).
func TestDeltaSeeds(t *testing.T) {
	for seed := int64(1); seed <= NumSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			checkDeltaSeed(t, seed)
		})
	}
}

func checkDeltaSeed(t *testing.T, seed int64) {
	ps := Generate(seed)
	rng := rand.New(rand.NewSource(seed * 7919))

	qBuf := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 1<<30)
	qTree := rtree.BulkLoadPoints(qBuf, ps.Q, dataset.Domain, 1)

	v0 := buildLive(ps.P)
	v0Left := v0.brutePairs(ps.Q, true)
	v0Right := v0.brutePairs(ps.Q, false)

	cur := v0
	curLeft, curRight := v0Left, v0Right
	for round := 0; round < 3; round++ {
		batch := mutationBatch(rng, cur, ps.Q, round)
		next := cur.apply(batch)
		if err := next.tree.CheckInvariants(); err != nil {
			t.Fatalf("round %d: mutated tree invariants: %v", round, err)
		}

		nextLeft := next.brutePairs(ps.Q, true)
		nextRight := next.brutePairs(ps.Q, false)

		wantAdd, wantRem := diffPairs(curLeft, nextLeft)
		got := delta.PairChurn(cur.tree, next.tree, qTree, batch, true, dataset.Domain)
		if !core.SamePairs(got.Added, wantAdd) || !core.SamePairs(got.Removed, wantRem) {
			t.Fatalf("round %d left: delta +%d/-%d != brute +%d/-%d\nbatch: %+v\nmissing added: %v\nspurious added: %v\nmissing removed: %v\nspurious removed: %v",
				round, len(got.Added), len(got.Removed), len(wantAdd), len(wantRem), batch,
				core.DiffPairs(wantAdd, got.Added), core.DiffPairs(got.Added, wantAdd),
				core.DiffPairs(wantRem, got.Removed), core.DiffPairs(got.Removed, wantRem))
		}

		wantAddR, wantRemR := diffPairs(curRight, nextRight)
		gotR := delta.PairChurn(cur.tree, next.tree, qTree, batch, false, dataset.Domain)
		if !core.SamePairs(gotR.Added, wantAddR) || !core.SamePairs(gotR.Removed, wantRemR) {
			t.Fatalf("round %d right: delta +%d/-%d != brute +%d/-%d (batch %+v)",
				round, len(gotR.Added), len(gotR.Removed), len(wantAddR), len(wantRemR), batch)
		}

		cur, curLeft, curRight = next, nextLeft, nextRight
	}

	// Snapshot isolation: after every mutation, a tree-based join over the
	// ORIGINAL version still reproduces the original pair set exactly.
	rp := v0.tree.WithBuffer(v0.tree.Buffer().Fork(64))
	rq := qTree.WithBuffer(qTree.Buffer().Fork(64))
	frozen := core.NMCIJ(rp, rq, dataset.Domain, core.DefaultOptions())
	if !core.SamePairs(frozen.Pairs, v0Left) {
		t.Fatalf("snapshot isolation violated: v0 join changed after mutations (%d pairs, want %d)",
			len(frozen.Pairs), len(v0Left))
	}
	if err := v0.tree.CheckInvariants(); err != nil {
		t.Fatalf("v0 invariants after mutations: %v", err)
	}
}
