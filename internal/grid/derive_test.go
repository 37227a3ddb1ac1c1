package grid_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cij/internal/check"
	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/grid"
)

// model is a mutable pointset in the service's shape: a point's ID is its
// index, a delete tombstones it, a move keeps it and an insert appends.
type model struct {
	pts     []geom.Point
	alive   []bool
	deleted bool
}

func newModel(pts []geom.Point) *model {
	m := &model{pts: slices.Clone(pts), alive: make([]bool, len(pts))}
	for i := range m.alive {
		m.alive[i] = true
	}
	return m
}

// join returns the live points and their IDs as Dataset.JoinPoints does:
// ids is nil until the first delete.
func (m *model) join() ([]geom.Point, []int64) {
	if !m.deleted {
		return m.pts, nil
	}
	var pts []geom.Point
	var ids []int64
	for i, p := range m.pts {
		if m.alive[i] {
			pts = append(pts, p)
			ids = append(ids, int64(i))
		}
	}
	return pts, ids
}

// mutate applies one batch of up to ins inserts, mov moves and del
// deletes at positions from draw, keeping at least one point live.
func (m *model) mutate(rng *rand.Rand, ins, mov, del int, draw func() geom.Point) {
	var live []int
	for i, ok := range m.alive {
		if ok {
			live = append(live, i)
		}
	}
	rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
	mov = min(mov, len(live))
	del = min(del, len(live)-mov-1)
	for _, id := range live[:mov] {
		m.pts[id] = draw()
	}
	for _, id := range live[mov : mov+max(del, 0)] {
		m.alive[id] = false
		m.deleted = true
	}
	for range ins {
		m.pts = append(m.pts, draw())
		m.alive = append(m.alive, true)
	}
}

// pick returns a random live point of m.
func (m *model) pick(rng *rand.Rand) geom.Point {
	for {
		if i := rng.Intn(len(m.pts)); m.alive[i] {
			return m.pts[i]
		}
	}
}

// deriveFamily is one chain of derivations: a starting pointset, a fixed
// opposite pointset, the positions batches draw, and the batch shape.
type deriveFamily struct {
	name          string
	base, other   []geom.Point
	draw          func(rng *rand.Rand, m *model) geom.Point
	versions      int
	ins, mov, del int
}

// uniformDraw draws anywhere in the domain.
func uniformDraw(rng *rand.Rand, _ *model) geom.Point {
	d := dataset.Domain
	return geom.Pt(d.MinX+rng.Float64()*d.Width(), d.MinY+rng.Float64()*d.Height())
}

// degenerateDraw mixes the delta oracle's positions: exact duplicates of
// live and opposite points, near-duplicates, the generator's crowded
// window and uniform positions.
func degenerateDraw(other []geom.Point) func(*rand.Rand, *model) geom.Point {
	return func(rng *rand.Rand, m *model) geom.Point {
		switch rng.Intn(5) {
		case 0:
			return m.pick(rng)
		case 1:
			if len(other) > 0 {
				return other[rng.Intn(len(other))]
			}
			return m.pick(rng)
		case 2:
			b := m.pick(rng)
			return geom.Pt(geom.Clamp(b.X+rng.Float64()*2-1, 0, dataset.Domain.MaxX), geom.Clamp(b.Y+rng.Float64()*2-1, 0, dataset.Domain.MaxY))
		case 3:
			return geom.Pt(rng.Float64()*150, rng.Float64()*150)
		}
		return uniformDraw(rng, m)
	}
}

// twinDraw puts points within Eps of live ones, as the near-twin families
// do, or on live and opposite points exactly.
func twinDraw(other []geom.Point) func(*rand.Rand, *model) geom.Point {
	offsets := []float64{0, math.Nextafter(5000, 6000) - 5000, 0x1p-600, 1e-9, 3e-8, 4e-8, -1e-9, -4e-8}
	return func(rng *rand.Rand, m *model) geom.Point {
		switch rng.Intn(4) {
		case 0:
			return m.pick(rng)
		case 1:
			return other[rng.Intn(len(other))]
		case 2:
			b := m.pick(rng)
			return geom.Pt(geom.Clamp(b.X+offsets[rng.Intn(len(offsets))], 0, dataset.Domain.MaxX),
				geom.Clamp(b.Y+offsets[rng.Intn(len(offsets))], 0, dataset.Domain.MaxY))
		}
		return uniformDraw(rng, m)
	}
}

// latticeDraw stays on a 20×20 lattice of spacing 10 at (5000, 5000) and
// its half-shifted copy, where nearly every quadruple is cocircular.
func latticeDraw(rng *rand.Rand, _ *model) geom.Point {
	x, y := 5000+10*float64(rng.Intn(22)-1), 5000+10*float64(rng.Intn(22)-1)
	if rng.Intn(3) == 0 {
		x, y = x+5, y+5
	}
	return geom.Pt(x, y)
}

func smallLattice() []geom.Point {
	var pts []geom.Point
	for i := range 400 {
		pts = append(pts, geom.Pt(5000+10*float64(i%20), 5000+10*float64(i/20)))
	}
	return pts
}

func deriveFamilies() []deriveFamily {
	fams := []deriveFamily{{
		name: "mutate-live", base: dataset.Uniform(1500, 41), other: dataset.Uniform(1500, 42),
		draw: uniformDraw, versions: 60, ins: 8, mov: 4, del: 4,
	}, {
		name: "lattice", base: smallLattice(), other: dataset.Uniform(300, 43),
		draw: latticeDraw, versions: 50, ins: 4, mov: 3, del: 3,
	}}
	for seed := int64(1); seed <= check.NumSeeds; seed++ {
		ps := check.Generate(seed)
		if len(ps.P) == 0 || len(ps.Q) == 0 {
			continue
		}
		fams = append(fams, deriveFamily{
			name: fmt.Sprintf("seed %d", seed), base: ps.P, other: ps.Q,
			draw: degenerateDraw(ps.Q), versions: 6, ins: 2, mov: 1, del: 1,
		})
	}
	for _, j := range grid.TwinJoins() {
		fams = append(fams, deriveFamily{
			name: j.Name, base: j.P, other: j.Q,
			draw: twinDraw(j.Q), versions: 12, ins: 4, mov: 2, del: 2,
		})
	}
	return fams
}

// requireSameGraph holds a derived graph to a fresh build of the same
// points: the same vertex order and positions bit for bit, the same IDs
// per vertex, the same neighbour lists except where an edge of one is a
// diagonal of an exactly cocircular quadruple there, the same rings and
// stored cells wherever a vertex's whole cluster has the same neighbours,
// and the same join with partner.
func requireSameGraph(t *testing.T, name string, got, want, partner *grid.Graph) {
	t.Helper()
	n := want.Real()
	if got.Real() != n {
		t.Fatalf("%s: %d vertices, a rebuild has %d", name, got.Real(), n)
	}
	agree := make([]bool, n)
	for v := range n {
		if g, w := got.Vertex(v), want.Vertex(v); !sameBits([]geom.Point{g}, []geom.Point{w}) {
			t.Fatalf("%s: vertex %d at %v, a rebuild has %v", name, v, g, w)
		}
		if g, w := got.IDs(v), want.IDs(v); !slices.Equal(g, w) {
			t.Fatalf("%s: vertex %d reports IDs %v, a rebuild %v", name, v, g, w)
		}
		gn, wn := got.Neighbors(v), want.Neighbors(v)
		if agree[v] = slices.Equal(gn, wn); agree[v] {
			continue
		}
		requireDiagonals(t, name, got, v, gn, wn)
		requireDiagonals(t, name, want, v, wn, gn)
		if len(gn) == len(wn) && !slices.ContainsFunc(gn, func(u int32) bool { return !slices.Contains(wn, u) }) {
			t.Fatalf("%s: vertex %d lists neighbours %v, a rebuild the same set as %v", name, v, gn, wn)
		}
	}
	for v := range n {
		same := true
		for u := v; ; {
			same = same && agree[u] && got.Ring(u) == want.Ring(u)
			if u = want.Ring(u); u == v || !same {
				break
			}
		}
		if !same {
			continue
		}
		gc, gb := got.StoredCell(v)
		wc, wb := want.StoredCell(v)
		if !sameBits(gc.V, wc.V) || gb != wb {
			t.Fatalf("%s: vertex %d stores cell %v with MBR %v, a rebuild %v with MBR %v", name, v, gc.V, gb, wc.V, wb)
		}
	}
	requireSamePairSet(t, name, grid.JoinGraphs(got, partner, grid.DefaultOptions()).Pairs, grid.JoinGraphs(want, partner, grid.DefaultOptions()).Pairs)
}

// requireDiagonals checks that every neighbour of v in have that is not
// in other is a diagonal of an exactly cocircular quadruple in g.
func requireDiagonals(t *testing.T, name string, g *grid.Graph, v int, have, other []int32) {
	t.Helper()
	for _, w := range have {
		if slices.Contains(other, w) {
			continue
		}
		a, b := g.Opposite(v, int(w))
		if a < 0 || grid.IncircleExact(g.Vertex(v), g.Vertex(int(w)), g.Vertex(a), g.Vertex(b)) != 0 {
			t.Fatalf("%s: edge %d–%d is in one graph only and is no cocircular diagonal", name, v, w)
		}
	}
}

// requireSamePairSet compares two joins as sets.
func requireSamePairSet(t *testing.T, name string, got, want []core.Pair) {
	t.Helper()
	got, want = slices.Clone(got), slices.Clone(want)
	core.SortPairs(got)
	core.SortPairs(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d pairs, want %d: missing %v, extra %v",
			name, len(got), len(want), core.DiffPairs(want, got), core.DiffPairs(got, want))
	}
}

// TestDeriveMatchesRebuild derives every family's graph across its
// versions, each from the previous derived one, and holds each to a
// fresh NewGraph of the same live points. Derive must derive every one.
func TestDeriveMatchesRebuild(t *testing.T) {
	for i, f := range deriveFamilies() {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		m := newModel(f.base)
		partner := grid.NewGraph(f.other, nil, dataset.Domain)
		pts, ids := m.join()
		g := grid.NewGraph(pts, ids, dataset.Domain)
		for version := 2; version <= f.versions+1; version++ {
			m.mutate(rng, f.ins, f.mov, f.del, func() geom.Point { return f.draw(rng, m) })
			pts, ids := m.join()
			next := grid.Derive(g, pts, ids)
			if next == nil {
				t.Fatalf("%s v%d: no derivation", f.name, version)
			}
			requireSameGraph(t, fmt.Sprintf("%s v%d", f.name, version), next, grid.NewGraph(pts, ids, dataset.Domain), partner)
			g = next
		}
	}
}

// wheel returns a hub at (5000, 5000) and n points on a circle of radius
// 100 around it, every one of them a Delaunay neighbour of the hub.
func wheel(n int) []geom.Point {
	pts := []geom.Point{geom.Pt(5000, 5000)}
	for k := range n {
		a := 2 * math.Pi * float64(k) / float64(n)
		pts = append(pts, geom.Pt(5000+100*math.Cos(a), 5000+100*math.Sin(a)))
	}
	return pts
}

// TestDeriveDeclinesWideStar: removing a wheel's hub re-triangulates a
// star of 80 corners, more than Derive edits, so it returns nil; removing
// a rim point derives.
func TestDeriveDeclinesWideStar(t *testing.T) {
	pts := wheel(80)
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	g := grid.NewGraph(pts, nil, dataset.Domain)
	if got := grid.Derive(g, pts[1:], ids[1:]); got != nil {
		t.Fatal("Derive removed the hub of an 80-point wheel, want nil")
	}
	if got := grid.Derive(g, pts[:80], ids[:80]); got == nil {
		t.Fatal("Derive declined to remove a rim point")
	}
}

// TestChurnTwinMixes holds the graph churn on the near-twin mixes to the
// diff of brute-force joins (core.BruteCIJ) of the two versions. The
// batches put points on and within 4e-8 of live and opposite points, so
// P and Q cells meet along bisectors of near-twins.
func TestChurnTwinMixes(t *testing.T) {
	twinChurn(t, 1, func(m *model, q []geom.Point, _ *grid.Graph, left bool) []core.Pair {
		pts, ids := m.join()
		if left {
			pairs := core.BruteCIJ(pts, q, dataset.Domain)
			for k := range pairs {
				pairs[k].P = idOf(ids, pairs[k].P)
			}
			return pairs
		}
		pairs := core.BruteCIJ(q, pts, dataset.Domain)
		for k := range pairs {
			pairs[k].Q = idOf(ids, pairs[k].Q)
		}
		return pairs
	})
}

// TestChurnMatchesGridJoins holds the graph churn on the near-twin mixes,
// over 3 batch sequences per mix, to the diff of grid joins of fresh
// graphs of the two versions: what a subscriber whose baseline is a grid
// join must see. It needs no brute force, so it covers more batches.
func TestChurnMatchesGridJoins(t *testing.T) {
	twinChurn(t, 3, func(m *model, _ []geom.Point, other *grid.Graph, left bool) []core.Pair {
		pts, ids := m.join()
		g := grid.NewGraph(pts, ids, dataset.Domain)
		if left {
			return grid.JoinGraphs(g, other, grid.DefaultOptions()).Pairs
		}
		return grid.JoinGraphs(other, g, grid.DefaultOptions()).Pairs
	})
}

// twinChurn runs the graph churn over derived versions of the near-twin
// mixes, trimmed to their last 70 points (the twin family and about 60
// uniform ones): per mix, seqs sequences of 8 batches, each batch derived
// from the previous version's graph. It holds every batch, in both
// operand orientations, to the difference of join before and after it,
// and fails a batch whose churn diffed two whole joins instead of the
// derivation's record.
func twinChurn(t *testing.T, seqs int, join func(m *model, q []geom.Point, other *grid.Graph, left bool) []core.Pair) {
	for seq := range seqs {
		for i, j := range grid.TwinJoins() {
			p, q := j.P[len(j.P)-70:], j.Q[len(j.Q)-70:]
			rng := rand.New(rand.NewSource(int64(i) + 100 + 1000*int64(seq)))
			m := newModel(p)
			draw := twinDraw(q)
			other := grid.NewGraph(q, nil, dataset.Domain)
			pts, ids := m.join()
			g := grid.NewGraph(pts, ids, dataset.Domain)
			before := [2][]core.Pair{join(m, q, other, true), join(m, q, other, false)}
			for version := 2; version <= 9; version++ {
				m.mutate(rng, 3, 2, 2, func() geom.Point { return draw(rng, m) })
				pts, ids := m.join()
				next := grid.Derive(g, pts, ids)
				if next == nil {
					t.Fatalf("%s v%d: no derivation", j.Name, version)
				}
				for side, left := range []bool{true, false} {
					after := join(m, q, other, left)
					got := grid.Churn(g, next, other, left)
					wantAdd, wantRem := pairDiff(before[side], after)
					name := fmt.Sprintf("%s sequence %d v%d left=%v", j.Name, seq, version, left)
					if got.Whole {
						t.Fatalf("%s: churned two whole joins, not the derivation's record", name)
					}
					requireSamePairSet(t, name+" added", got.Added, wantAdd)
					requireSamePairSet(t, name+" removed", got.Removed, wantRem)
					before[side] = after
				}
				g = next
			}
		}
	}
}

// idOf maps a brute-force join's position ID to the point's ID.
func idOf(ids []int64, i int64) int64 {
	if ids == nil {
		return i
	}
	return ids[i]
}

// pairDiff returns the pairs only after has and only before has.
func pairDiff(before, after []core.Pair) (added, removed []core.Pair) {
	in := func(ps []core.Pair) map[core.Pair]bool {
		m := make(map[core.Pair]bool, len(ps))
		for _, p := range ps {
			m[p] = true
		}
		return m
	}
	b, a := in(before), in(after)
	for _, p := range after {
		if !b[p] {
			added = append(added, p)
		}
	}
	for _, p := range before {
		if !a[p] {
			removed = append(removed, p)
		}
	}
	return added, removed
}

// decodeLattice turns fuzz bytes into points on a 16×16 lattice of
// spacing 10 at (5000, 5000): one byte picks the node, the next an offset
// per axis (mostly none, else an ulp, 1e-9, 4e-8 or half a spacing), so
// duplicates, collinear runs, cocircular quadruples and near-twins are
// the norm. It returns the points and the bytes left over.
func decodeLattice(data []byte, n int) ([]geom.Point, []byte) {
	offsets := [8]float64{0, 0, 0, 0, math.Nextafter(5000, 6000) - 5000, 1e-9, 4e-8, 5}
	var pts []geom.Point
	for ; n > 0 && len(data) >= 2; n-- {
		node, off := data[0], data[1]
		pts = append(pts, geom.Pt(5000+10*float64(node&15)+offsets[off&7], 5000+10*float64(node>>4)+offsets[off>>3&7]))
		data = data[2:]
	}
	return pts, data
}

// FuzzDeriveGraph derives graphs across two batches of inserts, deletes
// and moves on a coarse lattice with near-twin offsets, and holds each
// derived graph to a fresh NewGraph of the same live points as
// TestDeriveMatchesRebuild does, and its churn from its parent, in both
// operand orientations, to the diff of JoinGraphs over the two graphs; a
// derivation must never panic. The
// first byte sizes the starting set (1 to 32 points), then two bytes
// make each point, and the rest are batch operations of three bytes: the
// kind (insert, delete or move), which live point, and, for inserts and
// moves, a lattice point as above. Every go test replays the seeds below
// and testdata/fuzz/FuzzDeriveGraph.
func FuzzDeriveGraph(f *testing.F) {
	f.Add([]byte{4, 0x00, 0, 0x01, 0, 0x10, 0, 0x11, 0, 1, 0, 0x22, 0}) // a square loses a corner to a far point
	f.Add([]byte{9, 0x00, 0, 0x01, 0, 0x02, 0, 0x10, 0, 0x11, 0, 0x12, 0, 0x20, 0, 0x21, 0, 0x22, 0, 1, 4, 0x11, 0, 2, 0x11, 0x09})
	f.Add([]byte{6, 0x33, 0, 0x33, 0x04, 0x33, 0x20, 0x34, 0, 0x43, 0, 0x44, 0x3f, 0, 0, 0x33, 1, 1, 0, 2, 2, 0x33, 0x05})
	f.Add([]byte{3, 0x00, 0, 0x0f, 0, 0xf0, 0, 0, 1, 0xff, 0, 2, 0x88, 1, 0, 0x08, 2, 0, 0x80})
	partner := grid.NewGraph(dataset.Uniform(40, 61), nil, dataset.Domain)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		base, ops := decodeLattice(data[1:], 1+int(data[0]%32))
		if len(base) == 0 {
			return
		}
		m := newModel(base)
		pts, ids := m.join()
		g := grid.NewGraph(pts, ids, dataset.Domain)
		for batch, half := range [2][]byte{ops[:len(ops)/2], ops[len(ops)/2:]} {
			for ; len(half) >= 3; half = half[3:] {
				var live []int
				for i, ok := range m.alive {
					if ok {
						live = append(live, i)
					}
				}
				id := live[int(half[1])%len(live)]
				p, _ := decodeLattice([]byte{half[2], half[1]}, 1)
				switch half[0] % 3 {
				case 0:
					m.pts, m.alive = append(m.pts, p[0]), append(m.alive, true)
				case 1:
					if len(live) > 1 {
						m.alive[id], m.deleted = false, true
					}
				case 2:
					m.pts[id] = p[0]
				}
			}
			pts, ids := m.join()
			fresh := grid.NewGraph(pts, ids, dataset.Domain)
			next := grid.Derive(g, pts, ids)
			if next == nil {
				// Only a removed vertex's star of more than 64 corners
				// declines; the chain goes on from a build.
				g = fresh
				continue
			}
			name := fmt.Sprintf("batch %d", batch)
			requireSameGraph(t, name, next, fresh, partner)
			requireChurn(t, name, g, next, partner)
			g = next
		}
	})
}

// requireChurn holds the churn from parent to its derived graph next, in
// both operand orientations, to the diff of JoinGraphs over the two
// graphs with partner, and fails it if it diffed two whole joins.
func requireChurn(t *testing.T, name string, parent, next, partner *grid.Graph) {
	t.Helper()
	for _, left := range []bool{true, false} {
		join := func(g *grid.Graph) []core.Pair {
			if left {
				return grid.JoinGraphs(g, partner, grid.DefaultOptions()).Pairs
			}
			return grid.JoinGraphs(partner, g, grid.DefaultOptions()).Pairs
		}
		got := grid.Churn(parent, next, partner, left)
		name := fmt.Sprintf("%s left=%v", name, left)
		if got.Whole {
			t.Fatalf("%s: churned two whole joins, not the derivation's record", name)
		}
		wantAdd, wantRem := pairDiff(join(parent), join(next))
		requireSamePairSet(t, name+" added", got.Added, wantAdd)
		requireSamePairSet(t, name+" removed", got.Removed, wantRem)
	}
}
