package grid

import (
	"cij/internal/core"
	"cij/internal/geom"
)

// minUnit is the fewest vertices a unit holds when the join sizes its own
// units: below ~1,024 vertices a helper goroutine costs more than it saves,
// so small joins stay on the caller. unitsPerWorker units per worker let a
// worker that drew cheap units take more.
const (
	minUnit        = 1024
	unitsPerWorker = 4
)

// unitCount returns how many units cut n vertices: units of size vertices,
// or, for size 0, unitsPerWorker per worker of at least minUnit each.
func unitCount(n, workers, size int) int {
	if size <= 0 {
		size = max(minUnit, (n+unitsPerWorker*workers-1)/(unitsPerWorker*workers))
	}
	return (n + size - 1) / size
}

// unitSpan returns the vertex range [lo, hi) of unit u of k over n
// vertices: contiguous, in Hilbert order, of near-equal length.
func unitSpan(u, k int, n int32) (lo, hi int32) {
	return int32(int64(u) * int64(n) / int64(k)), int32(int64(u+1) * int64(n) / int64(k))
}

// flood joins every P cell with the Q cells it overlaps, flooding P's
// vertices in units on up to workers goroutines (see the package
// comment), and returns what the caller waited for helpers. Pairs reach
// emit on the calling goroutine in P's Hilbert order: the caller's
// directly as it floods, the helpers' buffered per unit.
func flood(tp, tq *Graph, opts Options, res *core.Result, workers, size int) unitWait {
	k := unitCount(int(tp.n), workers, size)
	fw := make([]*flooder, min(workers, k))
	collect := opts.CollectPairs || opts.OnPair != nil
	found := make([][]vertexPair, k) // the joined vertices of each buffered unit
	wait := runUnits(workers, k, func(w, u int, direct bool) {
		if fw[w] == nil {
			fw[w] = newFlooder(tp, tq)
		}
		lo, hi := unitSpan(u, k, tp.n)
		switch {
		case !collect:
			fw[w].flood(lo, hi, nil)
		case direct:
			fw[w].flood(lo, hi, func(v, q int32) { emit(tp, tq, v, q, opts, res) })
		default:
			var buf []vertexPair
			fw[w].flood(lo, hi, func(v, q int32) { buf = append(buf, vertexPair{v, q}) })
			found[u] = buf
		}
	}, func(u int) {
		for _, vp := range found[u] {
			emit(tp, tq, vp.p, vp.q, opts, res)
		}
		found[u] = nil
	})
	for _, f := range fw {
		if f != nil {
			res.Stats.PCellsComputed += f.pCells
			res.Stats.Candidates += f.candidates
			res.Stats.TrueHits += f.trueHits
		}
	}
	return wait
}

// vertexPair is a joined P vertex and Q vertex.
type vertexPair struct{ p, q int32 }

// flooder is one worker's private flood state. Its stamps and queue span
// Q's vertices; no other worker reads or writes any of it.
type flooder struct {
	tp, tq *Graph
	// stamp and ringed hold the key of the flood that last queued a Q
	// vertex and passed its ring (nil when Q has no near-twins). A join
	// keys each flood by its P vertex + 1, and P vertices are distinct
	// across units, so they are never reset.
	stamp, ringed                []int32
	queue, joined                []int32
	cj                           geom.Clipper
	near                         int32 // where the next nearest-site walk starts
	pCells, candidates, trueHits int64
	_                            [64]byte // keeps the counters off the next worker's cache line
}

func newFlooder(tp, tq *Graph) *flooder {
	f := &flooder{tp: tp, tq: tq, stamp: make([]int32, tq.n)}
	if tq.twins {
		f.ringed = make([]int32, tq.n)
	}
	return f
}

func (f *flooder) push(w, key int32) {
	if f.stamp[w] != key {
		f.stamp[w] = key
		f.queue = append(f.queue, w)
	}
}

// flood joins P vertices [lo, hi) in Hilbert order and calls hit, when
// non-nil, for every joined pair of vertices: each P cell is read from
// P's table and flooded over Q's graph.
func (f *flooder) flood(lo, hi int32, hit func(v, u int32)) {
	tp := f.tp
	for v := lo; v < hi; v++ {
		pc := tp.storedCell(v)
		f.pCells++
		if pc.IsEmpty() {
			continue
		}
		for _, u := range f.cell(pc, tp.bounds[v], tp.siteTarget(v, pc), v+1, false) {
			if hit != nil {
				hit(v, u)
			}
		}
	}
}

// siteTarget returns where the nearest-site walk for real vertex v's
// non-empty cell c heads: the site, which lies in its own cell unless it
// is outside the domain, and then any vertex of the clipped cell.
func (g *Graph) siteTarget(v int32, c geom.Polygon) geom.Point {
	if g.domain.Contains(g.verts[v]) {
		return g.verts[v]
	}
	return c.V[0]
}

// cell returns the Q vertices whose cells join the non-empty cell c (MBR
// b), in the order the flood finds them, in a slice the next call reuses.
// It walks greedily on Q's graph from the previous walk's end to the Q
// vertex nearest target, a point of c, and floods breadth-first from
// there: a Q cell whose stored MBR misses b is skipped, any other is
// tested and its neighbours and near-twins queued whether or not it joined
// (the package comment says why this reaches every overlapping cell). key
// must differ from every earlier call's. The predicate takes c as the P
// cell, or as the Q cell when cIsQ is set, so a cell of either operand
// gets the verdict a join of the two graphs gives it.
func (f *flooder) cell(c geom.Polygon, b geom.Rect, target geom.Point, key int32, cIsQ bool) []int32 {
	tq := f.tq
	f.near = tq.nearest(f.near, target)
	f.joined = f.joined[:0]
	f.queue = f.queue[:0]
	f.push(f.near, key)
	for h := 0; h < len(f.queue); h++ {
		u := f.queue[h]
		if !b.Intersects(tq.bounds[u]) {
			continue
		}
		f.candidates++
		p, q := c, tq.storedCell(u)
		if cIsQ {
			p, q = q, p
		}
		if core.CellsJoinWith(&f.cj, p, q) {
			f.trueHits++
			f.joined = append(f.joined, u)
		}
		for _, w := range tq.neighbors(u) {
			f.push(w, key)
		}
		for w := tq.ring[u]; w != u && f.ringed[u] != key; w = tq.ring[w] {
			f.ringed[w] = key // the first of a cluster to pass queues the rest
			f.push(w, key)
		}
	}
	return f.joined
}

// emit reports the joined cells of P vertex v and Q vertex u as one pair
// per merged input point on each side, under the points' IDs.
func emit(tp, tq *Graph, v, u int32, opts Options, res *core.Result) {
	for _, a := range tp.membersOf(v) {
		for _, b := range tq.membersOf(u) {
			pair := core.Pair{P: tp.id(a), Q: tq.id(b)}
			if opts.CollectPairs {
				res.Pairs = append(res.Pairs, pair)
			}
			if opts.OnPair != nil {
				opts.OnPair(pair)
			}
		}
	}
}
