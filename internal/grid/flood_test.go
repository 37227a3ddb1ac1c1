package grid_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cij/internal/check"
	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/grid"
)

// TestParallelFloodMatchesSerial runs the flood on 1, 2, 3 and 8 workers
// with 1-, 7- and 64-vertex units, whatever the host's core count, over
// the equivalence suite's seeds, the lattice against its half-shifted
// copy, the near-twin families and a clustered ⋈ uniform pair. Every run
// must give the 1-worker flood's pair set and filter counters, in its P
// order, and OnPair must see exactly Result.Pairs, in order.
func TestParallelFloodMatchesSerial(t *testing.T) {
	var joins []grid.NamedJoin
	for seed := int64(1); seed <= check.NumSeeds; seed++ {
		ps := check.Generate(seed)
		joins = append(joins, grid.NamedJoin{Name: fmt.Sprintf("seed %d", seed), P: ps.P, Q: ps.Q})
	}
	joins = append(joins, grid.TwinJoins()...)
	joins = append(joins,
		grid.NamedJoin{Name: "lattice x shifted", P: grid.Lattice(5000, 5000), Q: grid.Lattice(5000.05, 5000.05)},
		grid.NamedJoin{Name: "clustered x uniform", P: dataset.Clustered(3000, 6, 91), Q: dataset.Uniform(2000, 92)})
	for _, j := range joins {
		gp, gq := grid.NewGraph(j.P, nil, dataset.Domain), grid.NewGraph(j.Q, nil, dataset.Domain)
		want := grid.JoinGraphsWith(gp, gq, grid.DefaultOptions(), 1, 0)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, size := range []int{1, 7, 64} {
				name := fmt.Sprintf("%s, %d workers, %d-vertex units", j.Name, workers, size)
				var streamed []core.Pair
				opts := grid.DefaultOptions()
				opts.OnPair = func(pr core.Pair) { streamed = append(streamed, pr) }
				got := grid.JoinGraphsWith(gp, gq, opts, workers, size)
				if !core.SamePairs(got.Pairs, want.Pairs) {
					t.Fatalf("%s: %d pairs, want %d\nmissing=%v\nextra=%v", name, len(got.Pairs), len(want.Pairs),
						core.DiffPairs(want.Pairs, got.Pairs), core.DiffPairs(got.Pairs, want.Pairs))
				}
				g, w := got.Stats, want.Stats
				if g.PCellsComputed != w.PCellsComputed || g.Candidates != w.Candidates || g.TrueHits != w.TrueHits {
					t.Fatalf("%s: p-cells/candidates/true hits %d/%d/%d, want %d/%d/%d", name,
						g.PCellsComputed, g.Candidates, g.TrueHits, w.PCellsComputed, w.Candidates, w.TrueHits)
				}
				if !slices.Equal(streamed, got.Pairs) {
					t.Fatalf("%s: OnPair saw %d pairs, not Result.Pairs' %d in order", name, len(streamed), len(got.Pairs))
				}
				if !slices.Equal(sites(j.P, got.Pairs), sites(j.P, want.Pairs)) {
					t.Fatalf("%s: pairs are not in the 1-worker flood's P order", name)
				}
			}
		}
	}
}

// sites returns the P site of each pair in order, with each run of one
// site collapsed: the order in which the flood finished P's cells. (Within
// a cell the order of its Q partners depends on where the walk started.)
func sites(p []geom.Point, pairs []core.Pair) []geom.Point {
	var out []geom.Point
	for _, pr := range pairs {
		if s := p[pr.P]; len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// TestStoredCells holds a one-worker build's cell table to the cells
// Graph.cell computes: each stored cell bit for bit, and its MBR to the
// cell's Bounds. The table computed on 1, 2, 3 or 8 workers in 1-, 8- or
// 64-vertex chunks must be identical, every chunk's arena exactly full. The inputs
// are both operands of the equivalence suite's seeds and of the near-twin
// families, the lattice and its half-shifted copy, and an empty and a
// one-point set.
func TestStoredCells(t *testing.T) {
	var sets []grid.NamedJoin // each join's P and Q are two inputs
	for seed := int64(1); seed <= check.NumSeeds; seed++ {
		ps := check.Generate(seed)
		sets = append(sets, grid.NamedJoin{Name: fmt.Sprintf("seed %d", seed), P: ps.P, Q: ps.Q})
	}
	sets = append(sets, grid.TwinJoins()...)
	sets = append(sets,
		grid.NamedJoin{Name: "lattice x shifted", P: grid.Lattice(5000, 5000), Q: grid.Lattice(5000.05, 5000.05)},
		grid.NamedJoin{Name: "empty x one point", P: nil, Q: []geom.Point{geom.Pt(1234, 5678)}})
	for _, j := range sets {
		for i, pts := range [][]geom.Point{j.P, j.Q} {
			name := fmt.Sprintf("%s, %c", j.Name, "PQ"[i])
			want := grid.NewGraphWith(pts, nil, dataset.Domain, 1, 0)
			cells, start, bounds, full := want.CellTable()
			if !full {
				t.Fatalf("%s: a chunk's arena is not exactly full", name)
			}
			for v := range len(start) - 1 {
				c := cells[start[v]:start[v+1]]
				if r := want.Cell(v); !sameBits(c, r.V) || bounds[v] != r.Bounds() {
					t.Fatalf("%s: vertex %d stores cell %v with MBR %v, recomputed %v with MBR %v", name, v, c, bounds[v], r.V, r.Bounds())
				}
			}
			for _, workers := range []int{1, 2, 3, 8} {
				for _, size := range []int{1, 8, 64} {
					gc, gs, gb, full := want.CellTableWith(workers, size)
					if !sameBits(gc, cells) || !slices.Equal(gs, start) || !slices.Equal(gb, bounds) || !full {
						t.Fatalf("%s, %d workers, %d-vertex chunks: the cell table differs from the 1-worker build's", name, workers, size)
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same coordinates bit for bit.
func sameBits(a, b []geom.Point) bool {
	return slices.EqualFunc(a, b, func(x, y geom.Point) bool {
		return math.Float64bits(x.X) == math.Float64bits(y.X) && math.Float64bits(x.Y) == math.Float64bits(y.Y)
	})
}
