package grid

import (
	"cmp"
	"slices"
	"weak"

	"cij/internal/core"
)

// ChurnResult is the pair churn of one mutation: the pairs that join after
// it but not before (Added) and before but not after (Removed), both
// sorted, and the work that found them.
type ChurnResult struct {
	Added, Removed []core.Pair
	// Affected counts the mutated side's distinct IDs whose partners were
	// diffed: the members of the vertices the derivation recorded in
	// either version, the moved, inserted and deleted ones included, or
	// every ID of either version when Whole.
	Affected int
	// Candidates counts predicate tests against the opposite side's cells
	// and TrueHits the tests that joined.
	Candidates, TrueHits int64
	// Whole reports that cur was not derived from old, so the churn is
	// the diff of two whole joins rather than of the recorded vertices.
	Whole bool
}

// Churn maintains a join across one mutation of one operand: it returns
// how CIJ(old, other) becomes CIJ(cur, other), or, when mutatedLeft is
// false, how CIJ(other, old) becomes CIJ(other, cur), as the pair-set
// difference of joins of these graphs. old, cur and other must share one
// domain. It writes to no graph.
//
// When cur was derived from old (Derive), its record lists the vertices
// of either version that do not carry over unchanged (see derivation);
// every other vertex has the same cell, MBR and IDs in both, so its pairs
// are the same in both joins. Churn then finds only the listed vertices'
// partners, by a one-cell flood of each one's stored cell over other's
// (the join's walk, filter and predicate), and diffs them. Otherwise,
// when cur was built, or derived from another graph, it diffs
// JoinGraphs of old and of cur with other, and sets Whole.
func Churn(old, cur, other *Graph, mutatedLeft bool) ChurnResult {
	if old.domain != other.domain || cur.domain != other.domain {
		panic("grid: Churn over graphs of different domains")
	}
	var res ChurnResult
	var pairs [2][]core.Pair // before and after
	var ids []int64
	graphs := [2]*Graph{old, cur}
	if d := cur.derived; d.parent == weak.Make(old) {
		f := newFlooder(nil, other)
		key := int32(0)
		for side, vs := range [2][]int32{d.old, d.cur} {
			g := graphs[side]
			for _, v := range vs {
				for _, a := range g.membersOf(v) {
					ids = append(ids, g.id(a))
				}
				cell := g.storedCell(v)
				if cell.IsEmpty() {
					continue
				}
				key++
				for _, u := range f.cell(cell, g.bounds[v], g.siteTarget(v, cell), key, !mutatedLeft) {
					for _, a := range g.membersOf(v) {
						for _, b := range other.membersOf(u) {
							pr := core.Pair{P: g.id(a), Q: other.id(b)}
							if !mutatedLeft {
								pr = core.Pair{P: other.id(b), Q: g.id(a)}
							}
							pairs[side] = append(pairs[side], pr)
						}
					}
				}
			}
		}
		res.Candidates, res.TrueHits = f.candidates, f.trueHits
	} else {
		res.Whole = true
		for side, g := range graphs {
			p, q := g, other
			if !mutatedLeft {
				p, q = other, g
			}
			join := JoinGraphs(p, q, DefaultOptions())
			pairs[side] = join.Pairs
			res.Candidates += join.Stats.Candidates
			res.TrueHits += join.Stats.TrueHits
			for i := range g.members {
				ids = append(ids, g.id(int32(i)))
			}
		}
	}
	slices.Sort(ids)
	res.Affected = len(slices.Compact(ids))
	res.Added, res.Removed = diffSorted(pairs[0], pairs[1])
	return res
}

// diffSorted sorts both pair lists and returns the pairs only after has
// (added) and only before has (removed), each sorted.
func diffSorted(before, after []core.Pair) (added, removed []core.Pair) {
	byPair := func(a, b core.Pair) int { return cmp.Or(cmp.Compare(a.P, b.P), cmp.Compare(a.Q, b.Q)) }
	slices.SortFunc(before, byPair)
	slices.SortFunc(after, byPair)
	i, j := 0, 0
	for i < len(before) || j < len(after) {
		switch {
		case j == len(after) || i < len(before) && pairLess(before[i], after[j]):
			removed = append(removed, before[i])
			i++
		case i == len(before) || pairLess(after[j], before[i]):
			added = append(added, after[j])
			j++
		default:
			i++
			j++
		}
	}
	return added, removed
}

func pairLess(a, b core.Pair) bool { return a.P < b.P || a.P == b.P && a.Q < b.Q }
