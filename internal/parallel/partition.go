package parallel

import (
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/voronoi"
)

// Unit is one work unit of the partitioned join: a contiguous run of
// Hilbert-ordered Q-leaf batches. Contiguity matters twice over — the
// leaves of distinct units index disjoint points of Q (no pair can be
// emitted by two units), and consecutive batches are close in space, so
// the worker that processes a unit keeps hitting its Voronoi-cell reuse
// buffer just like the serial algorithm does.
type Unit struct {
	Index   int              // position in the Hilbert order of units
	Batches [][]voronoi.Site // one entry per Q-leaf, in Hilbert order
	Points  int              // total sites across the unit's batches
}

// PartitionLeaves collects the leaves of rq in Hilbert order (one tree
// traversal, charged to rq's own buffer) and cuts the sequence into
// min(maxUnits, leaves) contiguous runs of near-equal leaf count.
func PartitionLeaves(rq *rtree.Tree, domain geom.Rect, maxUnits int) []Unit {
	var batches [][]voronoi.Site
	rq.VisitLeavesHilbert(domain, func(leaf *rtree.Node) {
		batches = append(batches, voronoi.SitesOfLeaf(leaf))
	})
	n := len(batches)
	if n == 0 {
		return nil
	}
	k := min(max(maxUnits, 1), n)
	units := make([]Unit, 0, k)
	for u := 0; u < k; u++ {
		lo, hi := u*n/k, (u+1)*n/k
		units = append(units, makeUnit(u, batches[lo:hi]))
	}
	return units
}

func makeUnit(index int, batches [][]voronoi.Site) Unit {
	points := 0
	for _, b := range batches {
		points += len(b)
	}
	return Unit{Index: index, Batches: batches, Points: points}
}
