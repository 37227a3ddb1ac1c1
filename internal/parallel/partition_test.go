package parallel_test

import (
	"testing"

	"cij/internal/dataset"
	"cij/internal/parallel"
	"cij/internal/rtree"
	"cij/internal/voronoi"
)

// leafSequence is the reference: the Q-leaf batches in Hilbert order.
func leafSequence(rq *rtree.Tree) [][]voronoi.Site {
	var batches [][]voronoi.Site
	rq.VisitLeavesHilbert(dataset.Domain, func(leaf *rtree.Node) {
		batches = append(batches, voronoi.SitesOfLeaf(leaf))
	})
	return batches
}

// checkCover verifies the partition invariants: units concatenate back to
// the exact Hilbert leaf sequence (contiguous, disjoint, complete, in
// order), unit count respects the cap, and Points totals are consistent.
func checkCover(t *testing.T, units []parallel.Unit, want [][]voronoi.Site, maxUnits int) {
	t.Helper()
	if len(units) > maxUnits {
		t.Fatalf("%d units exceeds cap %d", len(units), maxUnits)
	}
	var got [][]voronoi.Site
	for i, u := range units {
		if u.Index != i {
			t.Errorf("unit %d has Index %d", i, u.Index)
		}
		if len(u.Batches) == 0 {
			t.Errorf("unit %d is empty", i)
		}
		points := 0
		for _, b := range u.Batches {
			points += len(b)
		}
		if points != u.Points {
			t.Errorf("unit %d: Points=%d but batches hold %d", i, u.Points, points)
		}
		got = append(got, u.Batches...)
	}
	if len(got) != len(want) {
		t.Fatalf("units cover %d batches, tree has %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("batch %d has %d sites, want %d (order broken?)", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j].ID != want[i][j].ID {
				t.Fatalf("batch %d site %d: ID %d, want %d", i, j, got[i][j].ID, want[i][j].ID)
			}
		}
	}
}

func TestPartitionCoversLeaves(t *testing.T) {
	for _, maxUnits := range []int{1, 2, 3, 7, 16, 1000} {
		_, rq := buildTrees(t, dataset.Uniform(50, 71), dataset.Clustered(800, 6, 72), 16)
		want := leafSequence(rq)
		units := parallel.PartitionLeaves(rq, dataset.Domain, maxUnits)
		checkCover(t, units, want, maxUnits)
	}
}

func TestPartitionEmptyTree(t *testing.T) {
	_, rq := buildTrees(t, dataset.Uniform(50, 73), nil, 8)
	if units := parallel.PartitionLeaves(rq, dataset.Domain, 4); len(units) != 0 {
		t.Fatalf("empty tree produced %d units", len(units))
	}
}
