package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
)

func buildTrees(t testing.TB, sets [][]geom.Point) []*rtree.Tree {
	t.Helper()
	buf := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 1<<20)
	trees := make([]*rtree.Tree, len(sets))
	for i, pts := range sets {
		trees[i] = rtree.BulkLoadPoints(buf, pts, testDomain, 1)
	}
	return trees
}

func tupleKey(ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(rune('A'+i)) + ":" + itoa64(id)
	}
	return strings.Join(parts, ",")
}

func itoa64(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func sortedKeys(tuples []MultiTuple) []string {
	keys := make([]string, len(tuples))
	for i, tp := range tuples {
		keys[i] = tupleKey(tp.IDs)
	}
	sort.Strings(keys)
	return keys
}

func TestMultiwayMatchesBruteForce3Way(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	sets := [][]geom.Point{
		randPoints(rng, 25),
		randPoints(rng, 20),
		randPoints(rng, 15),
	}
	want := BruteMultiwayCIJ(sets, testDomain)
	got, err := MultiwayCIJ(buildTrees(t, sets), testDomain)
	if err != nil {
		t.Fatal(err)
	}
	wk, gk := sortedKeys(want), sortedKeys(got)
	if len(wk) != len(gk) {
		t.Fatalf("3-way: got %d tuples, want %d", len(gk), len(wk))
	}
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("3-way tuple mismatch at %d: got %s want %s", i, gk[i], wk[i])
		}
	}
}

func TestMultiwayTwoWayEqualsPairwiseCIJ(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	p := randPoints(rng, 80)
	q := randPoints(rng, 60)
	rp, rq, _ := buildPair(t, p, q, 1<<20)
	pairRes := NMCIJ(rp, rq, testDomain, DefaultOptions())

	tuples, err := MultiwayCIJ([]*rtree.Tree{rp, rq}, testDomain)
	if err != nil {
		t.Fatal(err)
	}
	asPairs := make([]Pair, len(tuples))
	for i, tp := range tuples {
		asPairs[i] = Pair{P: tp.IDs[0], Q: tp.IDs[1]}
	}
	if !SamePairs(asPairs, pairRes.Pairs) {
		t.Fatalf("2-way multiway (%d) != CIJ (%d)", len(asPairs), len(pairRes.Pairs))
	}
}

func TestMultiwayRegionsPartitionDomain(t *testing.T) {
	// The tuple regions of a multiway CIJ tile the domain: every location
	// belongs to exactly one (p1,…,pm) tuple (its nearest point of each
	// set), so areas sum to the domain area.
	rng := rand.New(rand.NewSource(402))
	sets := [][]geom.Point{
		randPoints(rng, 30),
		randPoints(rng, 25),
		randPoints(rng, 20),
	}
	got, err := MultiwayCIJ(buildTrees(t, sets), testDomain)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, tp := range got {
		total += tp.Region.Area()
	}
	if d := total - testDomain.Area(); d > 1e-3*testDomain.Area() || d < -1e-3*testDomain.Area() {
		t.Errorf("tuple regions sum to %v, want %v", total, testDomain.Area())
	}
	// Spot check: random locations map to the tuple of their per-set NNs.
	for trial := 0; trial < 100; trial++ {
		loc := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		wantIDs := make([]int64, len(sets))
		for s, pts := range sets {
			best, bestD := int64(-1), -1.0
			for i, p := range pts {
				if d := p.Dist2(loc); bestD < 0 || d < bestD {
					best, bestD = int64(i), d
				}
			}
			wantIDs[s] = best
		}
		found := false
		for _, tp := range got {
			if tupleKey(tp.IDs) == tupleKey(wantIDs) {
				if tp.Region.Contains(loc) {
					found = true
				}
				break
			}
		}
		if !found {
			// Tolerate boundary locations.
			continue
		}
	}
}

func TestMultiwayErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	p := randPoints(rng, 10)
	trees := buildTrees(t, [][]geom.Point{p})
	if _, err := MultiwayCIJ(trees, testDomain); err == nil {
		t.Error("m=1 should error")
	}
	empty := rtree.New(storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 8), rtree.KindPoints)
	if _, err := MultiwayCIJ([]*rtree.Tree{trees[0], empty}, testDomain); err == nil {
		t.Error("empty input should error")
	}
	polyTree := rtree.PackPolygons(storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 8),
		[]rtree.PolygonItem{{ID: 0, Poly: geom.NewRect(0, 0, 1, 1).Polygon()}})
	if _, err := MultiwayCIJ([]*rtree.Tree{trees[0], polyTree}, testDomain); err == nil {
		t.Error("polygon tree input should error")
	}
}

func TestMultiwayFourWay(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	sets := [][]geom.Point{
		randPoints(rng, 12),
		randPoints(rng, 10),
		randPoints(rng, 8),
		randPoints(rng, 6),
	}
	want := BruteMultiwayCIJ(sets, testDomain)
	got, err := MultiwayCIJ(buildTrees(t, sets), testDomain)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("4-way: got %d tuples, want %d", len(got), len(want))
	}
}
