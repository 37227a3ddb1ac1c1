// Grouped nearest neighbors (Section I, third application): the set L of
// houses is much larger than the sets P (hospitals) and Q (parks). A
// GROUP-BY analyst wants, for each hospital-park pair, the number of
// houses whose nearest hospital and nearest park are exactly that pair.
//
// Doing this with two All-NN joins of L against P and Q costs two
// traversals of the big dataset plus a grouping pass. The CIJ route is
// cheaper: CIJ(P,Q) yields exactly the pairs that CAN have a nonempty
// group (a house in R(p,q) has p and q as its nearest), so we only
// allocate houses to CIJ regions. This program runs both routes and checks
// they agree.
//
//	go run ./examples/groupnn
package main

import (
	"fmt"
	"sort"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
	"cij/internal/voronoi"
)

func main() {
	houses := dataset.Clustered(20000, 25, 81) // large L
	hospitals := dataset.Uniform(60, 82)       // small P
	parks := dataset.Uniform(40, 83)           // small Q

	env := exp.BuildEnv(hospitals, parks, exp.DefaultPageSize, exp.DefaultBufferPct)
	res := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.DefaultOptions())
	fmt.Printf("CIJ(hospitals, parks): %d of %d possible pairs can own houses\n",
		len(res.Pairs), len(hospitals)*len(parks))

	// Route 1 (CIJ): compute each pair's region and count houses inside.
	// An R-tree over houses answers each region with one range query.
	hBuf := storage.NewBuffer(storage.NewDisk(exp.DefaultPageSize), 1<<20)
	hTree := rtree.BulkLoadPoints(hBuf, houses, exp.Domain, 1)

	countCIJ := map[core.Pair]int{}
	for _, pr := range res.Pairs {
		cellP := voronoi.BFVor(env.RP, voronoi.Site{ID: pr.P, Pt: hospitals[pr.P]}, exp.Domain)
		cellQ := voronoi.BFVor(env.RQ, voronoi.Site{ID: pr.Q, Pt: parks[pr.Q]}, exp.Domain)
		region := cellP.Intersection(cellQ)
		if region.IsEmpty() {
			continue
		}
		for _, e := range hTree.RangeSearch(region.Bounds()) {
			if region.Contains(e.Pt) {
				countCIJ[pr]++
			}
		}
	}

	// Route 2 (baseline): the two All-NN joins of houses against
	// hospitals and parks — one nearest-neighbour query per house on each
	// tree — then a grouping pass.
	countNN := map[core.Pair]int{}
	for _, h := range houses {
		hosp := env.RP.KNN(h, 1, nil)
		park := env.RQ.KNN(h, 1, nil)
		countNN[core.Pair{P: hosp[0].ID, Q: park[0].ID}]++
	}

	// The two routes must agree (up to houses exactly on region borders).
	diff := 0
	total := 0
	for pr, c := range countNN {
		total += c
		if countCIJ[pr] != c {
			diff += abs(countCIJ[pr] - c)
		}
	}
	fmt.Printf("houses allocated: %d; CIJ-vs-AllNN disagreement: %d (boundary effects)\n", total, diff)

	// Report the densest hospital-park service areas.
	type grp struct {
		pair  core.Pair
		count int
	}
	var groups []grp
	for pr, c := range countCIJ {
		groups = append(groups, grp{pr, c})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].count != groups[j].count {
			return groups[i].count > groups[j].count
		}
		return groups[i].pair.P*1000+groups[i].pair.Q < groups[j].pair.P*1000+groups[j].pair.Q
	})
	fmt.Println("\nbusiest hospital-park pairs (houses served):")
	for _, g := range groups[:5] {
		fmt.Printf("  hospital %2d at %v + park %2d at %v: %5d houses\n",
			g.pair.P, fmtPt(hospitals[g.pair.P]), g.pair.Q, fmtPt(parks[g.pair.Q]), g.count)
	}
}

func fmtPt(p geom.Point) string { return fmt.Sprintf("(%.0f,%.0f)", p.X, p.Y) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
