package core

import (
	"math/rand"
	"sort"
	"testing"
)

// The paper's motivation (Section I): CIJ takes no parameter, and neither
// the ε-distance join nor the k-closest-pairs join reproduces it for any
// ε or k, because CIJ membership is not monotone in distance. Both claims
// are checked by brute force on random 40 × 40 instances.

const parameterSeeds = 20

func TestEpsilonDoesNotReproduceCIJ(t *testing.T) {
	for seed := int64(1); seed <= parameterSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, q := randPoints(rng, 40), randPoints(rng, 40)
		cij := BruteCIJ(p, q, testDomain)
		// The smallest ε-join holding every CIJ pair is ε = D, the largest
		// distance among CIJ pairs; it must hold strictly more pairs.
		dmax := 0.0
		for _, pr := range cij {
			dmax = max(dmax, p[pr.P].Dist(q[pr.Q]))
		}
		within := 0
		for _, pp := range p {
			for _, qq := range q {
				if pp.Dist(qq) <= dmax {
					within++
				}
			}
		}
		if within <= len(cij) {
			t.Errorf("seed %d: ε=D join has %d pairs vs CIJ %d, want strictly more", seed, within, len(cij))
		}
	}
}

func TestKDoesNotReproduceCIJ(t *testing.T) {
	for seed := int64(1); seed <= parameterSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, q := randPoints(rng, 40), randPoints(rng, 40)
		cij := BruteCIJ(p, q, testDomain)
		// A k-closest-pairs join can only match CIJ with k = |CIJ|.
		all := make([]Pair, 0, len(p)*len(q))
		for i := range p {
			for j := range q {
				all = append(all, Pair{P: int64(i), Q: int64(j)})
			}
		}
		dist := func(pr Pair) float64 { return p[pr.P].Dist(q[pr.Q]) }
		sort.SliceStable(all, func(a, b int) bool { return dist(all[a]) < dist(all[b]) })
		if SamePairs(all[:len(cij)], cij) {
			t.Errorf("seed %d: the %d closest pairs are exactly the CIJ pair set", seed, len(cij))
		}
	}
}
