package grid

import (
	"math"

	"cij/internal/geom"
)

// skewTargetPerCell sizes the skew histogram: coarse enough that a
// uniform dataset fills most tiles (expected occupancy ~16), fine enough
// that clustering concentrates mass into few tiles.
const skewTargetPerCell = 16

// SkewEstimate measures the spatial skew of a pointset as the
// Poisson-normalized dispersion of a coarse density histogram:
// sqrt(Var[tile count] / E[tile count]). Uniform data scatters tiles like
// a Poisson process, where variance equals mean, so the estimate sits
// near 1 regardless of cardinality; clustering concentrates points and
// drives it up without bound. It describes a dataset's shape (the service
// benchmark reports its inputs by it); the join's cost no longer depends
// on it.
func SkewEstimate(pts []geom.Point, domain geom.Rect) float64 {
	if len(pts) == 0 {
		return 0
	}
	side := min(max(int(math.Sqrt(float64(len(pts))/skewTargetPerCell)), 1), 512)
	// bin clamps, so points on or outside the domain's edge land in a tile.
	bin := func(v, lo, extent float64) int {
		if extent <= 0 {
			return 0
		}
		return min(max(int((v-lo)/(extent/float64(side))), 0), side-1)
	}
	counts := make([]int32, side*side)
	for _, p := range pts {
		counts[bin(p.Y, domain.MinY, domain.Height())*side+bin(p.X, domain.MinX, domain.Width())]++
	}
	mean := float64(len(pts)) / float64(len(counts))
	var ss float64
	for _, c := range counts {
		d := float64(c) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(counts)) / mean)
}
