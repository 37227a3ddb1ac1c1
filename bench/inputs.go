package main

import (
	"bytes"
	"math/rand"

	"cij/internal/dataset"
	"cij/internal/geom"
)

// input is one dataset as the service receives it: a name and the CSV
// body of POST /datasets/{name}.
type input struct {
	name string
	csv  []byte
}

func csvBody(pts []geom.Point) []byte {
	var b bytes.Buffer
	_ = dataset.WriteCSV(&b, pts) // writes to a bytes.Buffer cannot fail
	return b.Bytes()
}

// The generators below share two choices that keep a workload's cost
// nearly independent of the seed, so that run-to-run spread measures the
// program and the host rather than the draw:
//   - every set holds the four domain corners, so its bounding box is the
//     domain and the service's CSV normalization changes nothing (a set
//     whose extremes vary would be stretched by a seed-dependent factor);
//   - cluster positions are fixed; the seed draws the points around them.

// pinCorners overwrites the first four points with the domain corners.
func pinCorners(pts []geom.Point) []geom.Point {
	d := dataset.Domain
	copy(pts, []geom.Point{geom.Pt(d.MinX, d.MinY), geom.Pt(d.MaxX, d.MinY), geom.Pt(d.MinX, d.MaxY), geom.Pt(d.MaxX, d.MaxY)})
	return pts
}

// uniformPoints draws n points uniformly over the domain.
func uniformPoints(rng *rand.Rand, n int) []geom.Point {
	return pinCorners(dataset.Uniform(n, rng.Int63()))
}

// cityCentre is where every city set clusters.
var cityCentre = geom.Pt(3700, 6300)

// cityPoints draws one "city" set: 10% background stratified over a
// lattice of the domain (one point per lattice cell) and 90% from
// N(cityCentre, 100²). Sets sharing the centre overlap densely; each is
// skewed well past the planner's grid gate (grid.SkewEstimate ≈ 42 at
// 3k points).
func cityPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	background := n / 10
	side := 1
	for (side+1)*(side+1) <= background {
		side++
	}
	w := dataset.Domain.MaxX / float64(side)
	for i := range background {
		cell := i % (side * side)
		pts = append(pts, geom.Pt((float64(cell%side)+rng.Float64())*w, (float64(cell/side)+rng.Float64())*w))
	}
	for len(pts) < n {
		pts = append(pts, gaussianPoint(rng, cityCentre, 100))
	}
	return pinCorners(pts)
}

// clusteredPoints draws n points from 20 equally weighted Gaussian
// clusters (σ = 250) on a staggered 5×4 lattice (grid.SkewEstimate ≈ 8.6
// at 25k points).
func clusteredPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		k := i % 20
		centre := geom.Pt(1000+2000*float64(k%5)+500*float64(k/5%2), 1250+2500*float64(k/5))
		pts[i] = gaussianPoint(rng, centre, 250)
	}
	return pinCorners(pts)
}

func gaussianPoint(rng *rand.Rand, centre geom.Point, sigma float64) geom.Point {
	d := dataset.Domain
	return geom.Pt(
		geom.Clamp(centre.X+rng.NormFloat64()*sigma, d.MinX, d.MaxX),
		geom.Clamp(centre.Y+rng.NormFloat64()*sigma, d.MinY, d.MaxY),
	)
}

// randomPoint is a uniform position inside the domain (mutation inserts
// and moves).
func randomPoint(rng *rand.Rand) geom.Point {
	return geom.Pt(rng.Float64()*dataset.Domain.MaxX, rng.Float64()*dataset.Domain.MaxY)
}
