// Package dataset generates and loads the pointsets of the paper's
// evaluation (Section V): uniform synthetic data, and clustered synthetic
// stand-ins for the five real US geonames datasets of Table I.
//
// The real datasets (downloaded by the authors from geonames.usgs.gov)
// are not redistributable here and the build is offline, so RealLike
// substitutes deterministic Gaussian-mixture datasets with the SAME
// cardinalities, normalized to the same [0,10000]² domain. What the
// paper's real-data experiments exercise is spatial skew — clustered
// points yield adjacent Voronoi cells with large area deviation, which
// drives the extra I/O observed in Table II — and the mixture generator
// reproduces exactly that property. See DESIGN.md for the substitution
// rationale.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"cij/internal/geom"
)

// Domain is the normalized coordinate domain of every dataset in the
// paper: attribute values are scaled to [0, 10000].
var Domain = geom.NewRect(0, 0, 10000, 10000)

// Uniform returns n points distributed uniformly over the domain,
// deterministically derived from seed.
func Uniform(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*Domain.MaxX, rng.Float64()*Domain.MaxY)
	}
	return pts
}

// Clustered returns n points drawn from a Gaussian mixture with the given
// number of clusters. Cluster weights are heavy-tailed (Zipf-like) and
// spreads vary per cluster, producing the skewed density of geographic
// feature data.
func Clustered(n, clusters int, seed int64) []geom.Point {
	if clusters < 1 {
		clusters = 1
	}
	rng := rand.New(rand.NewSource(seed))
	type cluster struct {
		center geom.Point
		spread float64
		weight float64
	}
	cs := make([]cluster, clusters)
	totalW := 0.0
	for i := range cs {
		cs[i] = cluster{
			center: geom.Pt(rng.Float64()*Domain.MaxX, rng.Float64()*Domain.MaxY),
			spread: 80 + rng.Float64()*700,
			// Zipf-like weight 1/(rank+1).
			weight: 1 / float64(i+1),
		}
		totalW += cs[i].weight
	}
	// Cumulative weights for sampling.
	cum := make([]float64, clusters)
	acc := 0.0
	for i := range cs {
		acc += cs[i].weight / totalW
		cum[i] = acc
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		r := rng.Float64()
		k := sort.SearchFloat64s(cum, r)
		if k >= clusters {
			k = clusters - 1
		}
		c := cs[k]
		pts[i] = geom.Pt(
			geom.Clamp(c.center.X+rng.NormFloat64()*c.spread, 0, Domain.MaxX),
			geom.Clamp(c.center.Y+rng.NormFloat64()*c.spread, 0, Domain.MaxY),
		)
	}
	return pts
}

// RealDataset names one of the five geonames datasets of Table I.
type RealDataset struct {
	Name        string // paper's two-letter code
	Description string // "Contents" column of Table I
	Cardinality int    // "Data cardinality" column of Table I
	Clusters    int    // mixture size of the synthetic stand-in
	Seed        int64
}

// RealDatasets reproduces Table I: the five datasets with their paper
// cardinalities. Cluster counts are chosen to mimic the geographic
// clustering level of each feature type (populated places and schools
// follow settlements tightly; parks are fewer and more dispersed).
var RealDatasets = []RealDataset{
	{Name: "PP", Description: "Populated Places", Cardinality: 177983, Clusters: 900, Seed: 9001},
	{Name: "SC", Description: "Schools", Cardinality: 172188, Clusters: 700, Seed: 9002},
	{Name: "CE", Description: "Cemeteries", Cardinality: 124336, Clusters: 800, Seed: 9003},
	{Name: "LO", Description: "Locales", Cardinality: 128476, Clusters: 600, Seed: 9004},
	{Name: "PA", Description: "Parks", Cardinality: 58312, Clusters: 400, Seed: 9005},
}

// RealLike generates the synthetic stand-in for the named Table I dataset
// at full paper cardinality. scale ∈ (0,1] shrinks the cardinality
// proportionally (benches use scaled-down instances). Unknown names
// return an error.
func RealLike(name string, scale float64) ([]geom.Point, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	for _, d := range RealDatasets {
		if d.Name == name {
			n := int(float64(d.Cardinality) * scale)
			if n < 1 {
				n = 1
			}
			return Clustered(n, d.Clusters, d.Seed), nil
		}
	}
	return nil, fmt.Errorf("dataset: unknown real dataset %q (want PP, SC, CE, LO or PA)", name)
}

// Spec is a named generator specification: the declarative form of "which
// pointset" shared by the query service's registry loaders, cijserver
// -preload and cijtool gen, so every entry point builds datasets through
// the same door.
type Spec struct {
	// Kind is "uniform", "clustered", or a Table I code (PP/SC/CE/LO/PA).
	Kind string
	// N is the cardinality for uniform/clustered kinds.
	N int
	// Clusters is the mixture size for the clustered kind (default 20).
	Clusters int
	// Seed derives the points deterministically.
	Seed int64
	// Scale shrinks Table I cardinalities; 0 or 1 means full scale.
	Scale float64
}

// Generate materializes the spec into points on the normalized domain.
func (s Spec) Generate() ([]geom.Point, error) {
	switch s.Kind {
	case "uniform":
		if s.N <= 0 {
			return nil, fmt.Errorf("dataset: spec %q needs n > 0, got %d", s.Kind, s.N)
		}
		return Uniform(s.N, s.Seed), nil
	case "clustered":
		if s.N <= 0 {
			return nil, fmt.Errorf("dataset: spec %q needs n > 0, got %d", s.Kind, s.N)
		}
		clusters := s.Clusters
		if clusters <= 0 {
			clusters = 20
		}
		return Clustered(s.N, clusters, s.Seed), nil
	case "":
		return nil, fmt.Errorf("dataset: spec has no kind (want uniform, clustered, or PP/SC/CE/LO/PA)")
	default:
		scale := s.Scale
		if scale <= 0 {
			scale = 1
		}
		return RealLike(s.Kind, scale)
	}
}

// WriteCSV writes points as "x,y" lines.
func WriteCSV(w io.Writer, pts []geom.Point) error {
	bw := bufio.NewWriter(w)
	for _, p := range pts {
		if _, err := fmt.Fprintf(bw, "%g,%g\n", p.X, p.Y); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxCoord bounds the magnitude of a coordinate ReadCSV accepts: any two
// accepted values differ by at most MaxFloat64/2, so the bounding-box span
// Normalize divides by stays finite.
const maxCoord = math.MaxFloat64 / 4

// ReadCSV parses "x,y" lines (blank lines and #-comments skipped) and
// normalizes nothing: callers normalize if needed. A coordinate must be a
// finite number of magnitude at most MaxFloat64/4; strconv.ParseFloat also
// accepts "NaN" and "Inf", which would poison every bounding box built
// from the points.
func ReadCSV(r io.Reader) ([]geom.Point, error) {
	var pts []geom.Point
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		parts := strings.Split(txt, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("dataset: line %d: want \"x,y\", got %q", line, txt)
		}
		x, err := parseCoord(parts[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %v", line, err)
		}
		y, err := parseCoord(parts[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %v", line, err)
		}
		pts = append(pts, geom.Pt(x, y))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pts, nil
}

// parseCoord parses one CSV coordinate and rejects the values ReadCSV
// does not accept.
func parseCoord(field string) (float64, error) {
	field = strings.TrimSpace(field)
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.Abs(v) > maxCoord {
		return 0, fmt.Errorf("coordinate %q is not a finite number of magnitude at most %g", field, maxCoord)
	}
	return v, nil
}

// Normalize rescales points so their bounding box maps onto the domain,
// as the paper does with all datasets ("attribute values of all datasets
// are normalized to the interval [0,10000]").
func Normalize(pts []geom.Point) []geom.Point {
	if len(pts) == 0 {
		return pts
	}
	bounds := geom.EmptyRect()
	for _, p := range pts {
		bounds = bounds.UnionPoint(p)
	}
	w, h := bounds.Width(), bounds.Height()
	if w == 0 {
		w = 1
	}
	if h == 0 {
		h = 1
	}
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Pt(
			(p.X-bounds.MinX)/w*Domain.MaxX,
			(p.Y-bounds.MinY)/h*Domain.MaxY,
		)
	}
	return out
}
