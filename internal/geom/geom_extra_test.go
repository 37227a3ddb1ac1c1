package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Second-round property tests: algebraic laws the CIJ algorithms lean on
// implicitly.

func TestIntersectionCommutativeArea(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		a, b := randConvex(rng), randConvex(rng)
		ab := a.Intersection(b).Area()
		ba := b.Intersection(a).Area()
		if math.Abs(ab-ba) > 1e-6*(1+ab) {
			t.Fatalf("intersection area not commutative: %v vs %v", ab, ba)
		}
	}
}

func TestIntersectionSubsetOfBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		a, b := randConvex(rng), randConvex(rng)
		inter := a.Intersection(b)
		if inter.IsEmpty() {
			continue
		}
		if inter.Area() > a.Area()+1e-6 || inter.Area() > b.Area()+1e-6 {
			t.Fatalf("intersection larger than an operand")
		}
		for _, v := range inter.V {
			if !a.Contains(v) || !b.Contains(v) {
				t.Fatalf("intersection vertex %v escapes an operand", v)
			}
		}
	}
}

func TestIntersectionIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		a := randConvex(rng)
		self := a.Intersection(a)
		if math.Abs(self.Area()-a.Area()) > 1e-6*(1+a.Area()) {
			t.Fatalf("A ∩ A area %v != A area %v", self.Area(), a.Area())
		}
	}
}

func TestClipContainmentProperty(t *testing.T) {
	// Every point of the clipped polygon must lie in the original.
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 300; i++ {
		g := randConvex(rng)
		pi := Pt(rng.Float64()*10, rng.Float64()*10)
		pj := Pt(rng.Float64()*10, rng.Float64()*10)
		if pi.Eq(pj) {
			continue
		}
		c := g.ClipBisector(pi, pj)
		for _, v := range c.V {
			if !g.Contains(v) {
				t.Fatalf("clip vertex %v escapes the source polygon", v)
			}
		}
	}
}

func TestCentroidInsidePolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 300; i++ {
		g := randConvex(rng)
		if !g.Contains(g.Centroid()) {
			t.Fatalf("centroid %v outside its convex polygon %v", g.Centroid(), g)
		}
	}
}

func TestBoundsCoversVertices(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randConvex(rng)
		b := g.Bounds()
		for _, v := range g.V {
			if !b.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClipperMatchesPolygonClip(t *testing.T) {
	// The buffer-reusing Clipper must produce the same polygons as the
	// allocating Clip across a chain of clips.
	rng := rand.New(rand.NewSource(26))
	var cl Clipper
	ref := NewRect(0, 0, 10, 10).Polygon()
	fast := NewRect(0, 0, 10, 10).Polygon()
	for i := 0; i < 200; i++ {
		pi := Pt(rng.Float64()*10, rng.Float64()*10)
		pj := Pt(rng.Float64()*10, rng.Float64()*10)
		if pi.Eq(pj) {
			continue
		}
		h := Bisector(pi, pj)
		ref = ref.Clip(h)
		fast = cl.Clip(fast, h)
		if ref.IsEmpty() != fast.IsEmpty() {
			t.Fatalf("iteration %d: emptiness diverged", i)
		}
		if ref.IsEmpty() {
			ref = NewRect(0, 0, 10, 10).Polygon()
			fast = NewRect(0, 0, 10, 10).Polygon()
			continue
		}
		if len(ref.V) != len(fast.V) {
			t.Fatalf("iteration %d: vertex count %d vs %d", i, len(ref.V), len(fast.V))
		}
		for j := range ref.V {
			if !ref.V[j].Eq(fast.V[j]) {
				t.Fatalf("iteration %d vertex %d: %v vs %v", i, j, ref.V[j], fast.V[j])
			}
		}
		// fast aliases clipper storage; hand the next iteration a fresh
		// polygon only through the clipper (that is the supported usage).
	}
}

// TestClipperIntersectMatchesClipChain holds Intersect, which sets each
// edge halfplane's Scale once, to a chain of Polygon.Clip over the same
// halfplanes left at Scale 0, which compute it in every call: on random
// convex pairs the vertices must be bit-identical. Half the pairs are
// scaled up a thousandfold, so most edges have |N| above the clamp at 1.
func TestClipperIntersectMatchesClipChain(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var cl Clipper
	for i := 0; i < 500; i++ {
		g, o := randConvex(rng), randConvex(rng)
		if i%2 == 1 {
			for _, poly := range []Polygon{g, o} {
				for j := range poly.V {
					poly.V[j] = poly.V[j].Scale(1000)
				}
			}
		}
		want := g
		for j, a := range o.V {
			nrm := Pt(o.V[(j+1)%len(o.V)].Y-a.Y, a.X-o.V[(j+1)%len(o.V)].X)
			want = want.Clip(Halfplane{N: nrm, C: nrm.Dot(a)})
		}
		got := cl.Intersect(g, o)
		if len(got.V) != len(want.V) {
			t.Fatalf("pair %d: %d vertices, want %d", i, len(got.V), len(want.V))
		}
		for j := range got.V {
			if got.V[j] != want.V[j] {
				t.Fatalf("pair %d vertex %d: %v, want %v", i, j, got.V[j], want.V[j])
			}
		}
	}
}

func TestHalfplaneScaleCached(t *testing.T) {
	h := Bisector(Pt(0, 0), Pt(3, 4))
	if h.Scale <= 0 {
		t.Fatal("Bisector should cache Scale")
	}
	// |N| = 2*5 = 10.
	if math.Abs(h.Scale-10) > 1e-12 {
		t.Errorf("Scale = %v, want 10", h.Scale)
	}
	// Literal halfplanes compute on demand and still work.
	lit := Halfplane{N: Pt(1, 0), C: 5}
	if !lit.Contains(Pt(4, 0)) || lit.Contains(Pt(6, 0)) {
		t.Error("literal halfplane sidedness broken")
	}
}

func TestDegeneratePolygons(t *testing.T) {
	// Fewer than 3 vertices: empty semantics everywhere.
	for _, g := range []Polygon{
		{},
		{V: []Point{Pt(1, 1)}},
		{V: []Point{Pt(1, 1), Pt(2, 2)}},
	} {
		if !g.IsEmpty() {
			t.Errorf("%v should be empty", g)
		}
		if g.Area() != 0 {
			t.Errorf("%v area should be 0", g)
		}
		if g.Contains(Pt(1, 1)) {
			t.Errorf("%v should contain nothing", g)
		}
		if g.Intersects(NewRect(0, 0, 5, 5).Polygon()) {
			t.Errorf("%v should intersect nothing", g)
		}
	}
	// Zero-area triangle (collinear vertices): area 0, still not empty by
	// vertex count; Intersection with anything has ~zero area.
	flat := Polygon{V: []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0)}}
	if flat.Area() > 1e-12 {
		t.Errorf("flat polygon area = %v", flat.Area())
	}
}

func TestRegularPolygonGeometry(t *testing.T) {
	// A regular hexagon of circumradius r has area (3√3/2)r².
	c := Pt(100, 100)
	r := 10.0
	var vs []Point
	for i := 0; i < 6; i++ {
		ang := 2 * math.Pi * float64(i) / 6
		vs = append(vs, Pt(c.X+r*math.Cos(ang), c.Y+r*math.Sin(ang)))
	}
	hex := Polygon{V: vs}
	want := 3 * math.Sqrt(3) / 2 * r * r
	if math.Abs(hex.Area()-want) > 1e-9 {
		t.Errorf("hexagon area = %v, want %v", hex.Area(), want)
	}
	if !hex.Centroid().Eq(c) {
		t.Errorf("hexagon centroid = %v, want %v", hex.Centroid(), c)
	}
	if !hex.IsConvexCCW() {
		t.Error("hexagon should be convex CCW")
	}
}
