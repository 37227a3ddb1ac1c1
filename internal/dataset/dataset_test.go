package dataset

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"cij/internal/geom"
)

func TestUniformDeterministicAndInDomain(t *testing.T) {
	a := Uniform(1000, 7)
	b := Uniform(1000, 7)
	c := Uniform(1000, 8)
	if len(a) != 1000 {
		t.Fatalf("len = %d", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
		if !Domain.Contains(a[i]) {
			t.Fatalf("point %v outside domain", a[i])
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestClusteredSkew(t *testing.T) {
	pts := Clustered(20000, 10, 42)
	if len(pts) != 20000 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if !Domain.Contains(p) {
			t.Fatalf("point %v outside domain", p)
		}
	}
	// Skew check: a 10x10 grid histogram must be far from uniform —
	// the max cell count should exceed several times the mean.
	var hist [10][10]int
	for _, p := range pts {
		i := int(p.X / 1000.01)
		j := int(p.Y / 1000.01)
		hist[i][j]++
	}
	maxCount := 0
	for i := range hist {
		for j := range hist[i] {
			if hist[i][j] > maxCount {
				maxCount = hist[i][j]
			}
		}
	}
	mean := 20000.0 / 100
	if float64(maxCount) < 3*mean {
		t.Errorf("clustered data not skewed enough: max cell %d, mean %v", maxCount, mean)
	}
}

func TestClusteredDegenerateArgs(t *testing.T) {
	pts := Clustered(10, 0, 1) // clusters < 1 clamps to 1
	if len(pts) != 10 {
		t.Fatalf("len = %d", len(pts))
	}
}

func TestRealLikeCardinalitiesMatchTable1(t *testing.T) {
	want := map[string]int{"PP": 177983, "SC": 172188, "CE": 124336, "LO": 128476, "PA": 58312}
	for name, n := range want {
		pts, err := RealLike(name, 0.01) // 1% scale for test speed
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, wantScaled := len(pts), int(float64(n)*0.01); got != wantScaled {
			t.Errorf("%s at 1%%: %d points, want %d", name, got, wantScaled)
		}
	}
	if _, err := RealLike("XX", 1); err == nil {
		t.Error("unknown dataset should error")
	}
	// Full-scale sanity for the smallest dataset only (PA).
	pa, err := RealLike("PA", 1)
	if err != nil || len(pa) != 58312 {
		t.Fatalf("PA full scale: %d points, err=%v", len(pa), err)
	}
}

func TestRealLikeDeterministic(t *testing.T) {
	a, _ := RealLike("CE", 0.005)
	b, _ := RealLike("CE", 0.005)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RealLike is not deterministic")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := Uniform(500, 3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("round trip lost points: %d vs %d", len(got), len(pts))
	}
	for i := range pts {
		if math.Abs(got[i].X-pts[i].X) > 1e-9 || math.Abs(got[i].Y-pts[i].Y) > 1e-9 {
			t.Fatalf("point %d mismatch: %v vs %v", i, got[i], pts[i])
		}
	}
}

func TestReadCSVCommentsAndErrors(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("# header\n\n1.5, 2.5\n3,4\n"))
	if err != nil || len(got) != 2 {
		t.Fatalf("got %v err %v", got, err)
	}
	if _, err := ReadCSV(strings.NewReader("1,2,3\n")); err == nil {
		t.Error("3 fields should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n")); err == nil {
		t.Error("non-numeric should error")
	}
}

func TestNormalize(t *testing.T) {
	in := []geom.Point{geom.Pt(-100, 50), geom.Pt(300, 250), geom.Pt(100, 150)}
	out := Normalize(in)
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	// Extremes map to domain extremes.
	if math.Abs(out[0].X-0) > 1e-9 || math.Abs(out[1].X-10000) > 1e-9 {
		t.Errorf("x normalization wrong: %v, %v", out[0].X, out[1].X)
	}
	if math.Abs(out[0].Y-0) > 1e-9 || math.Abs(out[1].Y-10000) > 1e-9 {
		t.Errorf("y normalization wrong: %v, %v", out[0].Y, out[1].Y)
	}
	// Midpoint stays a midpoint.
	if math.Abs(out[2].X-5000) > 1e-9 || math.Abs(out[2].Y-5000) > 1e-9 {
		t.Errorf("midpoint maps to %v", out[2])
	}
	// Degenerate: all same coordinate (zero extent) must not divide by 0.
	same := Normalize([]geom.Point{geom.Pt(5, 5), geom.Pt(5, 5)})
	for _, p := range same {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Error("degenerate normalize produced NaN")
		}
	}
	if got := Normalize(nil); len(got) != 0 {
		t.Error("empty input should stay empty")
	}
}

// malformedCSV holds inputs ReadCSV must reject, each with the line
// number its error must name.
var malformedCSV = []struct {
	name, in, wantInErr string
}{
	{"short row", "1,2\n5\n", "line 2"},
	{"missing y", "1,\n", "line 1"},
	{"missing x", ",2\n", "line 1"},
	{"too many fields", "1,2\n3,4,5\n", "line 2"},
	{"bad x", "# ok\nx,2\n", "line 2"},
	{"bad y", "1,2\n\n3,yy\n", "line 3"},
	{"NaN x", "1,2\nNaN,4\n", "line 2"},
	{"nan y", "1,nan\n", "line 1"},
	{"Inf x", "Inf,2\n", "line 1"},
	{"+Inf y", "1,2\n3,+Inf\n", "line 2"},
	{"-Inf x", "# c\n-inf,2\n", "line 2"},
	{"infinity y", "1,Infinity\n", "line 1"},
	{"overflow to Inf", "1e400,2\n", "line 1"},
	{"beyond MaxFloat64/4", "1,2\n3,4\n5,1e308\n", "line 3"},
	{"negative beyond MaxFloat64/4", "-1e308,2\n", "line 1"},
}

// TestReadCSVMalformedRows pins the parser's error paths: short rows, long
// rows, unparsable coordinates — each rejected with the offending line
// number — while blank lines and comments stay skippable.
func TestReadCSVMalformedRows(t *testing.T) {
	for _, tc := range malformedCSV {
		pts, err := ReadCSV(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: ReadCSV(%q) = %v, want error", tc.name, tc.in, pts)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantInErr) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.wantInErr)
		}
	}
}

// FuzzReadCSV: whatever the bytes, ReadCSV either rejects them or returns
// points that Normalize maps to finite points of the domain.
func FuzzReadCSV(f *testing.F) {
	for _, tc := range malformedCSV {
		f.Add(tc.in)
	}
	f.Add("# header\n\n1.5, 2.5\n3,4\n")
	f.Add("-4.4942328371557893e+307,0\n4.4942328371557893e+307,1e-300\n")
	f.Fuzz(func(t *testing.T, in string) {
		pts, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, p := range Normalize(pts) {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || !Domain.Contains(p) {
				t.Fatalf("ReadCSV(%q): normalized point %v is not a finite point of the domain", in, p)
			}
		}
	})
}

// TestReadCSVLargeFiniteCoordinates: the largest accepted magnitudes
// still normalize to finite points inside the domain.
func TestReadCSVLargeFiniteCoordinates(t *testing.T) {
	lim := strconv.FormatFloat(math.MaxFloat64/4, 'g', -1, 64)
	pts, err := ReadCSV(strings.NewReader("-" + lim + ",0\n" + lim + "," + lim + "\n0,-" + lim + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Normalize(pts) {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || !Domain.Contains(p) {
			t.Fatalf("normalized point %v is not a finite point of the domain", p)
		}
	}
}

// TestReadCSVEmptyInputs: nothing to parse is not an error, it is an empty
// pointset (callers decide whether that is acceptable).
func TestReadCSVEmptyInputs(t *testing.T) {
	for _, in := range []string{"", "\n\n", "# only comments\n"} {
		pts, err := ReadCSV(strings.NewReader(in))
		if err != nil || len(pts) != 0 {
			t.Errorf("ReadCSV(%q) = %v, %v; want empty, nil", in, pts, err)
		}
	}
}

// TestSpecGenerate: the named loader produces the same points as the
// direct generator calls and rejects unusable specs.
func TestSpecGenerate(t *testing.T) {
	got, err := (Spec{Kind: "uniform", N: 100, Seed: 5}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if want := Uniform(100, 5); len(got) != len(want) || got[17] != want[17] {
		t.Fatal("uniform spec disagrees with Uniform")
	}

	got, err = (Spec{Kind: "clustered", N: 100, Clusters: 7, Seed: 5}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if want := Clustered(100, 7, 5); len(got) != len(want) || got[17] != want[17] {
		t.Fatal("clustered spec disagrees with Clustered")
	}
	// Default cluster count applies when unset.
	defaulted, err := (Spec{Kind: "clustered", N: 50, Seed: 2}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if want := Clustered(50, 20, 2); defaulted[3] != want[3] {
		t.Fatal("clustered spec default mixture size is not 20")
	}

	got, err = (Spec{Kind: "PA", Scale: 0.01}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := RealLike("PA", 0.01); len(got) != len(want) {
		t.Fatalf("PA spec cardinality %d, want %d", len(got), len(want))
	}

	for _, bad := range []Spec{
		{},                            // no kind
		{Kind: "uniform"},             // no n
		{Kind: "clustered", N: -3},    // bad n
		{Kind: "dodecahedral", N: 10}, // unknown kind
	} {
		if _, err := bad.Generate(); err == nil {
			t.Errorf("Spec %+v generated without error", bad)
		}
	}
}
