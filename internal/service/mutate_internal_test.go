package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/grid"
	"cij/internal/obs"
	"cij/internal/storage"
)

// TestCacheInvalidationExactNames is the regression for the old textual
// invalidation sweep: matching must be field-exact, so a dataset whose
// name is a prefix/substring of another's never sweeps its neighbor's
// entries, and every entry involving the named dataset goes regardless
// of which side it sits on.
func TestCacheInvalidationExactNames(t *testing.T) {
	c := newResultCache(16, &obs.Counter{}, &obs.Counter{}, &obs.Counter{})
	res := &cachedResult{Pairs: []core.Pair{{P: 1, Q: 2}}, Count: 1, IO: storage.Stats{}}
	put := func(left, right string) string {
		key := left + "|" + right // distinct handle per entry; content is irrelevant here
		c.put(key, left, right, res)
		return key
	}
	kPQ := put("p", "q")
	kPPQ := put("pp", "q")  // "p" is a prefix of "pp"
	kAP := put("a", "p")    // "p" on the right side
	kAPP := put("a", "p.q") // "p" a prefix of "p.q"
	kXY := put("x", "y")    // untouched bystander

	c.invalidateDataset("p")

	for _, tc := range []struct {
		key  string
		want bool
	}{
		{kPQ, false}, // left == p: swept
		{kAP, false}, // right == p: swept
		{kPPQ, true}, // pp != p: must survive
		{kAPP, true}, // p.q != p: must survive
		{kXY, true},
	} {
		if _, ok := c.get(tc.key); ok != tc.want {
			t.Errorf("after invalidate(p): entry %q present=%v, want %v", tc.key, ok, tc.want)
		}
	}
}

// TestInstrumentPanicRecovery exercises the recovery middleware: a
// panicking handler must produce a JSON 500 (when no status was
// committed), tick cij_panics_total, and still book its request metrics —
// and http.ErrAbortHandler must pass through untouched.
func TestInstrumentPanicRecovery(t *testing.T) {
	s := New(Config{})
	h := s.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodGet, "/boom", nil))

	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response is not JSON: %q", rr.Body.String())
	}
	if !strings.Contains(body["error"], "kaboom") {
		t.Fatalf("panic response %q does not name the panic", body["error"])
	}

	// A second panic after the handler already committed a status must not
	// write a second body on top of the stream.
	h2 := s.instrument("boom2", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		panic("late")
	})
	rr2 := httptest.NewRecorder()
	h2(rr2, httptest.NewRequest(http.MethodGet, "/boom2", nil))
	if rr2.Code != http.StatusOK || rr2.Body.String() != "partial" {
		t.Fatalf("mid-stream panic rewrote the response: code=%d body=%q", rr2.Code, rr2.Body.String())
	}

	// Both recoveries are on the books.
	mrr := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrr.Body.String(), "cij_panics_total 2") {
		t.Fatalf("metrics do not report cij_panics_total 2:\n%s", grepMetric(mrr.Body.String(), "cij_panics_total"))
	}

	// net/http's sanctioned abort is not a recovered panic.
	h3 := s.instrument("abort", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Error("http.ErrAbortHandler was swallowed by the middleware")
			}
		}()
		h3(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
	}()
}

// grepMetric extracts the lines of one metric family for error messages.
func grepMetric(body, name string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestLazyGraphOnce: of concurrent callers exactly one runs the build and
// is told so, and all get its graph; a build that panics panics again for
// every later caller, which never sees a half-built graph.
func TestLazyGraphOnce(t *testing.T) {
	var l lazy[*grid.Graph]
	var builds, toldBuilt atomic.Int32
	graphs := make([]*grid.Graph, 8)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, built := l.get(func() *grid.Graph {
				builds.Add(1)
				return grid.NewGraph(dataset.Uniform(50, 1), nil, dataset.Domain)
			})
			if built {
				toldBuilt.Add(1)
			}
			graphs[i] = g
		}()
	}
	wg.Wait()
	if builds.Load() != 1 || toldBuilt.Load() != 1 {
		t.Fatalf("%d builds, %d callers told they built, want 1 and 1", builds.Load(), toldBuilt.Load())
	}
	for _, g := range graphs {
		if g == nil || g != graphs[0] {
			t.Fatal("callers got different graphs")
		}
	}

	var failed lazy[*grid.Graph]
	for i := range 2 {
		func() {
			defer func() {
				if r := recover(); r != "half-built" {
					t.Fatalf("call %d recovered %v, want the build's panic", i, r)
				}
			}()
			failed.get(func() *grid.Graph {
				if i > 0 {
					t.Error("a failed build ran again")
				}
				panic("half-built")
			})
		}()
	}
}

// TestFlatCopyLazy: neither an ingest nor a mutation freezes a flat copy;
// the first flat reads do, once per version, through a private buffer,
// so the shared base buffer, cold since the build, stays cold; and
// the flat copy answers the join the paged tree does.
func TestFlatCopyLazy(t *testing.T) {
	reg := NewRegistry(2)
	v1, err := reg.Put("a", dataset.Uniform(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	_, v2, _, err := reg.Mutate("a", MutationSpec{Insert: []geom.Point{geom.Pt(5, 5)}, Delete: []int64{7}})
	if err != nil {
		t.Fatal(err)
	}
	other, err := reg.Put("b", dataset.Uniform(1500, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dataset{v1, v2} {
		if _, ok := d.flat.peek(); ok {
			t.Fatalf("version %d froze its flat copy before any flat read", d.Version)
		}
		base := d.Tree.Buffer()
		stats, gen := base.Stats(), base.Generation()
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.StorageView("flat")
			}()
		}
		wg.Wait()
		if base.Stats() != stats || base.Generation() != gen {
			t.Fatalf("version %d: freezing the flat copy touched the shared base buffer", d.Version)
		}
		for id := range d.Pages {
			if base.Contains(storage.PageID(id)) {
				t.Fatalf("version %d: freezing the flat copy left page %d in the shared base buffer", d.Version, id)
			}
		}
		want := core.NMCIJ(d.View(), other.View(), dataset.Domain, core.DefaultOptions()).Pairs
		got := core.NMCIJ(d.FlatView(), other.FlatView(), dataset.Domain, core.DefaultOptions()).Pairs
		if !core.SamePairs(got, want) {
			t.Fatalf("version %d: the flat copy joins %d pairs, the paged tree %d", d.Version, len(got), len(want))
		}
	}
}

// TestDeclinedDeriveRunsOnce: once grid.Derive has declined a version's
// graph (the hub of an 80-point wheel is gone, a star wider than Derive
// edits), a later deriveGraph must not reach Derive again, which would
// dereference the nil parent handed to it here; Graph then builds the
// version's graph.
func TestDeclinedDeriveRunsOnce(t *testing.T) {
	pts := []geom.Point{geom.Pt(5000, 5000)}
	for k := range 80 {
		a := 2 * math.Pi * float64(k) / 80
		pts = append(pts, geom.Pt(5000+100*math.Cos(a), 5000+100*math.Sin(a)))
	}
	alive := make([]bool, len(pts))
	for i := 1; i < len(alive); i++ {
		alive[i] = true
	}
	d := &Dataset{Points: pts, Alive: alive, Live: len(pts) - 1}
	d.deriveGraph(grid.NewGraph(pts, nil, dataset.Domain))
	if _, ok := d.graph.peek(); ok {
		t.Fatal("Derive edited a star of 80 corners")
	}
	d.deriveGraph(nil)
	if _, built := d.Graph(); built != d.Live {
		t.Fatalf("Graph triangulated %d points, want %d", built, d.Live)
	}
}
