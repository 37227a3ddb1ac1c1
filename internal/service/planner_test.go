package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cij/internal/dataset"
	"cij/internal/geom"
)

// fakeDataset fabricates a registry entry over the given points; plan()
// reads only its cardinality.
func fakeDataset(pts []geom.Point) *Dataset {
	return &Dataset{Points: pts, Live: len(pts)}
}

// TestPlanSelection covers every routing path of the auto planner plus
// the explicit choices, and checks that every branch narrates its choice.
// Skewed inputs plan like uniform ones: the grid backend's cost does not
// depend on density. The planner only reads GOMAXPROCS, so the test pins
// it: every branch, auto-parallel included, runs whatever the host's core
// count.
func TestPlanSelection(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	uniform := func(n int) *Dataset { return fakeDataset(dataset.Uniform(n, 7)) }
	skewed := func(n int) *Dataset { // every point on a 0.1-spaced lattice patch
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(5000+float64(i%50)*0.1, 5000+float64(i/50)*0.1)
		}
		return fakeDataset(pts)
	}

	cases := []struct {
		name        string
		q           Query
		left, right *Dataset
		wantAlgo    string
	}{
		{"auto small uniform -> grid", Query{}, uniform(500), uniform(500), "grid"},
		{"auto small left-skewed -> grid", Query{}, skewed(500), uniform(500), "grid"},
		{"auto small right-skewed -> grid", Query{}, uniform(500), skewed(500), "grid"},
		{"auto explicit storage -> nm", Query{Storage: "paged"}, skewed(500), skewed(500), "nm"},
		{"auto explicit workers -> parallel", Query{Workers: 1}, uniform(100), uniform(100), "parallel"},
		{"explicit grid on skewed data honored", Query{Algo: "grid"}, skewed(500), skewed(500), "grid"},
		{"explicit nm honored", Query{Algo: "nm"}, uniform(100), uniform(100), "nm"},
		{"explicit parallel sizes pool", Query{Algo: "parallel"}, uniform(100), uniform(100), "parallel"},
	}
	for _, tc := range cases {
		ex, err := plan(tc.q, tc.left, tc.right)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ex.Reason == "" {
			t.Errorf("%s: plan gave no reason", tc.name)
		}
		pl := ex.Plan
		if pl.Algo != tc.wantAlgo {
			t.Errorf("%s: planned %q, want %q", tc.name, pl.Algo, tc.wantAlgo)
		}
		if pl.Algo == "parallel" && (pl.Workers < 1 || pl.Workers > runtime.GOMAXPROCS(0)) {
			t.Errorf("%s: workers %d out of [1, GOMAXPROCS]", tc.name, pl.Workers)
		}
		if pl.Algo != "parallel" && pl.Workers != 0 {
			t.Errorf("%s: serial plan carries workers %d", tc.name, pl.Workers)
		}
	}

	// PM and FM are Fig. 7 baselines the service does not run.
	for _, algo := range []string{"pbsm", "pm", "fm"} {
		if _, err := plan(Query{Algo: algo}, uniform(10), uniform(10)); err == nil {
			t.Fatalf("unknown algo %q accepted", algo)
		}
	}

	// With GOMAXPROCS pinned at 4, two datasets of 2·autoPointsPerWorker
	// live points each size a four-worker pool: auto plans parallel.
	big := uniform(2 * autoPointsPerWorker)
	for _, d := range []*Dataset{big, skewed(2 * autoPointsPerWorker)} {
		ex, err := plan(Query{}, d, big)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Plan.Algo != "parallel" || ex.Reason == "" {
			t.Errorf("auto large join planned %q (reason %q), want parallel", ex.Plan.Algo, ex.Reason)
		}
	}
}

// TestConcurrentAutoAndGridJoins drives the new planner paths (auto->grid
// and explicit grid) from many goroutines against one service while a
// writer re-ingests, so `go test -race` patrols the grid execution path
// and the datasets' publication through the registry.
func TestConcurrentAutoAndGridJoins(t *testing.T) {
	svc := New(Config{CacheEntries: -1})
	if _, err := svc.Ingest("p", dataset.Uniform(400, 71)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("q", dataset.Uniform(400, 72)); err != nil {
		t.Fatal(err)
	}

	queries := []Query{
		{Left: "p", Right: "q"},               // auto -> grid
		{Left: "p", Right: "q", Algo: "grid"}, // explicit grid
		{Left: "p", Right: "q", Algo: "nm"},   // serial baseline
		{Left: "q", Right: "p", Algo: "grid"}, // reversed operands
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		q := queries[i%len(queries)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				out, err := svc.Join(context.Background(), q, execHooks{})
				if err != nil {
					t.Errorf("join %+v: %v", q, err)
					return
				}
				if out.Result.Count == 0 {
					t.Errorf("join %+v: empty result", q)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			if _, err := svc.Ingest("p", dataset.Uniform(400, int64(100+j))); err != nil {
				t.Errorf("re-ingest: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// doneProbe is a context that reports the first call of its Done method.
// Join consults ctx.Done only where it blocks — a leader queueing for
// admission, a follower waiting on the leader's flight — so the signal
// says the caller has reached that point.
type doneProbe struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newDoneProbe() *doneProbe {
	return &doneProbe{Context: context.Background(), waiting: make(chan struct{})}
}

func (c *doneProbe) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestTracedFollowerGetsLeaderSpans: a trace: true request that joins an
// untraced request's in-flight computation answers cached, with the
// leader's spans as its trace block. The test holds the only admission
// slot so the leader queues with its flight registered, and releases it
// once the follower waits on that flight.
func TestTracedFollowerGetsLeaderSpans(t *testing.T) {
	svc := New(Config{CacheEntries: -1, MaxConcurrent: 1})
	if _, err := svc.Ingest("p", dataset.Uniform(300, 141)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("q", dataset.Uniform(300, 142)); err != nil {
		t.Fatal(err)
	}
	svc.admit <- struct{}{}

	leaderCtx := newDoneProbe()
	leader := make(chan *Outcome, 1)
	go func() {
		out, err := svc.Join(leaderCtx, Query{Left: "p", Right: "q", Algo: "nm"}, execHooks{})
		if err != nil {
			t.Error(err)
		}
		leader <- out
	}()
	<-leaderCtx.waiting

	followerCtx := newDoneProbe()
	req := httptest.NewRequest("POST", "/join", strings.NewReader(`{"left":"p","right":"q","algo":"nm","trace":true}`))
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		svc.Handler().ServeHTTP(rec, req.WithContext(followerCtx))
		close(served)
	}()
	<-followerCtx.waiting
	<-svc.admit

	out := <-leader
	<-served
	if out == nil || out.Cached {
		t.Fatalf("leader outcome %+v, want a computed result", out)
	}
	var resp JoinResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatalf("follower response (status %d): %v", rec.Code, err)
	}
	if !resp.Cached {
		t.Fatal("follower did not share the leader's computation")
	}
	got, _ := json.Marshal(resp.Trace)
	want, _ := json.Marshal(NewTraceJSON(out.Result.Trace, out.Result.TraceDropped))
	if resp.Trace == nil || !bytes.Equal(got, want) {
		t.Fatalf("follower trace %s, want the leader's %s", got, want)
	}
	if got := svc.StatsSnapshot().JoinsComputed; got != 1 {
		t.Fatalf("joins computed = %d, want 1", got)
	}
}
