package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
	"cij/internal/geom"
	"cij/internal/service"
)

// newTestServer spins a service (default config unless cfg given) with the
// two named pointsets ingested, behind httptest.
func newTestServer(t *testing.T, cfg service.Config, p, q []geom.Point) (*service.Service, *httptest.Server) {
	t.Helper()
	svc := service.New(cfg)
	if _, err := svc.Ingest("p", p); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("q", q); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// postJoin issues POST /join and decodes the response.
func postJoin(t *testing.T, ts *httptest.Server, req service.JoinRequest) service.JoinResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /join %+v: status %d", req, resp.StatusCode)
	}
	var jr service.JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// streamJoin issues GET /join/stream and parses the NDJSON stream into
// pair set, progress count and the summary line.
func streamJoin(t *testing.T, ts *httptest.Server, params string) (map[core.Pair]bool, int, service.StreamSummary) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/join/stream?" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /join/stream?%s: status %d", params, resp.StatusCode)
	}
	pairs := make(map[core.Pair]bool)
	progress := 0
	var summary service.StreamSummary
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if sawSummary {
			t.Fatalf("line after summary: %s", sc.Text())
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "pair":
			var p service.StreamPair
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatal(err)
			}
			pairs[core.Pair{P: p.P, Q: p.Q}] = true
		case "progress":
			progress++
		case "trace":
			// Parsed by the dedicated trace tests; tolerated here so shared
			// callers keep working with &trace=1.
		case "summary":
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
		default:
			t.Fatalf("unknown stream line type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}
	return pairs, progress, summary
}

// serialReference computes the reference pair set with serial NM-CIJ on
// the single-disk experiment environment.
func serialReference(t *testing.T, p, q []geom.Point) map[core.Pair]bool {
	t.Helper()
	env := exp.BuildEnv(p, q, exp.DefaultPageSize, exp.DefaultBufferPct)
	res := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.DefaultOptions())
	ref := make(map[core.Pair]bool, len(res.Pairs))
	for _, pr := range res.Pairs {
		ref[pr] = true
	}
	return ref
}

func pairSet(pairs []service.PairJSON) map[core.Pair]bool {
	m := make(map[core.Pair]bool, len(pairs))
	for _, p := range pairs {
		m[core.Pair{P: p.P, Q: p.Q}] = true
	}
	return m
}

func sameSet(t *testing.T, label string, got, want map[core.Pair]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("%s: missing pair %+v", label, p)
		}
	}
}

// testDistributions is the uniform × clustered grid of the acceptance
// criteria at test-friendly cardinality.
func testDistributions() map[string][2][]geom.Point {
	return map[string][2][]geom.Point{
		"uniform":   {dataset.Uniform(400, 11), dataset.Uniform(400, 12)},
		"clustered": {dataset.Clustered(400, 16, 13), dataset.Clustered(400, 12, 14)},
	}
}

// TestJoinEquivalence is the acceptance criterion: pairs returned via
// POST /join and streamed via GET /join/stream are set-equal to serial
// core results for every served algorithm × distribution cell. The streaming
// check runs with the cache disabled, so it exercises the live emission
// path; the buffered check also covers the parallel plan.
func TestJoinEquivalence(t *testing.T) {
	for dist, pq := range testDistributions() {
		p, q := pq[0], pq[1]
		want := serialReference(t, p, q)
		_, buffered := newTestServer(t, service.Config{}, p, q)
		_, streaming := newTestServer(t, service.Config{CacheEntries: -1}, p, q)
		for _, algo := range []string{"nm", "parallel", "grid"} {
			jr := postJoin(t, buffered, service.JoinRequest{Left: "p", Right: "q", Algo: algo, Workers: 2})
			if jr.Cached {
				t.Fatalf("%s/%s: first join reported cached", dist, algo)
			}
			sameSet(t, fmt.Sprintf("%s/%s POST /join", dist, algo), pairSet(jr.Pairs), want)
			if jr.Count != int64(len(want)) {
				t.Fatalf("%s/%s: count %d, want %d", dist, algo, jr.Count, len(want))
			}

			got, _, summary := streamJoin(t, streaming, "left=p&right=q&algo="+algo+"&workers=2")
			sameSet(t, fmt.Sprintf("%s/%s GET /join/stream", dist, algo), got, want)
			if summary.Count != int64(len(want)) {
				t.Fatalf("%s/%s stream summary: count %d, want %d", dist, algo, summary.Count, len(want))
			}
		}
	}
}

// TestRemovedAlgosRejected: PM-CIJ and FM-CIJ are the paper's Fig. 7
// baselines, run by cijtool and cijbench but not served. Asking for them
// is the client's 400 on every join route — buffered, explain-only and
// streamed — and the error lists the algorithms the service runs.
func TestRemovedAlgosRejected(t *testing.T) {
	p, q := dataset.Uniform(100, 15), dataset.Uniform(100, 16)
	svc, _ := newTestServer(t, service.Config{}, p, q)
	h := svc.Handler()
	const want = "nm, parallel, grid or auto"
	for _, algo := range []string{"pm", "fm"} {
		body := fmt.Sprintf(`{"left":"p","right":"q","algo":%q}`, algo)
		for _, route := range []string{"POST /join", "POST /join?explain=1", "GET /join/stream?left=p&right=q&algo=" + algo} {
			method, target, _ := strings.Cut(route, " ")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
			var e struct{ Error string }
			json.NewDecoder(rec.Body).Decode(&e)
			if rec.Code != http.StatusBadRequest || !strings.Contains(e.Error, want) {
				t.Errorf("%s: status %d, error %q; want 400 naming %q", route, rec.Code, e.Error, want)
			}
		}
	}
	if got := svc.StatsSnapshot().JoinsServed; got != 0 {
		t.Fatalf("rejected requests served %d joins", got)
	}
}

// TestJoinRejectsUnknownFields: a misspelled field in a join body is a
// 400 naming it, on the buffered and the explain-only route, instead of a
// join that runs without the setting the client meant.
func TestJoinRejectsUnknownFields(t *testing.T) {
	p, q := dataset.Uniform(100, 17), dataset.Uniform(100, 18)
	svc, _ := newTestServer(t, service.Config{}, p, q)
	h := svc.Handler()
	for _, target := range []string{"/join", "/join?explain=1"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(misspelledJoinBody)))
		var e struct{ Error string }
		json.NewDecoder(rec.Body).Decode(&e)
		if rec.Code != http.StatusBadRequest || !strings.Contains(e.Error, `"storge"`) {
			t.Errorf("POST %s: status %d, error %q; want 400 naming \"storge\"", target, rec.Code, e.Error)
		}
	}
	if got := svc.StatsSnapshot().JoinsServed; got != 0 {
		t.Fatalf("rejected requests served %d joins", got)
	}
}

// misspelledJoinBody asks for NM on paged storage with "storage"
// misspelled.
const misspelledJoinBody = `{"left":"p","right":"q","algo":"nm","storge":"paged","topk":1}`

// TestStreamParallelProgress checks that the parallel plan streams live
// progress lines (the exported OnProgress hook end to end).
func TestStreamParallelProgress(t *testing.T) {
	p, q := dataset.Uniform(500, 21), dataset.Uniform(500, 22)
	_, ts := newTestServer(t, service.Config{CacheEntries: -1}, p, q)
	_, progress, _ := streamJoin(t, ts, "left=p&right=q&algo=parallel&workers=2")
	if progress == 0 {
		t.Fatal("parallel stream produced no progress lines")
	}
}

// TestStreamCachedReplay: a stream after a buffered join of the same plan
// replays the memoized pairs and marks the summary cached.
func TestStreamCachedReplay(t *testing.T) {
	p, q := dataset.Uniform(300, 31), dataset.Uniform(300, 32)
	_, ts := newTestServer(t, service.Config{}, p, q)
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	got, _, summary := streamJoin(t, ts, "left=p&right=q&algo=nm")
	if !summary.Cached {
		t.Fatal("second identical join not served from cache")
	}
	sameSet(t, "cached replay", got, pairSet(jr.Pairs))
}

// TestCacheHitAndInvalidation is the acceptance criterion: a repeated
// identical join performs zero page accesses and reports a cache hit in
// /stats; ingesting a new dataset version invalidates the entry.
func TestCacheHitAndInvalidation(t *testing.T) {
	p, q := dataset.Uniform(300, 41), dataset.Uniform(300, 42)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	// Paged explicitly: the acceptance assertion below is about page
	// accesses, which auto-selected flat storage makes structurally zero.
	first := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"})
	if first.Cached {
		t.Fatal("first join reported cached")
	}
	statsAfterFirst := svc.StatsSnapshot()
	if statsAfterFirst.PageAccesses == 0 {
		t.Fatal("computed join reported zero page accesses")
	}

	second := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"})
	if !second.Cached {
		t.Fatal("second identical join not cached")
	}
	if second.Stats.PageAccesses != 0 {
		t.Fatalf("cached join reported %d page accesses, want 0", second.Stats.PageAccesses)
	}
	stats := svc.StatsSnapshot()
	if stats.PageAccesses != statsAfterFirst.PageAccesses {
		t.Fatalf("cache hit performed I/O: total %d -> %d", statsAfterFirst.PageAccesses, stats.PageAccesses)
	}
	if stats.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", stats.CacheHits)
	}
	if stats.JoinsComputed != 1 {
		t.Fatalf("joins computed = %d, want 1", stats.JoinsComputed)
	}

	// Re-ingest q (same points, new version): the cached entry must not
	// serve the new version.
	if _, err := svc.Ingest("q", q); err != nil {
		t.Fatal(err)
	}
	third := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"})
	if third.Cached {
		t.Fatal("join after re-ingest served from stale cache")
	}
	if third.RightVersion != 2 {
		t.Fatalf("right version = %d, want 2", third.RightVersion)
	}
	if got := svc.StatsSnapshot().JoinsComputed; got != 2 {
		t.Fatalf("joins computed after invalidation = %d, want 2", got)
	}
}

// TestStatsDecodeHits: a computed join over buffers large enough to keep
// pages resident records decoded-node cache hits in /stats, and a cache
// hit adds none (no execution, no decodes).
func TestStatsDecodeHits(t *testing.T) {
	p, q := dataset.Uniform(2000, 51), dataset.Uniform(2000, 52)
	// A generous buffer keeps both trees resident, so repeat node accesses
	// within the join are decode hits rather than re-parses.
	svc, ts := newTestServer(t, service.Config{BufferPct: 100}, p, q)

	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	hits := svc.StatsSnapshot().DecodeHits
	if hits == 0 {
		t.Fatal("computed join over resident trees recorded no decode hits")
	}
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	if got := svc.StatsSnapshot().DecodeHits; got != hits {
		t.Fatalf("cached join changed decode hits: %d -> %d", hits, got)
	}
}

// TestTopK: the response caps pairs at topk while count and cache keep the
// full result.
func TestTopK(t *testing.T) {
	p, q := dataset.Uniform(300, 51), dataset.Uniform(300, 52)
	_, ts := newTestServer(t, service.Config{}, p, q)
	full := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	capped := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", TopK: 5})
	if !capped.Cached {
		t.Fatal("topk variant missed the cache (topk must not fragment keys)")
	}
	if len(capped.Pairs) != 5 {
		t.Fatalf("topk=5 returned %d pairs", len(capped.Pairs))
	}
	if capped.Count != full.Count {
		t.Fatalf("topk count %d, want full %d", capped.Count, full.Count)
	}

	got, _, _ := streamJoin(t, ts, "left=p&right=q&algo=nm&topk=5")
	if len(got) != 5 {
		t.Fatalf("stream topk=5 emitted %d pairs", len(got))
	}
}

// TestPlannerSelection checks the auto plan through the response: small
// near-uniform joins go to the in-memory grid backend, an explicit worker
// count goes parallel.
func TestPlannerSelection(t *testing.T) {
	p, q := dataset.Uniform(200, 61), dataset.Uniform(200, 62)
	_, ts := newTestServer(t, service.Config{}, p, q)
	if jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q"}); jr.Algo != "grid" {
		t.Fatalf("auto plan on small uniform join = %q, want grid", jr.Algo)
	}
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Workers: 2})
	if jr.Algo != "parallel" {
		t.Fatalf("auto plan with workers=2 = %q, want parallel", jr.Algo)
	}
	if jr.Workers < 1 || jr.Workers > 2 {
		t.Fatalf("planned workers = %d, want 1..2", jr.Workers)
	}
}

// TestIngestHTTP covers the generator and CSV ingest paths plus their
// error cases.
func TestIngestHTTP(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := post("/datasets/gen1?gen=uniform&n=500&seed=7", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generator ingest: status %d: %s", resp.StatusCode, body)
	}
	var info service.DatasetInfo
	json.Unmarshal(body, &info)
	if info.Points != 500 || info.Version != 1 {
		t.Fatalf("generator ingest info = %+v", info)
	}

	resp, _ = post("/datasets/csv1", "1,2\n3,4\n5,6\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("CSV ingest: status %d", resp.StatusCode)
	}

	for _, bad := range []struct{ path, body string }{
		{"/datasets/bad|name", "1,2\n"},          // invalid name
		{"/datasets/empty", ""},                  // no points
		{"/datasets/malformed", "1,2\nnope\n"},   // bad row
		{"/datasets/badgen?gen=uniform", ""},     // n missing
		{"/datasets/badkind?gen=hexagonal", ""},  // unknown generator
		{"/datasets/badn?gen=uniform&n=zap", ""}, // unparsable n
	} {
		if resp, _ := post(bad.path, bad.body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d, want 400", bad.path, resp.StatusCode)
		}
	}

	// Unknown datasets in a join are the client's fault.
	body, _ = json.Marshal(service.JoinRequest{Left: "gen1", Right: "ghost"})
	resp2, err := http.Post(ts.URL+"/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("join on unknown dataset: status %d, want 400", resp2.StatusCode)
	}
}

// TestIngestGeneratorBound: a generator ingest asking for more points or
// clusters than a CSV body under the ingest cap can carry is the client's
// 400, not an allocation sized by the query string; the smoke scripts'
// size still ingests.
func TestIngestGeneratorBound(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"gen=uniform&n=35184372088832", http.StatusBadRequest},
		{"gen=clustered&n=100&clusters=35184372088832", http.StatusBadRequest},
		{"gen=uniform&n=2000&seed=1", http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/datasets/gen?"+tc.query, "text/csv", nil)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST /datasets/gen?%s: status %d (%s), want %d", tc.query, resp.StatusCode, body.String(), tc.want)
		}
	}
}

// TestIngestRejectsNonFiniteCoordinates: a CSV body with a NaN, an
// infinity or a coordinate too large to normalize is the client's fault —
// 400 naming the line, and no dataset registered under the name.
func TestIngestRejectsNonFiniteCoordinates(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for i, body := range []string{"1,2\nNaN,4\n", "1,2\n3,Inf\n", "1,2\n-inf,4\n", "1,2\n3,1e308\n"} {
		name := fmt.Sprintf("nonfinite%d", i)
		resp, err := http.Post(ts.URL+"/datasets/"+name, "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "line 2") {
			t.Errorf("POST %q: status %d, error %q; want 400 naming line 2", body, resp.StatusCode, e.Error)
		}
		if _, ok := svc.Registry().Get(name); ok {
			t.Errorf("POST %q registered dataset %s", body, name)
		}
	}
}

// TestConcurrentJoins hammers one service from many goroutines across
// plans, datasets and both endpoints — the race-detector workout for the
// registry, cache, admission and per-request buffer forking.
func TestConcurrentJoins(t *testing.T) {
	p, q := dataset.Uniform(300, 71), dataset.Clustered(300, 8, 72)
	svc, ts := newTestServer(t, service.Config{MaxConcurrent: 2}, p, q)
	want := serialReference(t, p, q)

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch (g + i) % 3 {
				case 0:
					body, _ := json.Marshal(service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
					resp, err := http.Post(ts.URL+"/join", "application/json", bytes.NewReader(body))
					if err != nil {
						errCh <- err
						continue
					}
					var jr service.JoinResponse
					json.NewDecoder(resp.Body).Decode(&jr)
					resp.Body.Close()
					if int(jr.Count) != len(want) {
						errCh <- fmt.Errorf("goroutine %d: count %d, want %d", g, jr.Count, len(want))
					}
				case 1:
					resp, err := http.Get(ts.URL + "/join/stream?left=p&right=q&algo=parallel&workers=2")
					if err != nil {
						errCh <- err
						continue
					}
					resp.Body.Close() // early close: the stream must tolerate it
				case 2:
					if _, err := svc.Ingest("scratch", dataset.Uniform(100, int64(100+g))); err != nil {
						errCh <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// The service must still answer coherently after the storm.
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	sameSet(t, "post-storm join", pairSet(jr.Pairs), want)
	if svc.InFlight() != 0 {
		t.Fatalf("in-flight = %d after all requests done", svc.InFlight())
	}
}

// TestRegistryVersioning: versions move strictly forward per name and
// List is sorted.
func TestRegistryVersioning(t *testing.T) {
	svc := service.New(service.Config{})
	for i := 1; i <= 3; i++ {
		d, err := svc.Ingest("b", dataset.Uniform(50, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if d.Version != i {
			t.Fatalf("version after ingest %d = %d", i, d.Version)
		}
	}
	if _, err := svc.Ingest("a", dataset.Uniform(50, 9)); err != nil {
		t.Fatal(err)
	}
	list := svc.Registry().List()
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("List() = %v", list)
	}
}

// TestSingleFlight: a burst of identical first-time queries executes the
// join once; followers share the leader's result and report cached.
func TestSingleFlight(t *testing.T) {
	p, q := dataset.Uniform(400, 81), dataset.Uniform(400, 82)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	const burst = 6
	var wg sync.WaitGroup
	responses := make([]service.JoinResponse, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
		}(i)
	}
	wg.Wait()

	if got := svc.StatsSnapshot().JoinsComputed; got != 1 {
		t.Fatalf("burst of %d identical joins computed %d times, want 1", burst, got)
	}
	for i := 1; i < burst; i++ {
		if responses[i].Count != responses[0].Count {
			t.Fatalf("response %d count %d differs from leader's %d", i, responses[i].Count, responses[0].Count)
		}
	}
}

// TestExplicitWorkersOne: auto plan honors workers=1 (a client bounding
// its CPU share must not be upgraded to a full-machine pool).
func TestExplicitWorkersOne(t *testing.T) {
	p, q := dataset.Uniform(200, 91), dataset.Uniform(200, 92)
	_, ts := newTestServer(t, service.Config{}, p, q)
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Workers: 1})
	if jr.Algo != "parallel" || jr.Workers != 1 {
		t.Fatalf("workers=1 planned %s/w%d, want parallel/w1", jr.Algo, jr.Workers)
	}
}

// fuzzService is the one small service a fuzz target drives: two
// 40-point datasets and no result cache, so every valid join executes.
func fuzzService(f *testing.F) *service.Service {
	svc := service.New(service.Config{CacheEntries: -1})
	if _, err := svc.Ingest("p", dataset.Uniform(40, 1)); err != nil {
		f.Fatal(err)
	}
	if _, err := svc.Ingest("q", dataset.Clustered(40, 4, 2)); err != nil {
		f.Fatal(err)
	}
	return svc
}

// serveBelow500 sends one request through the handler and fails on a 5xx
// status. The middleware answers a recovered panic with 500, so this also
// proves the request panicked nowhere.
func serveBelow500(t *testing.T, h http.Handler, method, path, rawQuery string, body []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.URL.RawQuery = rawQuery
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code >= http.StatusInternalServerError {
		t.Fatalf("%s %s?%s with body %q: status %d: %s", method, path, rawQuery, body, rec.Code, rec.Body)
	}
}

// FuzzJoinRequest: whatever body POST /join gets under whatever query
// string (explain=1 among them), and whatever query string GET
// /join/stream gets, the handlers answer below 500. Seeded with the
// query shapes of TestPlanSelection, the algorithms the service no
// longer runs, both storage modes and a misspelled field.
func FuzzJoinRequest(f *testing.F) {
	h := fuzzService(f).Handler()
	for _, req := range []service.JoinRequest{
		{Left: "p", Right: "q"},
		{Left: "p", Right: "q", Workers: 1},
		{Left: "p", Right: "q", Algo: "grid"},
		{Left: "p", Right: "q", Algo: "nm", Storage: "paged", Trace: true},
		{Left: "p", Right: "q", Algo: "parallel", Storage: "flat", Workers: 2, TopK: 3},
		{Left: "q", Right: "p", Algo: "pbsm"},
		{Left: "p", Right: "q", Algo: "pm"},
		{Left: "p", Right: "ghost", Algo: "fm", TopK: -1},
	} {
		body, _ := json.Marshal(req)
		stream := url.Values{"left": {req.Left}, "right": {req.Right}, "algo": {req.Algo}, "storage": {req.Storage},
			"workers": {fmt.Sprint(req.Workers)}, "topk": {fmt.Sprint(req.TopK)}, "trace": {fmt.Sprint(req.Trace)}}
		f.Add(body, "", stream.Encode())
		f.Add(body, "explain=1", stream.Encode())
	}
	f.Add([]byte(misspelledJoinBody), "", "")
	f.Add([]byte(misspelledJoinBody), "explain=1", "")
	f.Fuzz(func(t *testing.T, body []byte, query, streamQuery string) {
		serveBelow500(t, h, http.MethodPost, "/join", query, body)
		serveBelow500(t, h, http.MethodGet, "/join/stream", streamQuery, nil)
	})
}
