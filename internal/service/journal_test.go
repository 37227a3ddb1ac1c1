package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"cij/internal/dataset"
	"cij/internal/obs"
	"cij/internal/service"
)

// mkRec builds a minimal journal record for the ring unit tests.
func mkRec(id int64, left, algo string, wallMS float64) service.JournalRecord {
	return service.JournalRecord{
		ID: id, Left: left, Right: "q", Algo: algo,
		Stats: service.JoinStatsJSON{WallMS: wallMS},
	}
}

// TestJournalRingWraparound: the ring keeps the newest entries-capacity
// records, each with its run's spans, lists them newest first without
// the spans, and filters by dataset/algo/latency.
func TestJournalRingWraparound(t *testing.T) {
	j := service.NewJournal(4, nil)
	for i := int64(1); i <= 6; i++ {
		algo := "nm"
		if i%2 == 0 {
			algo = "grid"
		}
		j.Add(mkRec(i, fmt.Sprintf("d%d", i), algo, float64(i)),
			[]obs.Span{{Phase: "join", Wall: time.Duration(i) * time.Millisecond}})
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	if j.Total() != 6 {
		t.Fatalf("Total = %d, want 6", j.Total())
	}
	recs, total := j.Recent(service.JournalFilter{})
	if total != 6 {
		t.Fatalf("Recent total = %d, want 6", total)
	}
	wantIDs := []int64{6, 5, 4, 3}
	if len(recs) != len(wantIDs) {
		t.Fatalf("Recent returned %d records, want %d", len(recs), len(wantIDs))
	}
	for i, want := range wantIDs {
		if recs[i].ID != want {
			t.Fatalf("Recent[%d].ID = %d, want %d (newest first)", i, recs[i].ID, want)
		}
		if recs[i].Trace != nil {
			t.Fatalf("Recent[%d] carries a trace; listings leave it off", i)
		}
		// Each record in the ring still has its own run's span.
		rec, ok := j.Get(want)
		if !ok || rec.Left != fmt.Sprintf("d%d", want) || rec.Trace == nil ||
			len(rec.Trace.Spans) != 1 || rec.Trace.Spans[0].WallMS != float64(want) {
			t.Fatalf("Get(%d) = %+v, %v, want its record with its %d ms span", want, rec, ok, want)
		}
	}
	// IDs 1 and 2 fell off the ring, and their spans with them.
	for _, id := range []int64{1, 2} {
		if rec, ok := j.Get(id); ok {
			t.Fatalf("Get(%d) found a record the ring should have dropped: %+v", id, rec)
		}
	}

	// Filters: dataset, algo, latency floor, limit.
	if recs, _ := j.Recent(service.JournalFilter{Dataset: "d5"}); len(recs) != 1 || recs[0].ID != 5 {
		t.Fatalf("dataset filter: %+v", recs)
	}
	if recs, _ := j.Recent(service.JournalFilter{Algo: "grid"}); len(recs) != 2 {
		t.Fatalf("algo filter returned %d records, want 2", len(recs))
	}
	if recs, _ := j.Recent(service.JournalFilter{MinWallMS: 5}); len(recs) != 2 {
		t.Fatalf("min-latency filter returned %d records, want 2 (5ms and 6ms)", len(recs))
	}
	if recs, _ := j.Recent(service.JournalFilter{Limit: 1}); len(recs) != 1 || recs[0].ID != 6 {
		t.Fatalf("limit filter: %+v", recs)
	}
}

// TestJournalStatsReconcile is the accounting acceptance test: one
// computed join's journal record must carry byte-identical stats to its
// JoinResponse, and both must equal the /metrics counter deltas the join
// produced.
func TestJournalStatsReconcile(t *testing.T) {
	p, q := dataset.Clustered(500, 5, 71), dataset.Clustered(500, 5, 72)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	before := scrapeMetrics(t, ts.URL)
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"})
	after := scrapeMetrics(t, ts.URL)
	if jr.QueryID == 0 {
		t.Fatal("response carries no query_id")
	}
	if jr.Cached {
		t.Fatal("first join reported cached")
	}

	// Journal record vs response: the Stats blocks must marshal to the
	// same bytes.
	rec, ok := svc.Journal().Get(jr.QueryID)
	if !ok {
		t.Fatalf("query %d not journaled", jr.QueryID)
	}
	recStats, _ := json.Marshal(rec.Stats)
	respStats, _ := json.Marshal(jr.Stats)
	if !bytes.Equal(recStats, respStats) {
		t.Fatalf("journal stats %s != response stats %s", recStats, respStats)
	}
	if rec.Pairs != jr.Count {
		t.Fatalf("journal pairs %d != response count %d", rec.Pairs, jr.Count)
	}
	if rec.Reason == "" || rec.Inputs.TotalPoints != 1000 {
		t.Fatalf("journal record lacks planner context: %+v", rec)
	}

	// The same numbers must appear as /metrics deltas.
	delta := func(family string) int64 { return int64(after[family] - before[family]) }
	for family, want := range map[string]int64{
		"cij_pages_read_total":    rec.Stats.PagesRead,
		"cij_logical_reads_total": rec.Stats.LogicalReads,
		"cij_decode_hits_total":   rec.Stats.DecodeHits,
		"cij_decode_misses_total": rec.Stats.DecodeMisses,
		"cij_cache_misses_total":  1,
		"cij_cache_hits_total":    0,
	} {
		if got := delta(family); got != want {
			t.Fatalf("%s moved %d, journal says %d", family, got, want)
		}
	}
	if rec.Stats.LogicalReads == 0 || rec.Stats.PagesRead == 0 {
		t.Fatal("paged nm join reported no I/O; the reconciliation test is vacuous")
	}

	// The HTTP view of the same record agrees.
	var httpRec service.JournalRecord
	getJSON(t, ts.URL+fmt.Sprintf("/debug/queries/%d", jr.QueryID), &httpRec)
	httpStats, _ := json.Marshal(httpRec.Stats)
	if !bytes.Equal(httpStats, respStats) {
		t.Fatalf("GET /debug/queries/%d stats %s != response stats %s", jr.QueryID, httpStats, respStats)
	}

	// A repeat of the same join is a cache hit: journaled as cached, pure
	// wall time (no I/O), and the hit counter moves.
	jr2 := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"})
	if !jr2.Cached || jr2.QueryID == jr.QueryID {
		t.Fatalf("repeat join: cached=%v id=%d", jr2.Cached, jr2.QueryID)
	}
	rec2, ok := svc.Journal().Get(jr2.QueryID)
	if !ok || !rec2.Cached {
		t.Fatalf("cache hit not journaled as cached: %+v", rec2)
	}
	if rec2.Stats.PageAccesses != 0 || rec2.Stats.LogicalReads != 0 {
		t.Fatalf("cached record reports I/O: %+v", rec2.Stats)
	}
	final := scrapeMetrics(t, ts.URL)
	if final["cij_cache_hits_total"]-after["cij_cache_hits_total"] != 1 {
		t.Fatal("cache hit did not tick cij_cache_hits_total")
	}
}

// getJSON fetches url and decodes the body.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestJournalConcurrent: concurrent joins (computed, cached, single-
// flighted) all land in the journal exactly once with distinct IDs, every
// computed one with its spans and no cache hit with any. Run under -race
// this doubles as the locking test for the ring.
func TestJournalConcurrent(t *testing.T) {
	p, q := dataset.Uniform(300, 81), dataset.Uniform(300, 82)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	const goroutines, perG = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				algo := []string{"nm", "grid"}[(g+i)%2]
				body, _ := json.Marshal(service.JoinRequest{Left: "p", Right: "q", Algo: algo, TopK: 1})
				resp, err := http.Post(ts.URL+"/join", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	j := svc.Journal()
	if j.Total() != goroutines*perG {
		t.Fatalf("journaled %d observations, want %d", j.Total(), goroutines*perG)
	}
	recs, _ := j.Recent(service.JournalFilter{Limit: goroutines * perG})
	seen := make(map[int64]bool)
	computed := 0
	for _, rec := range recs {
		if seen[rec.ID] {
			t.Fatalf("duplicate query ID %d", rec.ID)
		}
		seen[rec.ID] = true
		full, ok := j.Get(rec.ID)
		if !ok {
			t.Fatalf("listed query %d not in the ring", rec.ID)
		}
		if traced := full.Trace != nil && len(full.Trace.Spans) > 0; traced == rec.Cached {
			t.Fatalf("query %d: cached %v, traced %v; every computed run keeps its spans and no cache hit has any", rec.ID, rec.Cached, traced)
		}
		if !rec.Cached {
			computed++
		}
	}
	if computed == 0 || computed == len(recs) {
		t.Fatalf("%d of %d joins computed; the test needs both computed runs and cache hits", computed, len(recs))
	}
}

// TestJournalSinkRoundTrip: the JSONL sink replays losslessly through
// ReadJournal, with computed lines carrying their phase traces.
func TestJournalSinkRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	p, q := dataset.Uniform(300, 91), dataset.Uniform(300, 92)
	svc, ts := newTestServer(t, service.Config{JournalSink: &sink}, p, q)

	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"}) // cache hit
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "grid"})

	recs, err := service.ReadJournal(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("sink replayed %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		ring, ok := svc.Journal().Get(rec.ID)
		if !ok {
			t.Fatalf("sink line %d (id %d) not in the ring", i, rec.ID)
		}
		ringStats, _ := json.Marshal(ring.Stats)
		sinkStats, _ := json.Marshal(rec.Stats)
		if !bytes.Equal(ringStats, sinkStats) {
			t.Fatalf("sink line %d stats %s != ring stats %s", i, sinkStats, ringStats)
		}
		if rec.Cached != ring.Cached {
			t.Fatalf("sink line %d cached=%v, ring says %v", i, rec.Cached, ring.Cached)
		}
		// Computed lines keep the phase breakdown (the training corpus);
		// cached lines have no run of their own.
		if !rec.Cached && (rec.Trace == nil || len(rec.Trace.Spans) == 0) {
			t.Fatalf("computed sink line %d lacks its trace", i)
		}
		if rec.Cached && rec.Trace != nil {
			t.Fatalf("cached sink line %d carries a trace", i)
		}
	}
}

// TestDebugQueriesEndpoints: listing, filtering, the single-record view
// and the Chrome trace export over HTTP.
func TestDebugQueriesEndpoints(t *testing.T) {
	p, q := dataset.Uniform(300, 101), dataset.Uniform(300, 102)
	_, ts := newTestServer(t, service.Config{}, p, q)
	jrNM := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "grid"})

	var list service.QueriesResponse
	getJSON(t, ts.URL+"/debug/queries", &list)
	if list.Total != 2 || list.Returned != 2 {
		t.Fatalf("list: total %d returned %d, want 2/2", list.Total, list.Returned)
	}
	if list.Queries[0].ID < list.Queries[1].ID {
		t.Fatal("list not newest first")
	}
	if list.Queries[0].Trace != nil || list.Queries[1].Trace != nil {
		t.Fatal("listed records carry traces; only the {id} view does")
	}

	var filtered service.QueriesResponse
	getJSON(t, ts.URL+"/debug/queries?algo=nm", &filtered)
	if filtered.Returned != 1 || filtered.Queries[0].Algo != "nm" {
		t.Fatalf("algo filter: %+v", filtered)
	}
	getJSON(t, ts.URL+"/debug/queries?min_ms=0&dataset=p&limit=1", &filtered)
	if filtered.Returned != 1 {
		t.Fatalf("combined filter returned %d", filtered.Returned)
	}

	// Single record: the nm join is computed, so its record keeps its
	// trace and the {id} view embeds it.
	var rec service.JournalRecord
	getJSON(t, ts.URL+fmt.Sprintf("/debug/queries/%d", jrNM.QueryID), &rec)
	if rec.ID != jrNM.QueryID || rec.Trace == nil || len(rec.Trace.Spans) == 0 {
		t.Fatalf("single-record view: %+v", rec)
	}

	// Chrome export: required trace-event fields on every event.
	resp, err := http.Get(ts.URL + fmt.Sprintf("/debug/queries/%d/trace.json", jrNM.QueryID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace.json: status %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace.json has no events")
	}
	for i, ev := range chrome.TraceEvents {
		for _, key := range []string{"ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("trace.json event %d lacks %q", i, key)
			}
		}
	}

	// A cache hit ran nothing: its record has no trace, and its
	// trace.json 404s like an unknown ID's.
	hit := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	var hitRec service.JournalRecord
	getJSON(t, ts.URL+fmt.Sprintf("/debug/queries/%d", hit.QueryID), &hitRec)
	if !hit.Cached || hitRec.ID != hit.QueryID || hitRec.Trace != nil {
		t.Fatalf("cache hit (cached %v): record %+v, want no trace", hit.Cached, hitRec)
	}

	// Unknown IDs, bad IDs and the cache hit's trace.
	for path, want := range map[string]int{
		"/debug/queries/999999":                                  http.StatusNotFound,
		"/debug/queries/999999/trace.json":                       http.StatusNotFound,
		"/debug/queries/bogus":                                   http.StatusBadRequest,
		fmt.Sprintf("/debug/queries/%d/trace.json", hit.QueryID): http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestStatsHistoryEndpoint: the self-scraped ring serves windowed rates,
// quantiles and the per-sample series over HTTP.
func TestStatsHistoryEndpoint(t *testing.T) {
	p, q := dataset.Uniform(300, 121), dataset.Uniform(300, 122)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	svc.History().Sample()
	time.Sleep(5 * time.Millisecond)
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"}) // hit
	svc.History().Sample()

	var hist service.HistoryResponse
	getJSON(t, ts.URL+"/stats/history", &hist)
	if hist.Samples != 2 || hist.TotalTaken != 2 {
		t.Fatalf("samples = %d/%d, want 2/2", hist.Samples, hist.TotalTaken)
	}
	if hist.SpanMS <= 0 {
		t.Fatalf("span = %gms, want > 0", hist.SpanMS)
	}
	if hist.JoinsPerSec <= 0 || hist.RequestsPerSec <= 0 {
		t.Fatalf("rates not computed: joins %g req %g", hist.JoinsPerSec, hist.RequestsPerSec)
	}
	if hist.CacheHits != 1 || hist.CacheMisses != 1 || hist.CacheHitRatio != 0.5 {
		t.Fatalf("cache window: hits %g misses %g ratio %g", hist.CacheHits, hist.CacheMisses, hist.CacheHitRatio)
	}
	if hist.JoinLatency.P99 <= 0 {
		t.Fatalf("join p99 = %g, want > 0", hist.JoinLatency.P99)
	}
	if len(hist.Series) != 2 {
		t.Fatalf("series holds %d points, want 2", len(hist.Series))
	}
	if hist.Series[1].Joins-hist.Series[0].Joins != 2 {
		t.Fatalf("series joins delta = %g, want 2", hist.Series[1].Joins-hist.Series[0].Joins)
	}
	if hist.Series[1].Goroutines <= 0 {
		t.Fatal("series lacks runtime gauges")
	}

	// Explicit window and validation.
	getJSON(t, ts.URL+"/stats/history?window=1h", &hist)
	if hist.Samples != 2 {
		t.Fatalf("1h window dropped samples: %d", hist.Samples)
	}
	resp, err := http.Get(ts.URL + "/stats/history?window=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad window: status %d, want 400", resp.StatusCode)
	}
}

// TestExplainObserved: explain reports the journal's matching history
// next to the model — the modeled-vs-observed loop.
func TestExplainObserved(t *testing.T) {
	p, q := dataset.Uniform(300, 131), dataset.Uniform(300, 132)
	_, ts := newTestServer(t, service.Config{}, p, q)

	explain := func() service.Explanation {
		t.Helper()
		body, _ := json.Marshal(service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
		resp, err := http.Post(ts.URL+"/join?explain=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ex service.Explanation
		if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
			t.Fatal(err)
		}
		return ex
	}

	ex := explain()
	if ex.Observed == nil {
		t.Fatal("explain omitted the observed block with the journal enabled")
	}
	if ex.Observed.Matches != 0 {
		t.Fatalf("observed %d matches before any join", ex.Observed.Matches)
	}

	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	ex = explain()
	if ex.Observed.Matches != 1 {
		t.Fatalf("observed %d matches after one computed join, want 1", ex.Observed.Matches)
	}
	if ex.Observed.LastID != jr.QueryID {
		t.Fatalf("observed last_id = %d, want %d", ex.Observed.LastID, jr.QueryID)
	}
	if ex.Observed.MeanWallMS != jr.Stats.WallMS {
		t.Fatalf("observed mean %g != measured %g", ex.Observed.MeanWallMS, jr.Stats.WallMS)
	}

	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"}) // cache hit
	ex = explain()
	if ex.Observed.Matches != 1 || ex.Observed.CachedMatches != 1 {
		t.Fatalf("after a hit: matches %d cached %d, want 1/1", ex.Observed.Matches, ex.Observed.CachedMatches)
	}
}
