package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cij/internal/dataset"
	"cij/internal/obs"
	"cij/internal/service"
)

// scrapeMetrics GETs /metrics, checks the exposition content type, and
// parses every sample line into name{labels} -> value.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics content type %q lacks exposition version", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[idx+1:], "%g", &v); err != nil {
			t.Fatalf("unparseable value in metrics line %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sumTrace folds a response trace block's spans into one counter total.
func sumTrace(tr *service.TraceJSON) obs.Counters {
	var total obs.Counters
	for _, sp := range tr.Spans {
		total = total.Add(sp.Counters)
	}
	return total
}

// TestTraceSumsToResponseStats is the acceptance criterion end to end: for
// every served algorithm, the per-phase I/O deltas in the response's trace
// block sum exactly to the aggregate Stats of the same response, and no
// plan writes a page.
func TestTraceSumsToResponseStats(t *testing.T) {
	p, q := dataset.Uniform(800, 101), dataset.Clustered(800, 8, 102)
	_, ts := newTestServer(t, service.Config{CacheEntries: -1}, p, q)

	for _, algo := range []string{"nm", "parallel", "grid"} {
		// Pin the tree algorithms to paged storage: this test asserts the
		// paper's page-I/O accounting, which flat (auto's pick) zeroes out.
		storage := "paged"
		if algo == "grid" {
			storage = ""
		}
		jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: algo, Storage: storage, Workers: 2, Trace: true, TopK: 1})
		if jr.Trace == nil || len(jr.Trace.Spans) == 0 {
			t.Fatalf("%s: trace requested but response has no trace block", algo)
		}
		total := sumTrace(jr.Trace)
		if total.PagesRead != jr.Stats.PagesRead ||
			total.LogicalReads != jr.Stats.LogicalReads ||
			total.DecodeHits != jr.Stats.DecodeHits ||
			total.DecodeMisses != jr.Stats.DecodeMisses {
			t.Fatalf("%s: trace totals %+v do not reconcile with response stats %+v", algo, total, jr.Stats)
		}
		if total.PagesWritten != 0 || jr.Stats.PagesWritten != 0 {
			t.Fatalf("%s wrote pages (trace %d, stats %d); served plans only read", algo, total.PagesWritten, jr.Stats.PagesWritten)
		}
		if algo == "grid" && jr.Stats.PageAccesses != 0 {
			t.Fatalf("grid reported %d page accesses", jr.Stats.PageAccesses)
		}
		if algo != "grid" && jr.Stats.PageAccesses == 0 {
			t.Fatalf("%s reported zero page accesses", algo)
		}
	}
}

// TestTraceSumsToResponseStatsFlat is the flat-storage companion: the
// trace spans still partition the run's aggregate exactly, but the run is
// decode-free — zero page accesses, zero decode misses, every node access
// a decode hit.
func TestTraceSumsToResponseStatsFlat(t *testing.T) {
	p, q := dataset.Uniform(800, 101), dataset.Clustered(800, 8, 102)
	_, ts := newTestServer(t, service.Config{CacheEntries: -1}, p, q)

	for _, algo := range []string{"nm", "parallel"} {
		jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: algo, Storage: "flat", Workers: 2, Trace: true, TopK: 1})
		if jr.Storage != "flat" {
			t.Fatalf("%s: response storage %q, want flat", algo, jr.Storage)
		}
		if jr.Trace == nil || len(jr.Trace.Spans) == 0 {
			t.Fatalf("%s: trace requested but response has no trace block", algo)
		}
		total := sumTrace(jr.Trace)
		if total.LogicalReads != jr.Stats.LogicalReads || total.DecodeHits != jr.Stats.DecodeHits {
			t.Fatalf("%s: trace totals %+v do not reconcile with response stats %+v", algo, total, jr.Stats)
		}
		if jr.Stats.PageAccesses != 0 || jr.Stats.DecodeMisses != 0 {
			t.Fatalf("%s flat run reported page I/O: %+v", algo, jr.Stats)
		}
		if jr.Stats.LogicalReads == 0 || jr.Stats.DecodeHits != jr.Stats.LogicalReads {
			t.Fatalf("%s flat run's reads are not all decode-free hits: %+v", algo, jr.Stats)
		}
	}
}

// TestTraceOnlyWhenRequested: an untraced request gets no trace block,
// even though every computed join is traced for the journal.
func TestTraceOnlyWhenRequested(t *testing.T) {
	p, q := dataset.Uniform(300, 111), dataset.Uniform(300, 112)
	_, ts := newTestServer(t, service.Config{}, p, q)
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	if jr.Trace != nil {
		t.Fatal("untraced request returned a trace block")
	}
}

// TestTraceCachedReplay: the trace flag only shapes the response. An
// untraced join followed by the same join with trace: true is a cache hit
// that replays the computed run's spans — the same phases and counters a
// traced run of that join records — and still reports zero I/O in the
// aggregate stats.
func TestTraceCachedReplay(t *testing.T) {
	p, q := dataset.Uniform(300, 121), dataset.Uniform(300, 122)
	_, ts := newTestServer(t, service.Config{}, p, q)
	req := service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"}
	postJoin(t, ts, req)
	req.Trace = true
	hit := postJoin(t, ts, req)
	if !hit.Cached {
		t.Fatal("second identical join not cached")
	}
	if hit.Trace == nil {
		t.Fatal("traced cache hit carries no trace block")
	}
	if hit.Stats.PageAccesses != 0 || hit.Stats.PagesRead != 0 {
		t.Fatalf("cached join reported I/O: %+v", hit.Stats)
	}

	_, fresh := newTestServer(t, service.Config{CacheEntries: -1}, p, q)
	want := postJoin(t, fresh, req).Trace
	if want == nil || len(hit.Trace.Spans) != len(want.Spans) {
		t.Fatalf("cached trace has %d spans, a traced run %+v", len(hit.Trace.Spans), want)
	}
	for i, sp := range hit.Trace.Spans {
		w := want.Spans[i]
		if sp.Phase != w.Phase || sp.Tag != w.Tag || sp.Counters != w.Counters {
			t.Fatalf("span %d = %s/%s %+v, a traced run has %s/%s %+v", i, sp.Phase, sp.Tag, sp.Counters, w.Phase, w.Tag, w.Counters)
		}
	}
}

// TestStreamTraceLine: &trace=1 emits one {"type":"trace"} NDJSON line
// before the summary, whose spans reconcile with the summary stats.
func TestStreamTraceLine(t *testing.T) {
	p, q := dataset.Uniform(400, 131), dataset.Uniform(400, 132)
	_, ts := newTestServer(t, service.Config{CacheEntries: -1}, p, q)

	resp, err := http.Get(ts.URL + "/join/stream?left=p&right=q&algo=nm&trace=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trace *service.StreamTrace
	var summary *service.StreamSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "trace":
			if summary != nil {
				t.Fatal("trace line after summary")
			}
			trace = new(service.StreamTrace)
			if err := json.Unmarshal(sc.Bytes(), trace); err != nil {
				t.Fatal(err)
			}
		case "summary":
			summary = new(service.StreamSummary)
			if err := json.Unmarshal(sc.Bytes(), summary); err != nil {
				t.Fatal(err)
			}
		}
	}
	if trace == nil || summary == nil {
		t.Fatalf("stream missing trace (%v) or summary (%v) line", trace != nil, summary != nil)
	}
	total := sumTrace(&trace.TraceJSON)
	if total.PagesRead != summary.Stats.PagesRead || total.DecodeHits != summary.Stats.DecodeHits {
		t.Fatalf("stream trace totals %+v do not reconcile with summary stats %+v", total, summary.Stats)
	}
}

// TestMetricsMatchJoinStats is the metric-correctness criterion: the
// /metrics deltas moved by one computed join equal the same join's
// response stats exactly, the latency histograms and request counters
// tick, and the eviction counter reflects buffer pressure.
func TestMetricsMatchJoinStats(t *testing.T) {
	p, q := dataset.Uniform(2000, 141), dataset.Uniform(2000, 142)
	_, ts := newTestServer(t, service.Config{}, p, q)

	// Paged storage, explicitly: the eviction assertion below needs the
	// LRU buffer path that flat storage bypasses.
	before := scrapeMetrics(t, ts.URL)
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged", TopK: 1})
	after := scrapeMetrics(t, ts.URL)
	delta := func(key string) int64 { return int64(after[key] - before[key]) }

	if got := delta(`cij_pages_read_total`); got != jr.Stats.PagesRead {
		t.Fatalf("cij_pages_read_total moved %d, response says %d", got, jr.Stats.PagesRead)
	}
	if got := delta(`cij_logical_reads_total`); got != jr.Stats.LogicalReads {
		t.Fatalf("cij_logical_reads_total moved %d, response says %d", got, jr.Stats.LogicalReads)
	}
	if got := delta(`cij_decode_hits_total`); got != jr.Stats.DecodeHits {
		t.Fatalf("cij_decode_hits_total moved %d, response says %d", got, jr.Stats.DecodeHits)
	}
	if got := delta(`cij_decode_misses_total`); got != jr.Stats.DecodeMisses {
		t.Fatalf("cij_decode_misses_total moved %d, response says %d", got, jr.Stats.DecodeMisses)
	}
	if got := delta(`cij_joins_total{algo="nm",source="computed"}`); got != 1 {
		t.Fatalf("computed-join counter moved %d, want 1", got)
	}
	if got := delta(`cij_join_seconds_count{algo="nm"}`); got != 1 {
		t.Fatalf("join latency histogram count moved %d, want 1", got)
	}
	if got := delta(`cij_http_requests_total{route="join",code="200"}`); got != 1 {
		t.Fatalf("http request counter moved %d, want 1", got)
	}
	if got := delta(`cij_http_request_seconds_count{route="join"}`); got != 1 {
		t.Fatalf("http latency histogram count moved %d, want 1", got)
	}
	// 2000-point trees behind a 2% buffer cannot stay resident: the view
	// buffers must have evicted.
	if got := delta(`cij_buffer_evictions_total`); got <= 0 {
		t.Fatalf("eviction counter moved %d, want > 0", got)
	}

	// A cache hit counts as served-from-cache and moves no I/O counter.
	mid := after
	second := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged", TopK: 1})
	if !second.Cached {
		t.Fatal("second identical join not cached")
	}
	final := scrapeMetrics(t, ts.URL)
	if got := final[`cij_joins_total{algo="nm",source="cached"}`] - mid[`cij_joins_total{algo="nm",source="cached"}`]; got != 1 {
		t.Fatalf("cached-join counter moved %g, want 1", got)
	}
	if got := final[`cij_pages_read_total`] - mid[`cij_pages_read_total`]; got != 0 {
		t.Fatalf("cache hit moved cij_pages_read_total by %g", got)
	}
}

// TestMetricsMatchFlatJoin: a flat-storage join moves the flat-read and
// planner-storage families, keeps every page family still, and its
// /metrics deltas reconcile with the response stats just like paged runs.
func TestMetricsMatchFlatJoin(t *testing.T) {
	p, q := dataset.Uniform(2000, 141), dataset.Uniform(2000, 142)
	_, ts := newTestServer(t, service.Config{}, p, q)

	before := scrapeMetrics(t, ts.URL)
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", TopK: 1}) // auto storage -> flat
	after := scrapeMetrics(t, ts.URL)
	delta := func(key string) int64 { return int64(after[key] - before[key]) }

	if jr.Storage != "flat" {
		t.Fatalf("auto storage picked %q, want flat", jr.Storage)
	}
	if jr.Stats.PageAccesses != 0 || jr.Stats.DecodeMisses != 0 {
		t.Fatalf("flat join reported page I/O: %+v", jr.Stats)
	}
	if got := delta(`cij_flat_reads_total`); got != jr.Stats.LogicalReads || got == 0 {
		t.Fatalf("cij_flat_reads_total moved %d, response says %d logical reads", got, jr.Stats.LogicalReads)
	}
	if got := delta(`cij_logical_reads_total`); got != jr.Stats.LogicalReads {
		t.Fatalf("cij_logical_reads_total moved %d, response says %d", got, jr.Stats.LogicalReads)
	}
	if got := delta(`cij_decode_hits_total`); got != jr.Stats.LogicalReads {
		t.Fatalf("cij_decode_hits_total moved %d, want every flat read a hit (%d)", got, jr.Stats.LogicalReads)
	}
	for _, family := range []string{`cij_pages_read_total`, `cij_decode_misses_total`, `cij_buffer_evictions_total`} {
		if got := delta(family); got != 0 {
			t.Fatalf("flat join moved %s by %d, want 0", family, got)
		}
	}
	if got := delta(`cij_planner_storage_total{storage="flat"}`); got != 1 {
		t.Fatalf(`cij_planner_storage_total{storage="flat"} moved %d, want 1`, got)
	}
}

// TestMetricsFuncFamilies: /stats is a view of the /metrics registry.
// One server sees a computed join, a cached join, a result-cache
// eviction, an HTTP ingest and a mutation under a live subscription; then
// every /stats count must equal the sum of its named families as scraped
// from /metrics, and each operation must show in its count.
func TestMetricsFuncFamilies(t *testing.T) {
	p, q := dataset.Uniform(300, 151), dataset.Uniform(300, 152)
	// A buffer the size of the data keeps pages resident, so the paged
	// joins record decode hits as well as page reads.
	_, ts := newTestServer(t, service.Config{CacheEntries: 1, BufferPct: 100}, p, q)

	pq := service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"}
	postJoin(t, ts, pq)
	if !postJoin(t, ts, pq).Cached {
		t.Fatal("repeated join not served from cache")
	}
	// A second computed join overflows the one-entry cache: an eviction.
	postJoin(t, ts, service.JoinRequest{Left: "q", Right: "p", Algo: "nm", Storage: "paged"})

	resp, err := http.Post(ts.URL+"/datasets/r?gen=uniform&n=100&seed=153", "text/csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest r: status %d", resp.StatusCode)
	}

	sub, err := http.Get(ts.URL + "/join/subscribe?left=p&right=q")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if !bufio.NewScanner(sub.Body).Scan() {
		t.Fatal("subscription sent no subscribed line")
	}
	body, _ := json.Marshal(service.MutationRequest{Insert: []service.PointJSON{{X: 5000, Y: 5000}}})
	resp, err = http.Post(ts.URL+"/datasets/p/points", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st service.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := scrapeMetrics(t, ts.URL)
	sum := func(families ...string) int64 {
		var total float64
		for key, v := range m {
			for _, f := range families {
				if key == f || strings.HasPrefix(key, f+"{") {
					total += v
				}
			}
		}
		return int64(total)
	}
	for _, c := range []struct {
		field    string
		got      int64
		families []string
		want     int64 // -1: only required to be positive
	}{
		{"ingests", st.Ingests, []string{"cij_ingests_total"}, 3},
		{"joins_served", st.JoinsServed, []string{"cij_joins_total"}, 3},
		{"joins_computed", st.JoinsComputed, []string{"cij_join_seconds_count"}, 2},
		{"page_accesses", st.PageAccesses, []string{"cij_pages_read_total"}, -1},
		{"decode_hits", st.DecodeHits, []string{"cij_decode_hits_total"}, -1},
		{"cache_hits", st.CacheHits, []string{"cij_cache_hits_total"}, 1},
		{"cache_misses", st.CacheMisses, []string{"cij_cache_misses_total"}, 2},
		{"cache_entries", int64(st.CacheEntries), []string{"cij_result_cache_entries"}, 0}, // the mutation swept q⋈p
		{"cache_evicted", st.CacheEvicted, []string{"cij_result_cache_evictions_total"}, 1},
		{"mutations", st.Mutations, []string{"cij_mutation_batches_total"}, 1},
		{"delta_runs", st.DeltaRuns, []string{"cij_delta_runs_total"}, 1},
		{"pairs_churned", st.PairsChurned, []string{"cij_pair_churn_total"}, -1},
		{"subscribers", int64(st.Subscribers), []string{"cij_subscribers"}, 1},
		{"in_flight", int64(st.InFlight), []string{"cij_joins_in_flight"}, 0},
	} {
		if fam := sum(c.families...); c.got != fam {
			t.Errorf("/stats %s = %d, but %v sums to %d on /metrics", c.field, c.got, c.families, fam)
		}
		if (c.want < 0 && c.got <= 0) || (c.want >= 0 && c.got != c.want) {
			t.Errorf("/stats %s = %d, want %d (-1: positive)", c.field, c.got, c.want)
		}
	}
	if m[`cij_datasets`] != 3 {
		t.Errorf("cij_datasets = %g, want 3", m[`cij_datasets`])
	}
	if m[`cij_planner_decisions_total{algo="nm"}`] != 3 {
		t.Errorf("planner decision counter = %g, want 3", m[`cij_planner_decisions_total{algo="nm"}`])
	}
}

// TestExplainDoesNotExecute: POST /join?explain=1 returns the plan, a
// reason and the decision inputs without computing anything.
func TestExplainDoesNotExecute(t *testing.T) {
	p, q := dataset.Uniform(200, 161), dataset.Uniform(200, 162)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	post := func(req service.JoinRequest) service.Explanation {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/join?explain=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain: status %d", resp.StatusCode)
		}
		var ex service.Explanation
		if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
			t.Fatal(err)
		}
		return ex
	}

	ex := post(service.JoinRequest{Left: "p", Right: "q"})
	if ex.Plan.Algo != "grid" {
		t.Fatalf("explain auto plan = %q, want grid (small uniform join)", ex.Plan.Algo)
	}
	if ex.Reason == "" {
		t.Fatal("explain returned no reason")
	}
	if ex.Inputs.TotalPoints != 400 || ex.Inputs.PointsPerWorker == 0 {
		t.Fatalf("explain inputs = %+v", ex.Inputs)
	}

	ex = post(service.JoinRequest{Left: "p", Right: "q", Workers: 2})
	if ex.Plan.Algo != "parallel" {
		t.Fatalf("explain with workers=2 = %q, want parallel", ex.Plan.Algo)
	}

	if got := svc.StatsSnapshot().JoinsComputed; got != 0 {
		t.Fatalf("explain executed %d joins", got)
	}

	// Unknown datasets and unknown algorithms are still the client's fault.
	for _, bad := range []service.JoinRequest{
		{Left: "p", Right: "ghost"},
		{Left: "p", Right: "q", Algo: "quantum"},
	} {
		body, _ := json.Marshal(bad)
		resp, err := http.Post(ts.URL+"/join?explain=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("explain %+v: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// syncBuffer makes a bytes.Buffer safe to read while the server's handler
// goroutines may still be logging into it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog: with the threshold armed at 1ns every computed join is
// slow; the structured log must carry a "slow query" record with the full
// phase trace, and the slow-query counter must move.
func TestSlowQueryLog(t *testing.T) {
	p, q := dataset.Uniform(300, 171), dataset.Uniform(300, 172)
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, service.Config{Logger: logger, SlowQuery: time.Nanosecond}, p, q)

	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})

	out := buf.String()
	var slow map[string]any
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, `"slow query"`) {
			continue
		}
		if err := json.Unmarshal([]byte(line), &slow); err != nil {
			t.Fatalf("unparseable slow-query log line %q: %v", line, err)
		}
	}
	if slow == nil {
		t.Fatalf("no slow-query record in log output:\n%s", out)
	}
	trace, ok := slow["trace"].([]any)
	if !ok || len(trace) == 0 {
		t.Fatalf("slow-query record carries no phase trace: %v", slow)
	}
	m := scrapeMetrics(t, ts.URL)
	if m[`cij_slow_queries_total`] != 1 {
		t.Fatalf("cij_slow_queries_total = %g, want 1", m[`cij_slow_queries_total`])
	}
}

// TestRequestLog: every instrumented route writes a structured request
// record with its fixed route label.
func TestRequestLog(t *testing.T) {
	p, q := dataset.Uniform(200, 181), dataset.Uniform(200, 182)
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, service.Config{Logger: logger}, p, q)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(buf.String(), `"route":"stats"`) {
		// The request log is written after the handler returns, so the
		// client can observe the response first; poll briefly.
		if time.Now().After(deadline) {
			t.Fatalf("no request record for /stats in log output:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
