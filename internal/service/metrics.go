package service

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"cij/internal/obs"
	"cij/internal/storage"
)

// serviceMetrics is the service's metric bundle: every family registered
// once at construction, mutated from the hot paths through atomic
// counters only. It is the one owner of every service count: /metrics
// renders it and /stats (StatsSnapshot) sums its families. Current
// depths (registry size, cache entries, subscribers) are func-backed
// gauges, scraped from the structures that already hold them.
type serviceMetrics struct {
	reg *obs.Registry

	httpRequests *obs.CounterVec   // cij_http_requests_total{route,code}
	httpLatency  *obs.HistogramVec // cij_http_request_seconds{route}

	joins          *obs.CounterVec   // cij_joins_total{algo,source}
	joinLatency    *obs.HistogramVec // cij_join_seconds{algo}
	planner        *obs.CounterVec   // cij_planner_decisions_total{algo}
	plannerStorage *obs.CounterVec   // cij_planner_storage_total{storage}
	slowQueries    *obs.Counter
	logicalReads   *obs.Counter
	pagesRead      *obs.Counter
	decodeHits     *obs.Counter
	decodeMisses   *obs.Counter
	flatReads      *obs.Counter // cij_flat_reads_total
	evictions      *obs.Counter

	admissionWait    *obs.Histogram // cij_admission_wait_seconds
	admissionWaiting *obs.Gauge     // requests currently queued for a slot

	cacheHits      *obs.Counter // cij_cache_hits_total, ticked by the cache
	cacheMisses    *obs.Counter // cij_cache_misses_total
	cacheEvictions *obs.Counter // cij_result_cache_evictions_total

	ingests         *obs.Counter    // cij_ingests_total
	panics          *obs.Counter    // cij_panics_total
	mutationBatches *obs.Counter    // cij_mutation_batches_total
	mutations       *obs.CounterVec // cij_mutations_total{op}
	deltaRuns       *obs.Counter    // cij_delta_runs_total
	deltaLatency    *obs.Histogram  // cij_delta_seconds
	churnEvents     *obs.CounterVec // cij_pair_churn_total{kind}
	subLagged       *obs.Counter    // cij_subscribers_lagged_total

	walAppends       *obs.Counter   // cij_wal_appends_total
	walFsync         *obs.Histogram // cij_wal_fsync_seconds
	walCorrupt       *obs.Counter   // cij_wal_corrupt_records_total
	checkpoints      *obs.Counter   // cij_checkpoints_total
	recoveryClean    *obs.Gauge     // cij_recovery_clean_shutdown
	recoveryReplayed *obs.Counter   // cij_recovery_records_replayed_total
	recoveryStale    *obs.Counter   // cij_recovery_records_stale_total
}

// newServiceMetrics registers the service's metric families on a fresh
// obs registry and wires the func-backed families to s's live state.
func newServiceMetrics(s *Service) *serviceMetrics {
	reg := obs.NewRegistry()
	m := &serviceMetrics{
		reg: reg,
		httpRequests: reg.CounterVec("cij_http_requests_total",
			"HTTP requests by route and status code.", "route", "code"),
		httpLatency: reg.HistogramVec("cij_http_request_seconds",
			"HTTP request latency by route.", nil, "route"),
		joins: reg.CounterVec("cij_joins_total",
			"Joins served, by executed algorithm and source (computed or cached).", "algo", "source"),
		joinLatency: reg.HistogramVec("cij_join_seconds",
			"Join computation latency by algorithm (computed joins only).", nil, "algo"),
		planner: reg.CounterVec("cij_planner_decisions_total",
			"Planner outcomes by chosen algorithm.", "algo"),
		plannerStorage: reg.CounterVec("cij_planner_storage_total",
			"Planner outcomes by chosen storage mode (flat, paged; none for the storage-less grid backend).", "storage"),
		slowQueries: reg.Counter("cij_slow_queries_total",
			"Joins slower than the configured slow-query threshold."),
		logicalReads: reg.Counter("cij_logical_reads_total",
			"Node accesses (buffer hits included) summed over computed joins."),
		pagesRead: reg.Counter("cij_pages_read_total",
			"Physical page reads summed over computed joins."),
		decodeHits: reg.Counter("cij_decode_hits_total",
			"Decoded-node cache hits summed over computed joins."),
		decodeMisses: reg.Counter("cij_decode_misses_total",
			"Decoded-node cache misses summed over computed joins."),
		flatReads: reg.Counter("cij_flat_reads_total",
			"Arena node accesses of flat-storage joins (decode-free reads; never counted as page I/O)."),
		evictions: reg.Counter("cij_buffer_evictions_total",
			"Pages evicted from per-request LRU buffer views (worker forks included)."),
		admissionWait: reg.Histogram("cij_admission_wait_seconds",
			"Time joins spent queued for an admission slot.", nil),
		admissionWaiting: reg.Gauge("cij_admission_waiting",
			"Joins currently queued for an admission slot."),
		cacheHits: reg.Counter("cij_cache_hits_total",
			"Result-cache hits."),
		cacheMisses: reg.Counter("cij_cache_misses_total",
			"Result-cache misses."),
		cacheEvictions: reg.Counter("cij_result_cache_evictions_total",
			"Results evicted from the cache."),
		ingests: reg.Counter("cij_ingests_total",
			"Dataset ingests."),
		panics: reg.Counter("cij_panics_total",
			"Handler panics recovered by the HTTP middleware (each also answers 500)."),
		mutationBatches: reg.Counter("cij_mutation_batches_total",
			"Accepted point-mutation batches."),
		mutations: reg.CounterVec("cij_mutations_total",
			"Point-level dataset changes applied, by operation.", "op"),
		deltaRuns: reg.Counter("cij_delta_runs_total",
			"Incremental join maintenance runs (one per live subscription pair per mutation)."),
		deltaLatency: reg.Histogram("cij_delta_seconds",
			"Incremental maintenance latency per delta run.", nil),
		churnEvents: reg.CounterVec("cij_pair_churn_total",
			"Join pairs appearing (add) and disappearing (remove) across delta runs.", "kind"),
		subLagged: reg.Counter("cij_subscribers_lagged_total",
			"Subscriptions dropped because the client fell behind the event stream."),
		walAppends: reg.Counter("cij_wal_appends_total",
			"Mutation batches appended (and fsync'd) to the write-ahead log."),
		walFsync: reg.Histogram("cij_wal_fsync_seconds",
			"WAL fsync latency per committed mutation batch.", nil),
		walCorrupt: reg.Counter("cij_wal_corrupt_records_total",
			"WAL records dropped at recovery for checksum or framing corruption."),
		checkpoints: reg.Counter("cij_checkpoints_total",
			"Checkpoints that folded the WAL into dataset snapshots."),
		recoveryClean: reg.Gauge("cij_recovery_clean_shutdown",
			"Whether the previous shutdown was clean (1) or recovery replayed a crash (0); unset without a data dir."),
		recoveryReplayed: reg.Counter("cij_recovery_records_replayed_total",
			"WAL records applied during cold-start recovery."),
		recoveryStale: reg.Counter("cij_recovery_records_stale_total",
			"WAL records skipped as stale during cold-start recovery (already folded into a snapshot)."),
	}

	reg.GaugeVec("cij_build_info",
		"Build attribution of this binary; constant 1, the payload is the labels.",
		"go_version", "module_version", "vcs_revision").
		With(buildInfo().GoVersion, buildInfo().ModuleVersion, buildInfo().Revision).Set(1)

	reg.GaugeFunc("cij_result_cache_entries",
		"Results currently cached.", func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("cij_datasets",
		"Datasets currently registered.", func() float64 { return float64(len(s.reg.List())) })
	reg.GaugeFunc("cij_joins_in_flight",
		"Joins currently holding an admission slot.", func() float64 { return float64(s.InFlight()) })
	reg.GaugeFunc("cij_subscribers",
		"Open /join/subscribe event streams.", func() float64 { return float64(s.hub.count()) })
	reg.GaugeFunc("cij_wal_bytes",
		"Byte length of the write-ahead log (0 without a data dir).", func() float64 {
			if st := s.store.Load(); st != nil {
				return float64(st.wal.Size())
			}
			return 0
		})
	return m
}

// recordJoinIO folds one computed join's I/O aggregate into the exported
// counters — the same storage.Stats the response reports, so the /metrics
// deltas reconcile with per-query stats exactly. Served joins and delta
// runs only read (the registry's disks are read-only after build), so
// page writes have no family. A flat-storage run's node accesses
// additionally feed cij_flat_reads_total; its page and decode-miss
// counters are structurally zero, so the shared families stay truthful in
// both modes.
func (m *serviceMetrics) recordJoinIO(io storage.Stats, storageMode string) {
	m.logicalReads.Add(io.LogicalReads)
	m.pagesRead.Add(io.PageReads)
	m.decodeHits.Add(io.DecodeHits)
	m.decodeMisses.Add(io.DecodeMisses)
	if storageMode == "flat" {
		m.flatReads.Add(io.LogicalReads)
	}
}

// onEvict is the buffer eviction hook installed on per-request views.
// Worker forks inherit it (storage.Buffer.Fork), so it runs concurrently;
// obs.Counter is atomic.
func (m *serviceMetrics) onEvict(storage.PageID, any) { m.evictions.Inc() }

// statusWriter captures the response status for request metrics/logs. It
// forwards Flush so the NDJSON stream handler's progressive writes keep
// working through the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route with panic recovery, request counting,
// latency observation and structured request logging. Routes are labeled
// explicitly (not from the request path) so the label space stays
// bounded.
//
// Recovery runs innermost so a panicking handler still produces a
// response, a request log line and correctly-labeled metrics instead of
// tearing down the connection with nothing on the books. If the handler
// had not committed a status yet the client gets a JSON 500; mid-stream
// panics can only truncate the (already committed) body, which is the
// NDJSON failure contract anyway. http.ErrAbortHandler passes through —
// it is net/http's sanctioned way to abort and suppressing it would turn
// deliberate aborts into 500s.
func (s *Service) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		func() {
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.metrics.panics.Inc()
				s.logger.Error("handler panic",
					"route", route,
					"path", r.URL.Path,
					"panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()),
				)
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal error (panic recovered: %v)", rec)
				}
			}()
			h(sw, r)
		}()
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.metrics.httpRequests.With(route, strconv.Itoa(sw.status)).Inc()
		s.metrics.httpLatency.With(route).Observe(elapsed.Seconds())
		s.logger.Info("request",
			"route", route,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(elapsed)/float64(time.Millisecond),
		)
	}
}
