package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"cij/internal/core"
	"cij/internal/dataset"
)

// maxIngestBytes caps a CSV ingest body (~256 MB ≈ 13M "x,y" lines):
// datasets are held in memory, so an unbounded upload is an OOM, not a
// dataset.
const maxIngestBytes = 256 << 20

// maxDatasetPoints is the most points a CSV body under maxIngestBytes can
// carry ("0,0\n" is the shortest row). Generator ingests, mutations and
// snapshot restores hold a dataset's point-ID space to the same bound.
const maxDatasetPoints = maxIngestBytes / 4

// maxJoinBodyBytes caps a join request body; a JoinRequest is a few dozen
// bytes.
const maxJoinBodyBytes = 1 << 20

// streamFlushEvery bounds how many pair lines may sit in the response
// buffer before an explicit flush: frequent enough that clients see pairs
// progressively (the point of the NDJSON endpoint), rare enough that the
// syscall cost does not dominate dense result streams.
const streamFlushEvery = 64

// Handler returns the service's HTTP mux. Every route is instrumented
// (request counter, latency histogram, structured request log) under a
// fixed route label; /metrics exposes the metric registry in Prometheus
// text format.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /datasets/{name}", s.instrument("ingest", s.handleIngest))
	mux.HandleFunc("GET /datasets", s.instrument("datasets", s.handleDatasets))
	mux.HandleFunc("POST /datasets/{name}/points", s.instrument("mutate", s.handleMutatePoints))
	mux.HandleFunc("DELETE /datasets/{name}/points/{id}", s.instrument("mutate_delete", s.handleDeletePoint))
	mux.HandleFunc("POST /join", s.instrument("join", s.handleJoin))
	mux.HandleFunc("GET /join/stream", s.instrument("join_stream", s.handleJoinStream))
	mux.HandleFunc("GET /join/subscribe", s.instrument("join_subscribe", s.handleJoinSubscribe))
	mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /stats/history", s.instrument("stats_history", s.handleStatsHistory))
	mux.HandleFunc("GET /debug/queries", s.instrument("debug_queries", s.handleDebugQueries))
	mux.HandleFunc("GET /debug/queries/{id}", s.instrument("debug_query", s.handleDebugQuery))
	mux.HandleFunc("GET /debug/queries/{id}/trace.json", s.instrument("debug_query_trace", s.handleDebugQueryTrace))
	metricsHandler := s.metrics.reg.Handler()
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Runtime families are push-fed; refresh them so every scrape
		// (and only scrapes) pays the ReadMemStats.
		s.runtime.Collect()
		metricsHandler.ServeHTTP(w, r)
	}))
	return mux
}

// writeJSON encodes v as the response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// bodyErrorStatus maps a request-body read/parse failure onto its HTTP
// status: an http.MaxBytesReader overrun is 413 (the request was too
// large, not malformed), anything else is the client's 400. The limit
// error may arrive wrapped (json.Decoder and the CSV reader both pass
// the underlying read error through), so unwrap with errors.As.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeError reports a failure as {"error": ...}.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleIngest loads a dataset from the request: a generator spec when
// ?gen= is present (gen=uniform|clustered|PP|SC|CE|LO|PA with n, clusters,
// seed, scale), otherwise the body as "x,y" CSV, normalized to the
// [0,10000]² domain like every other CSV entry point.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var pts []Point
	if kind := r.URL.Query().Get("gen"); kind != "" {
		spec, err := specFromQuery(r, kind)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		pts, err = spec.Generate()
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		var err error
		pts, err = dataset.ReadCSV(http.MaxBytesReader(w, r.Body, maxIngestBytes))
		if err != nil {
			writeError(w, bodyErrorStatus(err), "%v", err)
			return
		}
		pts = dataset.Normalize(pts)
	}
	d, err := s.Ingest(name, pts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, datasetInfo(d))
}

// specFromQuery parses the generator parameters of an ingest request.
func specFromQuery(r *http.Request, kind string) (dataset.Spec, error) {
	spec := dataset.Spec{Kind: kind}
	q := r.URL.Query()
	var err error
	if spec.N, err = intParam(q.Get("n"), 0); err != nil {
		return spec, fmt.Errorf("bad n: %v", err)
	}
	if spec.Clusters, err = intParam(q.Get("clusters"), 0); err != nil {
		return spec, fmt.Errorf("bad clusters: %v", err)
	}
	if spec.N > maxDatasetPoints || spec.Clusters > maxDatasetPoints {
		return spec, fmt.Errorf("n and clusters must be at most %d, the most points a CSV ingest can carry", maxDatasetPoints)
	}
	seed, err := intParam(q.Get("seed"), 1)
	if err != nil {
		return spec, fmt.Errorf("bad seed: %v", err)
	}
	spec.Seed = int64(seed)
	if v := q.Get("scale"); v != "" {
		if spec.Scale, err = strconv.ParseFloat(v, 64); err != nil {
			return spec, fmt.Errorf("bad scale: %v", err)
		}
	}
	return spec, nil
}

// intParam parses an optional integer query parameter.
func intParam(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

func (s *Service) handleDatasets(w http.ResponseWriter, r *http.Request) {
	datasets := s.reg.List()
	infos := make([]DatasetInfo, len(datasets))
	for i, d := range datasets {
		infos[i] = datasetInfo(d)
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleJoin is the buffered join: the full response (pairs capped at
// TopK) in one JSON body. ?explain=1 short-circuits to the planner — the
// response is the Explanation (plan, reason, decision inputs) and nothing
// executes. Any field JoinRequest does not name is a 400 naming it, so a
// misspelled field cannot run a different plan than the client asked
// for.
func (s *Service) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJoinBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, bodyErrorStatus(err), "bad join request: %v", err)
		return
	}
	if req.TopK < 0 { // the wire contract is "<= 0 returns all"
		req.TopK = 0
	}
	q := Query{Left: req.Left, Right: req.Right, Algo: req.Algo, Storage: req.Storage, Workers: req.Workers, TopK: req.TopK}
	if boolParam(r.URL.Query().Get("explain")) {
		ex, err := s.Explain(q)
		if err != nil {
			writeError(w, joinErrorStatus(err), "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, ex)
		return
	}
	out, err := s.Join(r.Context(), q, execHooks{})
	if err != nil {
		writeError(w, joinErrorStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, out.response(req.TopK, req.Trace))
}

// boolParam interprets a query-parameter toggle: "1" and "true" are on.
func boolParam(v string) bool { return v == "1" || v == "true" }

// handleJoinStream is the progressive join: NDJSON pair lines as the
// algorithm produces them (for cache misses; hits replay from memory),
// progress lines when the parallel engine reports them, an optional trace
// line (&trace=1), and one summary line last. Query parameters: left,
// right, algo, storage, workers, topk, trace.
func (s *Service) handleJoinStream(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	workers, err := intParam(params.Get("workers"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad workers: %v", err)
		return
	}
	topK, err := intParam(params.Get("topk"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad topk: %v", err)
		return
	}
	if topK < 0 { // the wire contract is "<= 0 returns all"
		topK = 0
	}
	wantTrace := boolParam(params.Get("trace"))
	q := Query{
		Left:    params.Get("left"),
		Right:   params.Get("right"),
		Algo:    params.Get("algo"),
		Storage: params.Get("storage"),
		Workers: workers,
		TopK:    topK,
	}

	// The stream must start only after validation: once a line is written
	// the status is committed. Lines are emitted live through the hooks,
	// so failures after the first pair surface as a truncated stream (no
	// summary line), the standard NDJSON failure contract.
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	started := false
	emitted := int64(0)
	begin := func() {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
	}
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	hooks := execHooks{
		onPair: func(p core.Pair) {
			if topK > 0 && emitted >= int64(topK) {
				return
			}
			begin()
			enc.Encode(StreamPair{Type: "pair", P: p.P, Q: p.Q})
			emitted++
			if emitted%streamFlushEvery == 0 {
				flush()
			}
		},
		onProgress: func(pt core.ProgressPoint) {
			begin()
			enc.Encode(StreamProgress{Type: "progress", PageAccesses: pt.PageAccesses, Pairs: pt.Pairs})
			flush()
		},
	}
	out, err := s.Join(r.Context(), q, hooks)
	if err != nil {
		if started {
			return // stream already committed; truncate
		}
		writeError(w, joinErrorStatus(err), "%v", err)
		return
	}
	if out.Cached { // replay the memoized pairs
		begin()
		for i, p := range out.Result.Pairs {
			if topK > 0 && int64(i) >= int64(topK) {
				break
			}
			enc.Encode(StreamPair{Type: "pair", P: p.P, Q: p.Q})
		}
	}
	begin()
	if wantTrace {
		if tj := NewTraceJSON(out.Result.Trace); tj != nil {
			enc.Encode(StreamTrace{Type: "trace", TraceJSON: *tj})
		}
	}
	// topK -1: the pairs already went over the wire line by line; the
	// summary must not materialize a second encoded copy of them.
	enc.Encode(StreamSummary{Type: "summary", JoinResponse: out.response(-1, false)})
	flush()
}

// joinErrorStatus maps dispatcher errors onto HTTP statuses: unknown
// datasets and bad parameters are the client's fault.
func joinErrorStatus(err error) int {
	if err == nil {
		return http.StatusOK
	}
	return http.StatusBadRequest
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}
