package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/grid"
	"cij/internal/parallel"
	"cij/internal/rtree"
	"cij/internal/service"
	"cij/internal/storage"
)

// The traced run measures each layer from outside the program: after an
// operation's HTTP round trip the harness replays it step by step through
// the layers' public functions, timing each call as a span. Nothing in
// the service is instrumented for it.

// span is one timed call. Spans of one operation share a trace id, which
// is also the id of the operation's root span.
type span struct {
	Trace  int64   `json:"trace"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// spanLog keeps a run's spans in memory until write.
type spanLog struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) newID() int64 { return l.ids.Add(1) }

func (l *spanLog) add(trace, id, parent int64, name string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: us(start.Sub(l.origin)), End: us(end.Sub(l.origin))})
	l.mu.Unlock()
}

// step times fn as a child of the root span root and returns its
// duration.
func (l *spanLog) step(root int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.add(root, l.newID(), root, name, start, end)
	return end.Sub(start)
}

// write saves the spans and, per span name, the median self time: the
// span's duration minus the part of it its children cover.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string][]float64)
	for _, s := range l.spans {
		self[s.Name] = append(self[s.Name], (s.End-s.Start-covered(s, children[s.ID]))/1000)
	}
	type selfTime struct {
		P50MS float64 `json:"p50_ms"`
		N     int     `json:"n"`
	}
	doc := struct {
		Spans  []span              `json:"spans"`
		SelfMS map[string]selfTime `json:"self_ms"`
	}{Spans: l.spans, SelfMS: make(map[string]selfTime)}
	for name, vs := range self {
		sort.Float64s(vs)
		doc.SelfMS[name] = selfTime{P50MS: quantile(vs, 0.5), N: len(vs)}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, end := 0.0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// joinCall is one answered join: what the replay sends again and what the
// server reported.
type joinCall struct {
	start          time.Time
	http           time.Duration // client round trip
	method, target string
	body           []byte
	q              service.Query
	stream         bool // NDJSON stream rather than one JSON body
	resp           service.JoinResponse
}

// traceJoin replays one join: the handler into a recorder (no socket),
// the planner, the planned engine on the registry's datasets, and the
// encoder. Samples are recorded only for measured operations.
func (r *runCtx) traceJoin(e *env, c joinCall, measured bool) {
	l := r.spans
	root := l.newID()
	l.add(root, l.newID(), root, "http", c.start, c.start.Add(c.http))
	var code int
	handler := l.step(root, "service.handler", func() {
		rec := httptest.NewRecorder()
		e.handler.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, bytes.NewReader(c.body)))
		code = rec.Code
	})
	if code != http.StatusOK {
		r.fail("replayed %s %s answered %d", c.method, c.target, code)
	}
	var ex service.Explanation
	var err error
	plan := l.step(root, "service.plan", func() { ex, err = e.svc.Explain(c.q) })
	if err != nil {
		r.fail("explain %s⋈%s: %v", c.q.Left, c.q.Right, err)
		return
	}
	left, right := e.dataset(c.q.Left), e.dataset(c.q.Right)
	res, st, engine := r.traceEngine(root, ex.Plan, left, right, measured)
	encode := l.step(root, "service.encode", func() {
		encodeJoin(left, right, ex.Plan, res, st, engine, c.q.TopK, c.stream)
	})
	l.add(root, root, 0, "op", c.start, time.Now())
	if !measured {
		return
	}
	r.rec.add("service.handler_ms", ms(handler))
	r.rec.add("service.plan_us", us(plan))
	r.rec.add("service.encode_ms", ms(encode))
	r.rec.add("service.transport_ms", ms(c.http-handler))
	r.rec.add("service.overhead_ms", ms(handler-plan-engine-encode))
	r.rec.add("service.wall_ms", c.resp.Stats.WallMS)
	r.rec.add("storage.logical_reads", float64(c.resp.Stats.LogicalReads))
	r.rec.add("storage.decode_hits", float64(c.resp.Stats.DecodeHits))
	r.rec.add("storage.decode_misses", float64(c.resp.Stats.DecodeMisses))
}

// traceEngine runs the planned engine directly, with the options the
// service's executor uses, and returns its result, I/O and duration. The
// parallel engine runs a second time with one worker for the speed-up.
func (r *runCtx) traceEngine(root int64, pl service.Plan, left, right *service.Dataset, measured bool) (core.Result, storage.Stats, time.Duration) {
	l := r.spans
	var res core.Result
	var st storage.Stats
	var d time.Duration
	switch pl.Algo {
	case "grid":
		lp, _ := left.JoinPoints()
		rp, _ := right.JoinPoints()
		d = l.step(root, "grid.join", func() { res = grid.Join(lp, rp, dataset.Domain, grid.DefaultOptions()) })
		if measured {
			r.rec.add("grid.join_ms", ms(d))
		}
	case "nm":
		vp, vq := left.StorageView(pl.Storage), right.StorageView(pl.Storage)
		d = l.step(root, "core.nm", func() { res = core.NMCIJ(vp, vq, dataset.Domain, core.DefaultOptions()) })
		st = vp.Buffer().Stats().Add(vq.Buffer().Stats())
		if measured {
			r.rec.add("core.nm_ms", ms(d))
			r.rec.add("core.p_cells", float64(res.Stats.PCellsComputed))
			r.rec.add("core.candidates", float64(res.Stats.Candidates))
			r.rec.add("core.true_hits", float64(res.Stats.TrueHits))
		}
	case "parallel":
		opts := parallel.DefaultOptions()
		opts.Workers = pl.Workers
		var start time.Time
		var first time.Duration
		opts.OnPair = func(core.Pair) { // runs on Join's goroutine
			if first == 0 {
				first = time.Since(start)
			}
		}
		vp, vq := left.StorageView(pl.Storage), right.StorageView(pl.Storage)
		d = l.step(root, "parallel.join", func() {
			start = time.Now()
			res = parallel.Join(vp, vq, dataset.Domain, opts)
		})
		st = res.Stats.Mat.Add(res.Stats.Join)
		one := opts
		one.Workers, one.OnPair = 1, nil
		vp, vq = left.StorageView(pl.Storage), right.StorageView(pl.Storage)
		d1 := l.step(root, "parallel.join_1worker", func() { parallel.Join(vp, vq, dataset.Domain, one) })
		if measured {
			r.rec.add("parallel.join_ms", ms(d))
			r.rec.add("parallel.first_pair_ms", ms(first))
			r.rec.add("parallel.speedup", d1.Seconds()/d.Seconds())
		}
	default:
		r.problem("no engine replay for planned algo %q", pl.Algo)
	}
	return res, st, d
}

// encodeJoin encodes a join result the way the handler does: one
// JoinResponse, or one NDJSON line per pair and a summary line.
func encodeJoin(left, right *service.Dataset, pl service.Plan, res core.Result, st storage.Stats, wall time.Duration, topK int, stream bool) {
	if !stream {
		_, _ = json.Marshal(service.NewJoinResponse(left.Name, right.Name, pl.Algo, pl.Workers, res.Pairs, st, wall, topK)) // plain structs: cannot fail
		return
	}
	enc := json.NewEncoder(io.Discard)
	for _, p := range res.Pairs {
		_ = enc.Encode(service.StreamPair{Type: "pair", P: p.P, Q: p.Q}) // io.Discard cannot fail
	}
	_ = enc.Encode(service.StreamSummary{Type: "summary",
		JoinResponse: service.NewJoinResponse(left.Name, right.Name, pl.Algo, pl.Workers, res.Pairs, st, wall, -1)})
}

// traceSetUp replays the ingest of every input through the layers a
// POST /datasets runs: CSV parse and normalization, bulk load, freeze,
// skew estimate, and the whole registry put.
func (r *runCtx) traceSetUp(inputs []input) {
	l := r.spans
	for _, in := range inputs {
		root := l.newID()
		start := time.Now()
		var pts []service.Point
		parse := l.step(root, "dataset.read_csv", func() {
			var err error
			if pts, err = dataset.ReadCSV(bytes.NewReader(in.csv)); err != nil {
				r.problem("replaying ingest of %s: %v", in.name, err)
			}
			pts = dataset.Normalize(pts)
		})
		var tree *rtree.Tree
		bulk := l.step(root, "rtree.bulkload", func() {
			buf := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 1<<30)
			tree = rtree.BulkLoadPoints(buf, pts, dataset.Domain, 1)
		})
		freeze := l.step(root, "rtree.freeze", func() { tree.Freeze() })
		skew := l.step(root, "grid.skew", func() { grid.SkewEstimate(pts, dataset.Domain) })
		put := l.step(root, "service.registry_put", func() {
			if _, err := service.NewRegistry(0).Put(in.name, pts); err != nil {
				r.problem("replaying registry put of %s: %v", in.name, err)
			}
		})
		l.add(root, root, 0, "setup."+in.name, start, time.Now())
		r.rec.add("dataset.read_csv_ms", ms(parse))
		r.rec.add("rtree.bulkload_ms", ms(bulk))
		r.rec.add("rtree.freeze_ms", ms(freeze))
		r.rec.add("grid.skew_ms", ms(skew))
		r.rec.add("service.registry_put_ms", ms(put))
	}
}
