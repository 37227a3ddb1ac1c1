package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cij/internal/obs"
	"cij/internal/obs/history"
	"cij/internal/storage"
)

// Config tunes a Service.
type Config struct {
	// BufferPct sizes each dataset's LRU query buffer as a percentage of
	// its data pages; <= 0 selects the paper's 2%.
	BufferPct float64
	// CacheEntries caps the result cache; < 0 disables caching, 0 selects
	// the default (64).
	CacheEntries int
	// MaxConcurrent bounds the number of joins executing at once (the
	// admission semaphore); <= 0 selects GOMAXPROCS.
	MaxConcurrent int
	// Logger receives the service's structured logs (request lines, join
	// completions, slow-query dumps); nil discards them.
	Logger *slog.Logger
	// SlowQuery, when > 0, arms the slow-query log: a computed join slower
	// than the threshold logs its full phase trace at Warn level (and
	// counts in cij_slow_queries_total).
	SlowQuery time.Duration
	// JournalSink, when non-nil, receives one JSON line per observation —
	// the append-only JSONL persistence of the journal (cijserver's
	// -journal flag opens a file here).
	JournalSink io.Writer
	// DataDir, when set, makes the service durable (use Open, not New):
	// the dataset registry persists under this directory (manifest +
	// snapshot page files + WAL) and a cold start restores it, replaying
	// the WAL tail.
	DataDir string
	// FS is the filesystem the durable store runs on; nil selects the
	// real one (storage.OSFS). The crash tests inject storage.FaultFS.
	FS storage.FS
	// CheckpointWALBytes is the WAL size that triggers folding it into
	// fresh snapshots after a mutation; <= 0 selects the default
	// (DefaultCheckpointWALBytes).
	CheckpointWALBytes int64
}

// Service is the CIJ query service: registry + planner + result cache
// behind one dispatcher. See the package comment for the architecture.
type Service struct {
	cfg     Config
	reg     *Registry
	cache   *resultCache
	admit   chan struct{}
	start   time.Time
	logger  *slog.Logger
	metrics *serviceMetrics
	journal *Journal
	history *history.Ring
	runtime *obs.RuntimeCollector
	queryID atomic.Int64 // last assigned query ID; threads all four surfaces

	// Single-flight table: one entry per join computation in progress,
	// keyed like the cache, so a burst of identical first-time queries
	// executes once instead of once per request.
	flightMu sync.Mutex
	flights  map[string]*flight

	// store is the durable tier (nil without a DataDir); set once by Open
	// before the service serves, read atomically so metric scrapes never
	// race the attachment.
	store    atomic.Pointer[Store]
	recovery *RecoveryInfo

	// hub fans pair-churn events out to /join/subscribe connections.
	hub *subHub
	// mutMu serializes the whole mutate pipeline — registry version bump,
	// cache sweep, delta maintenance, event fan-out — so subscribers
	// observe every version transition exactly once and in order. Joins
	// do NOT take it; they read whatever version is installed when they
	// resolve names, and COW snapshots keep that read stable.
	mutMu sync.Mutex
}

// flight is one in-progress join computation; done closes when the leader
// finishes, with res set unless the leader failed before executing.
type flight struct {
	done chan struct{}
	res  *cachedResult
}

// New creates a service with the given configuration.
func New(cfg Config) *Service {
	if cfg.BufferPct <= 0 {
		cfg.BufferPct = 2
	}
	switch {
	case cfg.CacheEntries < 0:
		cfg.CacheEntries = 0
	case cfg.CacheEntries == 0:
		cfg.CacheEntries = 64
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Service{
		cfg:     cfg,
		reg:     NewRegistry(cfg.BufferPct),
		admit:   make(chan struct{}, cfg.MaxConcurrent),
		flights: make(map[string]*flight),
		hub:     newSubHub(),
		start:   time.Now(),
		logger:  logger,
		journal: NewJournal(DefaultJournalEntries, cfg.JournalSink),
	}
	s.metrics = newServiceMetrics(s)
	s.cache = newResultCache(cfg.CacheEntries, s.metrics.cacheHits, s.metrics.cacheMisses, s.metrics.cacheEvictions)
	s.runtime = obs.NewRuntimeCollector(s.metrics.reg, s.start)
	s.history = history.New(s.metrics.reg, history.DefaultCapacity, s.runtime.Collect)
	return s
}

// Open creates a Service and, when cfg.DataDir is set, attaches the
// durable store: prior state is restored (manifest -> snapshots -> WAL
// tail) before the service accepts work, and every subsequent ingest and
// mutation is made durable before it is acknowledged. With no DataDir it
// is exactly New.
func Open(cfg Config) (*Service, error) {
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = storage.OSFS{}
	}
	st, info, err := openStore(fsys, cfg.DataDir, s.reg, s.metrics, s.logger)
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointWALBytes > 0 {
		st.checkpointBytes = cfg.CheckpointWALBytes
	}
	s.store.Store(st)
	s.recovery = info
	if info.CleanShutdown {
		s.metrics.recoveryClean.Set(1)
	} else {
		s.metrics.recoveryClean.Set(0)
	}
	s.metrics.recoveryReplayed.Add(int64(info.Replayed))
	s.metrics.recoveryStale.Add(int64(info.Stale))
	s.metrics.walCorrupt.Add(int64(info.CorruptRecords))
	s.logger.Info("durable store opened",
		"data_dir", cfg.DataDir,
		"fresh", info.Fresh,
		"clean_shutdown", info.CleanShutdown,
		"datasets", info.Datasets,
		"wal_replayed", info.Replayed,
		"wal_stale", info.Stale,
		"wal_corrupt", info.CorruptRecords,
		"wal_torn_tail", info.TornTail,
	)
	return s, nil
}

// Recovery reports what the durable store found at boot (nil without a
// DataDir).
func (s *Service) Recovery() *RecoveryInfo { return s.recovery }

// Close flushes the durable tier: a final checkpoint folds the WAL into
// snapshots and the manifest gets its clean-shutdown marker. Call it
// after the HTTP server has drained; a store-less service closes as a
// no-op.
func (s *Service) Close() error {
	st := s.store.Load()
	if st == nil {
		return nil
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	return st.close(s.reg)
}

// DrainSubscribers ends every /join/subscribe stream with a terminal
// "closed" line, unblocking their handlers so http.Server.Shutdown can
// finish. Call it before Shutdown: the streams are long-lived by design
// and would otherwise hold the drain open until its deadline. Returns
// how many subscribers were drained.
func (s *Service) DrainSubscribers() int { return s.hub.drain() }

// Journal exposes the query journal — the backing of GET /debug/queries
// and the tests' observation source.
func (s *Service) Journal() *Journal { return s.journal }

// History exposes the metrics-history ring. Sampling is caller-driven:
// cijserver starts the interval loop, tests call Sample directly.
func (s *Service) History() *history.Ring { return s.history }

// Registry exposes the dataset registry (preloading, tests).
func (s *Service) Registry() *Registry { return s.reg }

// Metrics exposes the service's metric registry — the backing store of
// GET /metrics, and the bench harness's source for server-side latency
// histogram snapshots.
func (s *Service) Metrics() *obs.Registry { return s.metrics.reg }

// Ingest indexes pts under name (replacing any previous version), sweeps
// the named dataset's cached results and returns the new registry entry:
// prepare, snapshot when durable, install. It serializes with mutations
// under mutMu — which is also what makes the durable protocol sound: the
// snapshot written before install is guaranteed to describe the version
// that installs.
func (s *Service) Ingest(name string, pts []Point) (*Dataset, error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	d, err := s.reg.PrepareIngest(name, pts)
	if err != nil {
		return nil, err
	}
	version := s.reg.NextVersion(name)
	if st := s.store.Load(); st != nil {
		if err := st.logIngest(d, version); err != nil {
			return nil, fmt.Errorf("persisting dataset %q: %w", name, err)
		}
	}
	if err := s.reg.InstallIngest(d, version); err != nil {
		return nil, err
	}
	s.cache.invalidateDataset(name)
	s.metrics.ingests.Inc()
	return d, nil
}

// Query is one join request against named datasets.
type Query struct {
	Left  string
	Right string
	// Algo selects the algorithm: nm, grid, parallel, or auto/empty.
	Algo string
	// Storage selects the node representation for tree algorithms: flat,
	// paged, or auto/empty (the planner picks).
	Storage string
	// Workers fixes the parallel pool size; <= 0 lets the planner size it
	// from the dataset cardinalities.
	Workers int
	// TopK caps the pairs returned in responses; <= 0 returns all. The
	// full result is still computed (and cached), so stats describe the
	// complete join.
	TopK int
}

// storageLabel maps a plan's storage onto a bounded metric label ("none"
// for the storage-less grid backend).
func storageLabel(storage string) string {
	if storage == "" {
		return "none"
	}
	return storage
}

// Outcome is the dispatcher's answer to one query: the (possibly cached)
// full result, the planner's explanation of the plan that produced it,
// and the dataset versions it was computed against.
type Outcome struct {
	Explanation
	Result      *cachedResult
	Cached      bool
	Left, Right *Dataset
	// QueryID is this request's journal identity, threaded into the
	// response, the stream summary and the slog records.
	QueryID int64
}

// operands resolves a query's two dataset names to their current
// versions.
func (s *Service) operands(q Query) (left, right *Dataset, err error) {
	left, ok := s.reg.Get(q.Left)
	if !ok {
		return nil, nil, fmt.Errorf("unknown dataset %q", q.Left)
	}
	right, ok = s.reg.Get(q.Right)
	if !ok {
		return nil, nil, fmt.Errorf("unknown dataset %q", q.Right)
	}
	return left, right, nil
}

// Join resolves, plans and executes one query. On a cache hit — or when
// an identical computation is already in flight — the memoized result is
// returned without executing anything (hooks are NOT invoked; callers
// that stream replay the cached pairs themselves). Otherwise the join
// runs under the admission semaphore with the hooks live, then the full
// result is cached. ctx cancellation is honored while queued for
// admission or waiting on another request's flight.
func (s *Service) Join(ctx context.Context, q Query, hooks execHooks) (*Outcome, error) {
	left, right, err := s.operands(q)
	if err != nil {
		return nil, err
	}
	ex, err := plan(q, left, right)
	if err != nil {
		return nil, err
	}
	pl := ex.Plan
	s.metrics.planner.With(pl.Algo).Inc()
	s.metrics.plannerStorage.With(storageLabel(pl.Storage)).Inc()

	// Every served join — cache hits included — is one observation, so
	// every request gets a query ID up front (the slow-query log inside
	// compute needs it before the result exists).
	out := &Outcome{Explanation: ex, Left: left, Right: right, QueryID: s.queryID.Add(1)}

	key := cacheKey(left, right, pl.Algo, pl.Workers, pl.Storage)
	if res, ok := s.cache.get(key); ok {
		out.Result, out.Cached = res, true
		s.metrics.joins.With(pl.Algo, "cached").Inc()
		return s.record(out), nil
	}

	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		// Follower: an identical join is computing right now. Wait for it
		// rather than burning an admission slot on duplicate work.
		s.flightMu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.res != nil {
			out.Result, out.Cached = f.res, true
			s.metrics.joins.With(pl.Algo, "cached").Inc()
			return s.record(out), nil
		}
		// The leader bailed before executing (admission cancelled);
		// compute directly — the admission semaphore still bounds a
		// stampede of orphaned followers.
		if err := s.compute(ctx, out, key, hooks); err != nil {
			return nil, err
		}
		return s.record(out), nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()
	defer func() {
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	}()

	if err := s.compute(ctx, out, key, hooks); err != nil {
		return nil, err
	}
	f.res = out.Result
	return s.record(out), nil
}

// record journals one served join: the planner's inputs and narrated
// reason next to the measured outcome, with the computed run's phase
// spans (none for a cache hit). The record's Stats is built by
// the same projection the JoinResponse uses, so the two are byte-equal.
// The journal line must stand alone as a training observation, so it
// carries the full decision context the plan recorded, not a pointer to
// it.
func (s *Service) record(out *Outcome) *Outcome {
	rec := JournalRecord{
		ID:           out.QueryID,
		Time:         time.Now(),
		Left:         out.Left.Name,
		LeftVersion:  out.Left.Version,
		Right:        out.Right.Name,
		RightVersion: out.Right.Version,
		Algo:         out.Plan.Algo,
		Storage:      out.Plan.Storage,
		Workers:      out.Plan.Workers,
		Cached:       out.Cached,
		Pairs:        out.Result.Count,
		Stats:        out.statsJSON(),
		Reason:       out.Reason,
		Inputs:       out.Inputs,
		Slow:         !out.Cached && s.cfg.SlowQuery > 0 && out.Result.CPU >= s.cfg.SlowQuery,
	}
	var spans []obs.Span
	if !out.Cached {
		spans = out.Result.Trace
	}
	s.journal.Add(rec, spans)
	return out
}

// compute runs the outcome's planned join under the admission semaphore,
// sets out.Result and records it in the cache and the metric families.
func (s *Service) compute(ctx context.Context, out *Outcome, key string, hooks execHooks) error {
	waitStart := time.Now()
	s.metrics.admissionWaiting.Add(1)
	select {
	case s.admit <- struct{}{}:
		s.metrics.admissionWaiting.Add(-1)
	case <-ctx.Done():
		s.metrics.admissionWaiting.Add(-1)
		return ctx.Err()
	}
	defer func() { <-s.admit }()
	wait := time.Since(waitStart)
	s.metrics.admissionWait.Observe(wait.Seconds())

	// Every computed join is traced: its journal record, the
	// slow-query log and every request served this result — the one that
	// computed it, a later cache hit or a single-flight follower — read
	// the same spans. A request's trace flag only decides whether its
	// response carries them.
	tr := obs.NewTrace()
	tr.Add("admission", "", wait, obs.Counters{})

	pl, left, right := out.Plan, out.Left, out.Right
	res := s.execute(left, right, pl, hooks, tr)
	out.Result = res
	s.cache.put(key, left.Name, right.Name, res)
	s.metrics.joins.With(pl.Algo, "computed").Inc()
	s.metrics.joinLatency.With(pl.Algo).Observe(res.CPU.Seconds())
	s.metrics.recordJoinIO(res.IO, pl.Storage)

	logArgs := []any{
		"query_id", out.QueryID,
		"left", left.Name, "right", right.Name,
		"algo", pl.Algo, "workers", pl.Workers,
		"storage", pl.Storage,
		"pairs", res.Count,
		"pages", res.IO.PageAccesses(),
		"decode_hits", res.IO.DecodeHits,
		"wall_ms", float64(res.CPU) / float64(time.Millisecond),
	}
	if s.cfg.SlowQuery > 0 && res.CPU >= s.cfg.SlowQuery {
		s.metrics.slowQueries.Inc()
		s.logger.Warn("slow query",
			append(logArgs, "threshold_ms", float64(s.cfg.SlowQuery)/float64(time.Millisecond),
				"trace", res.Trace)...)
	} else {
		s.logger.Info("join computed", logArgs...)
	}
	return nil
}

// InFlight reports how many joins currently hold an admission slot.
func (s *Service) InFlight() int { return len(s.admit) }
