package service

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"

	"cij/internal/obs"
)

// The query journal: every served join becomes a durable observation
// record — the full planner inputs next to the measured outcome — kept in
// a lock-cheap capped ring, optionally appended to a JSONL sink, and
// queryable over GET /debug/queries. This is the recorded-observation
// corpus the ROADMAP's fitted cost model trains from: each line pairs
// what the planner believed (cardinalities, skew, chosen algo/storage/
// workers, narrated reason) with what actually happened (wall time,
// pages, logical reads, decode hits/misses, pairs emitted).

// DefaultJournalEntries is the ring capacity of every service's journal;
// DefaultJournalSlowest the retained-trace count.
const (
	DefaultJournalEntries = 512
	DefaultJournalSlowest = 8
)

// JournalRecord is one observation: identity, plan, and outcome. Stats is
// the same JoinStatsJSON the JoinResponse carried — byte-equal by
// construction, which is what makes the journal reconcile with the
// response and the /metrics deltas exactly.
type JournalRecord struct {
	// ID is the query ID, monotone per service instance; the same ID
	// appears in the JoinResponse, the NDJSON summary line and the slog
	// records, so the four surfaces cross-reference.
	ID   int64     `json:"id"`
	Time time.Time `json:"time"`

	Left         string `json:"left"`
	LeftVersion  int    `json:"left_version"`
	Right        string `json:"right"`
	RightVersion int    `json:"right_version"`

	// The executed plan and the planner's narration of why.
	Algo    string     `json:"algo"`
	Storage string     `json:"storage,omitempty"`
	Workers int        `json:"workers,omitempty"`
	Cached  bool       `json:"cached"`
	Reason  string     `json:"reason,omitempty"`
	Inputs  PlanInputs `json:"inputs"`

	// The measured outcome.
	Pairs int64         `json:"pairs"`
	Stats JoinStatsJSON `json:"stats"`
	Slow  bool          `json:"slow,omitempty"`

	// Trace carries the per-phase spans on JSONL sink lines (the training
	// corpus keeps the phase breakdown) and on GET /debug/queries/{id}
	// responses whose trace was retained; ring-resident records leave it
	// nil — only the slowest-K traces stay in memory.
	Trace *TraceJSON `json:"trace,omitempty"`
}

// retainedTrace is one slowest-K entry: the spans of a computed join kept
// beyond its ring record.
type retainedTrace struct {
	id      int64
	wallMS  float64
	spans   []obs.Span
	dropped int64
}

// Journal is the capped observation ring.
type Journal struct {
	mu      sync.Mutex
	recs    []JournalRecord // ring storage
	next    int             // index the next record lands in
	count   int             // live records
	total   int64           // records ever journaled
	slowK   int
	slowest []retainedTrace // ascending by wallMS, len <= slowK

	sinkMu sync.Mutex
	sink   *bufio.Writer
	sinkW  io.Writer
}

// NewJournal creates a journal ring holding at most entries records
// (0 selects DefaultJournalEntries) and retaining the phase traces of the
// slowest computed joins (0 selects DefaultJournalSlowest). sink, when
// non-nil, receives one JSON line per observation, append-only.
func NewJournal(entries, slowest int, sink io.Writer) *Journal {
	if entries <= 0 {
		entries = DefaultJournalEntries
	}
	if slowest <= 0 {
		slowest = DefaultJournalSlowest
	}
	j := &Journal{recs: make([]JournalRecord, entries), slowK: slowest}
	if sink != nil {
		j.sinkW = sink
		j.sink = bufio.NewWriter(sink)
	}
	return j
}

// Add journals one observation. spans (nil for cache hits and delta runs,
// which carry no trace of their own) compete for slowest-K retention; the
// sink line is written outside the ring lock with the spans attached.
func (j *Journal) Add(rec JournalRecord, spans []obs.Span, dropped int64) {
	j.mu.Lock()
	j.recs[j.next] = rec
	j.next = (j.next + 1) % len(j.recs)
	if j.count < len(j.recs) {
		j.count++
	}
	j.total++
	if spans != nil && !rec.Cached {
		j.retainLocked(rec.ID, rec.Stats.WallMS, spans, dropped)
	}
	j.mu.Unlock()

	if j.sink != nil {
		if spans != nil {
			rec.Trace = NewTraceJSON(spans, dropped)
		}
		j.sinkMu.Lock()
		if b, err := json.Marshal(rec); err == nil {
			j.sink.Write(b)
			j.sink.WriteByte('\n')
			j.sink.Flush()
		}
		j.sinkMu.Unlock()
	}
}

// retainLocked folds one traced run into the slowest-K set (ascending by
// wall time; the fastest retained entry is evicted first).
func (j *Journal) retainLocked(id int64, wallMS float64, spans []obs.Span, dropped int64) {
	if len(j.slowest) >= j.slowK {
		if wallMS <= j.slowest[0].wallMS {
			return
		}
		j.slowest = j.slowest[1:]
	}
	i := 0
	for i < len(j.slowest) && j.slowest[i].wallMS <= wallMS {
		i++
	}
	j.slowest = append(j.slowest, retainedTrace{})
	copy(j.slowest[i+1:], j.slowest[i:])
	j.slowest[i] = retainedTrace{id: id, wallMS: wallMS, spans: spans, dropped: dropped}
}

// JournalFilter narrows a Recent listing. Zero values match everything.
type JournalFilter struct {
	// Dataset matches records whose left or right dataset has the name.
	Dataset string
	// Algo matches the executed algorithm.
	Algo string
	// MinWallMS keeps only observations at least this slow.
	MinWallMS float64
	// Limit caps the returned records (0 = 100).
	Limit int
}

// Recent returns matching records, newest first, plus the count ever
// journaled.
func (j *Journal) Recent(f JournalFilter) ([]JournalRecord, int64) {
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JournalRecord, 0, min(limit, j.count))
	for i := 1; i <= j.count && len(out) < limit; i++ {
		rec := j.recs[((j.next-i)%len(j.recs)+len(j.recs))%len(j.recs)]
		if f.Dataset != "" && rec.Left != f.Dataset && rec.Right != f.Dataset {
			continue
		}
		if f.Algo != "" && rec.Algo != f.Algo {
			continue
		}
		if rec.Stats.WallMS < f.MinWallMS {
			continue
		}
		out = append(out, rec)
	}
	return out, j.total
}

// Get returns the ring record with the given query ID.
func (j *Journal) Get(id int64) (JournalRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := 1; i <= j.count; i++ {
		rec := j.recs[((j.next-i)%len(j.recs)+len(j.recs))%len(j.recs)]
		if rec.ID == id {
			return rec, true
		}
	}
	return JournalRecord{}, false
}

// TraceFor returns the retained phase spans of the given query, if it is
// one of the slowest-K.
func (j *Journal) TraceFor(id int64) ([]obs.Span, int64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, rt := range j.slowest {
		if rt.id == id {
			return rt.spans, rt.dropped, true
		}
	}
	return nil, 0, false
}

// RetainedTraces lists the query IDs whose traces are retained, slowest
// first.
func (j *Journal) RetainedTraces() []int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]int64, 0, len(j.slowest))
	for i := len(j.slowest) - 1; i >= 0; i-- {
		out = append(out, j.slowest[i].id)
	}
	return out
}

// Len reports the live record count, Total the records ever journaled.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

func (j *Journal) Total() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// ObservedJSON aggregates the journal's observations matching one plan —
// the "observed" half of explain's modeled-vs-observed report, and the
// shape a fitted cost model would regress on.
type ObservedJSON struct {
	// Matches counts computed (non-cached) observations of the same
	// datasets (name and version) under the same plan; CachedMatches the
	// cache hits for the same key.
	Matches       int `json:"matches"`
	CachedMatches int `json:"cached_matches,omitempty"`
	// Wall-clock and I/O aggregates over the computed matches.
	MeanWallMS       float64 `json:"mean_wall_ms,omitempty"`
	MinWallMS        float64 `json:"min_wall_ms,omitempty"`
	MaxWallMS        float64 `json:"max_wall_ms,omitempty"`
	MeanPages        float64 `json:"mean_pages,omitempty"`
	MeanLogicalReads float64 `json:"mean_logical_reads,omitempty"`
	MeanPairs        float64 `json:"mean_pairs,omitempty"`
	// LastID is the newest matching observation (GET /debug/queries/{id}
	// has its full record).
	LastID int64 `json:"last_id,omitempty"`
}

// Observed scans the ring for observations of the given datasets under
// the given plan.
func (j *Journal) Observed(left string, leftVer int, right string, rightVer int, pl Plan) ObservedJSON {
	var o ObservedJSON
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := 1; i <= j.count; i++ {
		rec := j.recs[((j.next-i)%len(j.recs)+len(j.recs))%len(j.recs)]
		if rec.Left != left || rec.LeftVersion != leftVer ||
			rec.Right != right || rec.RightVersion != rightVer ||
			rec.Algo != pl.Algo || rec.Storage != pl.Storage || rec.Workers != pl.Workers {
			continue
		}
		if rec.Cached {
			o.CachedMatches++
			continue
		}
		if o.Matches == 0 || rec.Stats.WallMS < o.MinWallMS {
			o.MinWallMS = rec.Stats.WallMS
		}
		if rec.Stats.WallMS > o.MaxWallMS {
			o.MaxWallMS = rec.Stats.WallMS
		}
		o.MeanWallMS += rec.Stats.WallMS
		o.MeanPages += float64(rec.Stats.PageAccesses)
		o.MeanLogicalReads += float64(rec.Stats.LogicalReads)
		o.MeanPairs += float64(rec.Pairs)
		if rec.ID > o.LastID {
			o.LastID = rec.ID
		}
		o.Matches++
	}
	if o.Matches > 0 {
		n := float64(o.Matches)
		o.MeanWallMS /= n
		o.MeanPages /= n
		o.MeanLogicalReads /= n
		o.MeanPairs /= n
	}
	return o
}

// ReadJournal decodes a JSONL sink stream back into records — the replay
// path for planner training and the round-trip tests.
func ReadJournal(r io.Reader) ([]JournalRecord, error) {
	var out []JournalRecord
	dec := json.NewDecoder(r)
	for {
		var rec JournalRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}
