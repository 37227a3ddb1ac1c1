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
// what the planner believed (cardinalities, chosen algo/storage/workers,
// narrated reason) with what actually happened (wall time,
// pages, logical reads, decode hits/misses, pairs emitted).

// DefaultJournalEntries is the ring capacity of every service's journal.
const DefaultJournalEntries = 512

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

	// Trace carries the run's per-phase spans on JSONL sink lines (the
	// training corpus keeps the phase breakdown) and on Get's records
	// (GET /debug/queries/{id}); listings leave it nil.
	Trace *TraceJSON `json:"trace,omitempty"`
	// spans are the run's phase spans, kept with the ring record; nil for
	// a cache hit, which ran nothing.
	spans []obs.Span
}

// Journal is the capped observation ring.
type Journal struct {
	mu    sync.Mutex
	recs  []JournalRecord // ring storage
	next  int             // index the next record lands in
	count int             // live records
	total int64           // records ever journaled

	sinkMu sync.Mutex
	sink   *bufio.Writer
	sinkW  io.Writer
}

// NewJournal creates a journal ring holding at most entries records
// (0 selects DefaultJournalEntries), each with its run's phase spans.
// sink, when non-nil, receives one JSON line per observation,
// append-only.
func NewJournal(entries int, sink io.Writer) *Journal {
	if entries <= 0 {
		entries = DefaultJournalEntries
	}
	j := &Journal{recs: make([]JournalRecord, entries)}
	if sink != nil {
		j.sinkW = sink
		j.sink = bufio.NewWriter(sink)
	}
	return j
}

// Add journals one observation with the phase spans of its run (nil for
// a cache hit); the ring record keeps them until it is overwritten, and
// the sink line is written outside the ring lock with them attached.
func (j *Journal) Add(rec JournalRecord, spans []obs.Span) {
	rec.spans = spans
	j.mu.Lock()
	j.recs[j.next] = rec
	j.next = (j.next + 1) % len(j.recs)
	if j.count < len(j.recs) {
		j.count++
	}
	j.total++
	j.mu.Unlock()

	if j.sink != nil {
		rec.Trace = NewTraceJSON(spans)
		j.sinkMu.Lock()
		if b, err := json.Marshal(rec); err == nil {
			j.sink.Write(b)
			j.sink.WriteByte('\n')
			j.sink.Flush()
		}
		j.sinkMu.Unlock()
	}
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

// Get returns the ring record with the given query ID, its run's spans
// attached as Trace (nil for a cache hit).
func (j *Journal) Get(id int64) (JournalRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := 1; i <= j.count; i++ {
		rec := j.recs[((j.next-i)%len(j.recs)+len(j.recs))%len(j.recs)]
		if rec.ID == id {
			rec.Trace = NewTraceJSON(rec.spans)
			return rec, true
		}
	}
	return JournalRecord{}, false
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
