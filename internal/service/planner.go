package service

import (
	"fmt"
	"runtime"
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/grid"
	"cij/internal/obs"
	"cij/internal/parallel"
	"cij/internal/storage"
)

// autoPointsPerWorker is the planner's sizing unit: roughly how many
// joined points one worker is worth. The auto plan goes parallel once the
// joint cardinality covers two workers and sizes the pool as
// cardinality / autoPointsPerWorker (capped at GOMAXPROCS) — small joins
// stay serial because partitioning and merge overhead would dominate them.
const autoPointsPerWorker = 25_000

// Plan is a resolved execution strategy for one join query.
type Plan struct {
	// Algo is the concrete algorithm: "nm", "parallel" or "grid".
	Algo string `json:"algo"`
	// Workers is the pool size when Algo is "parallel", 0 otherwise.
	Workers int `json:"workers,omitempty"`
	// Storage is the node representation the tree algorithms read:
	// "flat" (arena-resident, decode-free, zero page I/O) or "paged"
	// (the paper's LRU-buffered disk format). Empty for the grid
	// backend, which indexes nothing.
	Storage string `json:"storage,omitempty"`
}

// plan maps a query onto a concrete algorithm, worker count and storage,
// and narrates the decision as it makes it: every branch writes the
// reason for its own choice, so the explanation the journal and
// ?explain=1 report is the plan's own record, not a re-derivation.
// Explicit choices are honored; "auto" (or empty) consults the dataset
// cardinalities: large joins go to the parallel partitioned engine, an
// explicit storage selects NM-CIJ, and every other join goes to the
// in-memory grid backend, whose Delaunay walk costs the same at any
// density.
func plan(q Query, left, right *Dataset) (Explanation, error) {
	stor, explicitStorage, err := normalizeStorage(q.Storage)
	if err != nil {
		return Explanation{}, err
	}
	total := left.Live + right.Live
	var pl Plan
	var reason string
	switch q.Algo {
	case "", "auto":
		switch w := autoWorkers(total); {
		case q.Workers > 0:
			// An explicit worker count — including 1, a client bounding
			// its CPU share — fixes the pool; only workers <= 0 leaves
			// the choice to the planner.
			pl = Plan{Algo: "parallel", Workers: clampWorkers(q.Workers)}
			reason = fmt.Sprintf("explicit worker count %d selects the parallel engine (clamped to %d)",
				q.Workers, pl.Workers)
		case w > 1:
			pl = Plan{Algo: "parallel", Workers: w}
			reason = fmt.Sprintf("joint cardinality %d covers %d workers at %d points/worker, so the join parallelizes",
				total, w, autoPointsPerWorker)
		case explicitStorage:
			// An explicit storage choice is a statement about tree nodes,
			// so algo-auto then restricts itself to the tree algorithms.
			pl = Plan{Algo: "nm"}
			reason = fmt.Sprintf("explicit storage %q restricts algo-auto to the tree algorithms; serial range selects NM-CIJ", stor)
		default:
			pl = Plan{Algo: "grid"}
			reason = "serial-range join routes to the in-memory grid"
		}
	case "nm", "grid", "parallel":
		pl = Plan{Algo: q.Algo}
		reason = fmt.Sprintf("algorithm %q requested explicitly", q.Algo)
		if q.Algo == "parallel" {
			if q.Workers > 0 {
				pl.Workers = clampWorkers(q.Workers)
			} else {
				pl.Workers = autoWorkers(total)
				reason += fmt.Sprintf("; pool auto-sized to %d workers from %d joint points at %d points/worker",
					pl.Workers, total, autoPointsPerWorker)
			}
		}
	default:
		return Explanation{}, fmt.Errorf("unknown algo %q (want nm, parallel, grid or auto)", q.Algo)
	}

	// The storage decision. The grid backend indexes nothing and carries
	// no storage; NM and parallel read either representation.
	switch {
	case pl.Algo == "grid":
		if explicitStorage {
			return Explanation{}, fmt.Errorf("storage %q does not apply to the grid backend (it joins raw pointsets, no tree)", stor)
		}
	case stor == "flat":
		pl.Storage = "flat"
		reason += "; flat storage requested explicitly (arena nodes, zero page I/O)"
	case stor == "paged":
		pl.Storage = "paged"
		reason += "; paged storage requested explicitly (the paper's LRU-buffered disk format)"
	default:
		// Every registered dataset lives in memory and carries a frozen
		// flat tree, so auto picks the decode-free representation;
		// "paged" remains the knob for measuring the paper's I/O behavior.
		pl.Storage = "flat"
		reason += "; storage auto-selects flat (datasets are in-memory, so joins read arena nodes decode-free)"
	}
	return Explanation{Plan: pl, Reason: reason, Inputs: PlanInputs{
		LeftPoints:      left.Live,
		RightPoints:     right.Live,
		TotalPoints:     total,
		PointsPerWorker: autoPointsPerWorker,
		MaxWorkers:      runtime.GOMAXPROCS(0),
	}}, nil
}

// normalizeStorage canonicalizes the storage knob: auto (empty included)
// leaves the choice to the planner; paged and flat are explicit requests.
func normalizeStorage(s string) (value string, explicit bool, err error) {
	switch s {
	case "", "auto":
		return "auto", false, nil
	case "paged", "flat":
		return s, true, nil
	default:
		return "", false, fmt.Errorf("unknown storage %q (want paged, flat or auto)", s)
	}
}

// autoWorkers sizes a worker pool from the joint cardinality.
func autoWorkers(totalPoints int) int {
	return clampWorkers(totalPoints / autoPointsPerWorker)
}

// clampWorkers bounds a worker count to [1, GOMAXPROCS]: more workers than
// cores never helps this CPU-bound kernel.
func clampWorkers(w int) int {
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// execHooks are the streaming callbacks of one join execution. They run
// on the executing goroutine (the request handler's), mirroring the
// contract of core.Options.OnPair / parallel.Options.OnPair+OnProgress.
type execHooks struct {
	onPair     func(core.Pair)
	onProgress func(core.ProgressPoint)
}

// execute runs the planned join and returns the full result with its cost.
// NM and parallel runs read the registry trees through per-request buffer
// views and the grid reads the raw point arrays, so no plan writes a page:
// the registry's dataset disks stay strictly read-only after build, which
// is what makes concurrent queries safe. tr is threaded into the engine so
// its spans cover every phase; the eviction metric hook rides the same
// per-request buffers (worker forks inherit it).
func (s *Service) execute(left, right *Dataset, pl Plan, hooks execHooks, tr *obs.Trace) *cachedResult {
	start := time.Now()
	var res core.Result
	var io storage.Stats
	switch pl.Algo {
	case "grid":
		// The in-memory backend joins the raw pointsets: no tree view, no
		// buffer fork, no pages — its physical I/O is genuinely zero. It
		// consumes dense slices whose positions double as IDs, so mutated
		// datasets hand it the live compaction and the emitted pairs are
		// remapped back to original IDs — the tree algorithms need neither
		// (registry trees index live points under their original IDs
		// already). For never-deleted datasets JoinPoints returns nil id
		// tables and the remap is free.
		leftPts, leftIDs := left.JoinPoints()
		rightPts, rightIDs := right.JoinPoints()
		opts := grid.DefaultOptions()
		opts.OnPair = remapOnPair(hooks.onPair, leftIDs, rightIDs)
		opts.Trace = tr
		res = grid.Join(leftPts, rightPts, dataset.Domain, opts)
		remapPairs(res.Pairs, leftIDs, rightIDs)
	case "nm":
		rp, rq := left.StorageView(pl.Storage), right.StorageView(pl.Storage)
		rp.Buffer().SetOnEvict(s.metrics.onEvict)
		rq.Buffer().SetOnEvict(s.metrics.onEvict)
		opts := core.DefaultOptions()
		opts.OnPair = hooks.onPair
		opts.Trace = tr
		res = core.NMCIJ(rp, rq, dataset.Domain, opts)
		// The serial collector meters rp's buffer only (the single-disk
		// setting of the paper); with per-dataset disks the request's I/O
		// is the sum over both private views — which is also exactly what
		// the trace spans meter, so response and trace reconcile.
		io = rp.Buffer().Stats().Add(rq.Buffer().Stats())
	case "parallel":
		rp, rq := left.StorageView(pl.Storage), right.StorageView(pl.Storage)
		rp.Buffer().SetOnEvict(s.metrics.onEvict)
		rq.Buffer().SetOnEvict(s.metrics.onEvict)
		opts := parallel.DefaultOptions()
		opts.Workers = pl.Workers
		opts.OnPair = hooks.onPair
		opts.OnProgress = hooks.onProgress
		opts.Trace = tr
		res = parallel.Join(rp, rq, dataset.Domain, opts)
		io = res.Stats.Mat.Add(res.Stats.Join) // partition traversal + all worker forks
	default:
		panic("service: unplanned algo " + pl.Algo)
	}
	return &cachedResult{
		Pairs:        res.Pairs,
		Count:        int64(len(res.Pairs)),
		IO:           io,
		CPU:          time.Since(start),
		Trace:        tr.Spans(),
		TraceDropped: tr.Dropped(),
	}
}

// remapOnPair wraps a streaming pair callback so grid runs over compacted
// live slices emit original point IDs. Dense datasets pass through
// untouched.
func remapOnPair(onPair func(core.Pair), leftIDs, rightIDs []int64) func(core.Pair) {
	if onPair == nil || (leftIDs == nil && rightIDs == nil) {
		return onPair
	}
	return func(p core.Pair) { onPair(remapPair(p, leftIDs, rightIDs)) }
}

// remapPair translates one compacted-index pair back to original IDs.
func remapPair(p core.Pair, leftIDs, rightIDs []int64) core.Pair {
	if leftIDs != nil {
		p.P = leftIDs[p.P]
	}
	if rightIDs != nil {
		p.Q = rightIDs[p.Q]
	}
	return p
}

// remapPairs translates a result's pair list in place; a no-op for dense
// datasets (nil id tables). Pairs stay sorted: the id tables are built
// in ascending ID order, so the remap is strictly monotone in each
// coordinate.
func remapPairs(pairs []core.Pair, leftIDs, rightIDs []int64) {
	if leftIDs == nil && rightIDs == nil {
		return
	}
	for i := range pairs {
		pairs[i] = remapPair(pairs[i], leftIDs, rightIDs)
	}
}

// PlanInputs are the decision inputs the planner consulted — everything a
// client needs to reproduce (or argue with) the routing by hand.
type PlanInputs struct {
	LeftPoints  int `json:"left_points"`
	RightPoints int `json:"right_points"`
	TotalPoints int `json:"total_points"`
	// PointsPerWorker is the planner's gate (autoPointsPerWorker);
	// MaxWorkers is GOMAXPROCS at planning time.
	PointsPerWorker int `json:"points_per_worker"`
	MaxWorkers      int `json:"max_workers"`
}

// Explanation is the planner's decision: the plan it executes, why, and
// the inputs the decision was made from. ?explain=1 returns it without
// executing; a served join keeps it in its Outcome and journals it.
type Explanation struct {
	Plan   Plan       `json:"plan"`
	Reason string     `json:"reason"`
	Inputs PlanInputs `json:"inputs"`
	// Observed is the journal's aggregate over past executions of this
	// exact plan on these exact dataset versions — the "observed" half of
	// modeled-vs-observed. Explain always sets it; served joins leave it
	// nil.
	Observed *ObservedJSON `json:"observed,omitempty"`
}

// Explain resolves and plans q without executing anything — the backing of
// POST /join?explain=1.
func (s *Service) Explain(q Query) (Explanation, error) {
	left, right, err := s.operands(q)
	if err != nil {
		return Explanation{}, err
	}
	ex, err := plan(q, left, right)
	if err != nil {
		return ex, err
	}
	seen := s.journal.Observed(left.Name, left.Version, right.Name, right.Version, ex.Plan)
	ex.Observed = &seen
	return ex, nil
}
