package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cij/internal/core"
	"cij/internal/geom"
	"cij/internal/obs"
	"cij/internal/rtree"
)

// unitsPerWorker is the work-queue granularity: more units than workers
// lets the pool rebalance dynamically (a worker that drew a cheap unit
// pulls another), while units stay large enough that each preserves
// reuse-buffer locality across its batches.
const unitsPerWorker = 4

// Options tunes a partition-parallel CIJ run.
type Options struct {
	// Workers is the pool size; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Reuse enables each worker's Voronoi-cell reuse buffer
	// (Section IV-B), exactly as in the serial algorithm.
	Reuse bool
	// OnPair, when non-nil, streams every result pair as it is produced.
	// It is called on Join's calling goroutine while workers are still
	// running — the parallel preservation of the non-blocking property of
	// Fig. 9b — so it needs no internal locking, but it should return
	// quickly: a slow OnPair backpressures the workers.
	OnPair func(core.Pair)
	// OnProgress, when non-nil, streams each progress sample (cumulative
	// physical I/O across all workers vs pairs emitted so far) as the merge
	// records it — the live form of Stats.Progress. Like OnPair it runs on
	// Join's calling goroutine, interleaved with the pair stream, so a
	// consumer can relay a progressive Fig. 9b curve (the query service's
	// NDJSON stream does exactly this) without waiting for Join to return.
	OnProgress func(core.ProgressPoint)
	// CollectPairs controls whether Result.Pairs is populated. Pair order
	// interleaves worker streams and is not deterministic across runs;
	// the pair SET is always identical to serial NM-CIJ's.
	CollectPairs bool
	// Trace, when non-nil, receives per-phase spans: one "partition" span
	// for the unit split, each worker's pipeline phases tagged "w<id>"
	// (workers record concurrently; obs.Trace.Add is thread-safe), and one
	// "merge" span for the event fan-in. Nil costs nothing.
	Trace *obs.Trace
}

// DefaultOptions mirrors core.DefaultOptions for the parallel engine:
// reuse on, pairs collected, pool sized to the machine.
func DefaultOptions() Options {
	return Options{Reuse: true, CollectPairs: true}
}

// Join evaluates CIJ(P, Q) with the partitioned multi-worker engine and
// returns a result equivalent (as a pair set) to core.NMCIJ on the same
// trees. The Q-leaf sequence is partitioned into contiguous Hilbert units,
// joined by a worker pool against the shared read-only trees, and merged
// into one stream; see the package comment for the stage breakdown.
//
// Accounting: Stats.Join is the summed physical I/O of the partition
// traversal and every worker's private buffer — with each tree's own
// serial buffer capacity split evenly across workers, so a W-worker run
// spends about the same total cache memory as the serial run (a
// capacity-0, buffer-less tree stays buffer-less in every fork). Stats.JoinCPU is the
// WALL-CLOCK time of the whole join (that is the quantity a speedup curve
// compares); per-core work is that times the busy worker count.
func Join(rp, rq *rtree.Tree, domain geom.Rect, opts Options) core.Result {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()

	qBase := rq.Buffer().Stats()
	units := PartitionLeaves(rq, domain, workers*unitsPerWorker)
	partitionIO := rq.Buffer().Stats().Sub(qBase)
	tr := opts.Trace
	tr.Add("partition", "", time.Since(start), core.IOCounters(partitionIO).Add(obs.Counters{Items: int64(len(units))}))
	if len(units) < workers {
		workers = len(units)
	}
	if workers == 0 { // empty Q tree: nothing to join
		return core.Result{Stats: core.Stats{Join: partitionIO, JoinCPU: time.Since(start)}}
	}

	capP := perWorkerCapacity(rp.Buffer().Capacity(), workers)
	capQ := perWorkerCapacity(rq.Buffer().Capacity(), workers)

	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = newWorker(i, rp, rq, domain, capP, capQ, opts.Reuse, tr)
	}
	events := make(chan event, workers*2)
	var fault any
	go func() {
		fault = runUnits(workers, units, func(w int, u Unit) { ws[w].process(u, events) })
		for _, w := range ws {
			w.finish(events)
		}
		close(events)
	}()

	mergeStart := time.Now()
	pairs, stats := merge(events, workers, partitionIO, opts)
	// The merge drains events concurrently with the workers, so its wall
	// span overlaps theirs — it measures fan-in latency, not extra work,
	// and carries no I/O (the merge only folds counters).
	tr.Add("merge", "", time.Since(mergeStart), obs.Counters{Items: int64(workers)})
	if fault != nil {
		panic(fault) // on the caller, where a request's own recovery sees it
	}
	stats.JoinCPU = time.Since(start)
	return core.Result{Pairs: pairs, Stats: stats}
}

// runUnits calls do(w, u) for every unit on workers goroutines that claim
// units in order from a shared counter, and returns once every worker has.
// A unit that panics is recovered on its worker; the units not yet
// started are then skipped, and runUnits returns the first value
// recovered (nil if none).
func runUnits(workers int, units []Unit, do func(w int, u Unit)) (fault any) {
	var next atomic.Int64
	var failed atomic.Bool
	var once sync.Once
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(units)) && !failed.Load(); i = next.Add(1) - 1 {
				func() {
					defer func() {
						if p := recover(); p != nil {
							once.Do(func() { fault = p })
							failed.Store(true)
						}
					}()
					do(w, units[i])
				}()
			}
		}()
	}
	wg.Wait()
	return fault
}

// perWorkerCapacity splits one serial buffer capacity across workers,
// keeping a zero capacity at zero (buffer-less stays buffer-less) and
// granting every worker at least one page otherwise.
func perWorkerCapacity(capacity, workers int) int {
	c := capacity / workers
	if capacity > 0 && c < 1 {
		c = 1
	}
	return c
}
