package parallel

import (
	"fmt"

	"cij/internal/core"
	"cij/internal/geom"
	"cij/internal/obs"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// event is one message on the worker → merge stream: the pairs of one
// processed batch plus the sending worker's cumulative I/O snapshot, and —
// exactly once per worker, as its last message — the final filter-quality
// counters.
type event struct {
	worker int
	pairs  []core.Pair
	io     storage.Stats // cumulative I/O of this worker's buffers
	final  *core.Stats   // non-nil on the worker's last event
}

// worker owns one NM-CIJ pipeline over private tree views: its buffer
// forks cache independently and count only its own I/O, so the batch loop
// runs without any synchronization. Workers claim units from a shared
// counter (runUnits), which load-balances dynamically — a worker that drew
// a cheap unit simply draws the next one.
//
// The pipeline also carries all per-batch scratch (the typed best-first
// queues, Voronoi workspaces, clipping buffers and polygon arenas of
// core.BatchPipeline), so each worker's hot path is allocation-free in
// steady state: no GC pressure is shared between workers beyond the
// per-batch pair slices handed to the merge.
type worker struct {
	id   int
	pipe *core.BatchPipeline
	bufs []*storage.Buffer
}

// newWorker forks private buffers over the trees' disks — capP pages for
// the P side, capQ for the Q side, each derived from that tree's own
// serial buffer — and builds the worker's pipeline. The fork structure
// mirrors the serial one buffer-for-buffer: when both trees read through
// one shared buffer (the paper's setup) a single fork serves both views
// (capP and capQ coincide there); trees with distinct buffers get
// distinct forks even on a shared disk, keeping each side's cache memory
// and I/O accounting aligned with its serial counterpart.
func newWorker(id int, rp, rq *rtree.Tree, domain geom.Rect, capP, capQ int, reuse bool, tr *obs.Trace) *worker {
	bufP := rp.Buffer().Fork(capP)
	bufs := []*storage.Buffer{bufP}
	bufQ := bufP
	if rq.Buffer() != rp.Buffer() {
		bufQ = rq.Buffer().Fork(capQ)
		bufs = append(bufs, bufQ)
	}
	pipe := core.NewBatchPipeline(rp.WithBuffer(bufP), rq.WithBuffer(bufQ), domain, reuse)
	if tr.Enabled() {
		// Workers share one trace; the tag separates their spans and
		// Trace.Add serializes the concurrent recordings. All worker I/O
		// happens inside ProcessBatch (units carry pre-extracted batches),
		// so the pipeline spans cover the forks' counters exactly.
		pipe.SetTrace(tr, fmt.Sprintf("w%d", id))
	}
	return &worker{
		id:   id,
		pipe: pipe,
		bufs: bufs,
	}
}

// process joins one unit, streaming one event per processed batch so
// pairs reach the merge (and the caller's OnPair) while the join is still
// in flight.
func (w *worker) process(u Unit, out chan<- event) {
	for _, group := range u.Batches {
		var pairs []core.Pair
		w.pipe.ProcessBatch(group, func(p core.Pair) { pairs = append(pairs, p) })
		out <- event{worker: w.id, pairs: pairs, io: w.ioStats()}
	}
}

// finish reports the worker's filter counters, its last event.
func (w *worker) finish(out chan<- event) {
	final := w.pipe.FilterStats()
	out <- event{worker: w.id, io: w.ioStats(), final: &final}
}

func (w *worker) ioStats() storage.Stats {
	var s storage.Stats
	for _, b := range w.bufs {
		s = s.Add(b.Stats())
	}
	return s
}
