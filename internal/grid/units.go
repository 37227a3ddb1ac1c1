package grid

import (
	"sync"
	"sync/atomic"
	"time"
)

// runUnits calls do(w, u, direct) once for every unit u in [0, units) on
// min(workers, units) goroutines and returns when all have finished. The
// caller is worker 0 and runs unit 0; helpers (workers 1 and up, each in a
// goroutine of its own) claim the other units from a shared counter, and
// so does the caller after each of its own.
//
// deliver, when non-nil, runs on the caller for every unit in unit order,
// as soon as that unit and every one before it have finished. A unit the
// caller reaches with every earlier unit delivered runs with direct set:
// it may report its results as it finds them, and deliver skips it. Unit 0
// always runs so.
//
// A panicking unit is recovered on its worker. The units not yet started
// are then skipped, nothing is delivered any more, and once every helper
// has returned runUnits panics on the caller with the first value
// recovered, where a request's own recovery sees it.
//
// It returns what the caller spent waiting for units a helper had not
// finished when the caller needed them.
func runUnits(workers, units int, do func(w, u int, direct bool), deliver func(u int)) (wait unitWait) {
	if units <= 0 {
		return wait
	}
	wait.helped = min(workers, units) > 1
	r := unitRun{do: do, done: make([]chan struct{}, units)}
	for u := range r.done {
		r.done[u] = make(chan struct{})
	}
	r.claimed.Store(1) // unit 0 is the caller's
	var wg sync.WaitGroup
	for w := 1; w < min(workers, units); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := r.claim(); u < units; u = r.claim() {
				r.run(w, u, false)
			}
		}()
	}
	defer func() {
		// Also on the way out of a panicking deliver: the helpers skip
		// what is left, and none outlives the call.
		r.failed.Store(true)
		wg.Wait()
		if r.fault != nil {
			panic(r.fault)
		}
	}()

	next := 0 // the first unit not yet delivered
	flush := func(block bool) {
		for ; next < units && !r.failed.Load(); next++ {
			select {
			case <-r.done[next]:
			default:
				if !block {
					return
				}
				t := time.Now()
				<-r.done[next]
				wait.blocked += time.Since(t)
				wait.units++
			}
			if deliver != nil && !r.failed.Load() {
				deliver(next)
			}
		}
	}
	for u := 0; u < units; u = r.claim() {
		direct := u == next
		r.run(0, u, direct)
		if direct {
			next++
		}
		flush(false)
	}
	flush(true)
	return wait
}

// unitWait is the time the caller of runUnits spent blocked on units that
// helpers were still running, and on how many units.
type unitWait struct {
	helped  bool // the units ran on more than one goroutine
	blocked time.Duration
	units   int
}

// unitRun is the shared state of one runUnits call.
type unitRun struct {
	do      func(w, u int, direct bool)
	claimed atomic.Int64
	done    []chan struct{} // closed when the unit has finished or been skipped
	failed  atomic.Bool
	once    sync.Once
	fault   any // the first recovered panic; read after every worker returned
}

func (r *unitRun) claim() int { return int(r.claimed.Add(1) - 1) }

func (r *unitRun) run(w, u int, direct bool) {
	defer close(r.done[u])
	defer func() {
		if p := recover(); p != nil {
			r.once.Do(func() { r.fault = p })
			r.failed.Store(true)
		}
	}()
	if !r.failed.Load() {
		r.do(w, u, direct)
	}
}
