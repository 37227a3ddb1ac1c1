package grid

import (
	"time"

	"cij/internal/core"
	"cij/internal/geom"
	"cij/internal/obs"
)

// Options tunes a grid join.
type Options struct {
	// OnPair, when non-nil, streams every result pair as the flood finds
	// it (P's sites in Hilbert order, on the calling goroutine).
	OnPair func(core.Pair)
	// CollectPairs controls whether Result.Pairs is populated.
	CollectPairs bool
	// Trace, when non-nil, receives a "triangulate" span per operand
	// (tagged "p" and "q") and a "join" span carrying the P cells,
	// candidates and true hits. The backend performs no I/O, so spans
	// carry only wall clock and the filter-quality counters. Nil costs
	// nothing.
	Trace *obs.Trace
}

// DefaultOptions mirrors core.DefaultOptions for the grid backend: pairs
// collected.
func DefaultOptions() Options {
	return Options{CollectPairs: true}
}

// Join evaluates CIJ(P, Q) in memory and returns a result equivalent (as
// a pair set) to core.NMCIJ over R-trees on the same pointsets. It
// triangulates both operands, then floods Q's Delaunay graph from the Q
// site nearest each P site, computing cells on demand and testing each
// candidate with the shared predicate core.CellsJoinWith.
//
// Stats: MatCPU is the two triangulations and JoinCPU the flood; the I/O
// counters stay zero. PCellsComputed counts P cells (one per distinct P
// point), Candidates the predicate tests and TrueHits the tests that
// joined, so FalseHitRatio describes the flood's MBR filter.
func Join(p, q []geom.Point, domain geom.Rect, opts Options) core.Result {
	start := time.Now()
	var res core.Result
	if len(p) == 0 || len(q) == 0 {
		res.Stats.JoinCPU = time.Since(start)
		return res
	}

	tr := opts.Trace
	tp := triangulate(p, domain)
	mid := time.Now()
	tr.Add("triangulate", "p", mid.Sub(start), obs.Counters{Items: int64(len(p))})
	tq := triangulate(q, domain)
	joinStart := time.Now()
	tr.Add("triangulate", "q", joinStart.Sub(mid), obs.Counters{Items: int64(len(q))})
	res.Stats.MatCPU = joinStart.Sub(start)

	flood(tp, tq, domain, opts, &res)
	res.Stats.JoinCPU = time.Since(joinStart)
	tr.Add("join", "", res.Stats.JoinCPU, obs.Counters{
		PCells:     res.Stats.PCellsComputed,
		Candidates: res.Stats.Candidates,
		TrueHits:   res.Stats.TrueHits,
	})
	return res
}
