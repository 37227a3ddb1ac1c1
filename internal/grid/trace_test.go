package grid

import (
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/obs"
)

// TestTraceSumsToStats pins the trace/stats reconciliation for the grid
// backend: the spans' PCells, Candidates and TrueHits sum to the
// aggregate Stats, and no I/O counter ever appears — the backend performs
// none.
func TestTraceSumsToStats(t *testing.T) {
	p := dataset.Clustered(700, 6, 51)
	q := dataset.Uniform(600, 52)

	opts := DefaultOptions()
	opts.Trace = obs.NewTrace()
	res := Join(p, q, dataset.Domain, opts)
	if len(res.Pairs) == 0 {
		t.Fatal("no pairs")
	}

	total := opts.Trace.Total()
	if total.Candidates != res.Stats.Candidates || total.TrueHits != res.Stats.TrueHits {
		t.Fatalf("trace filter counters %+v != stats %+v", total, res.Stats)
	}
	if total.PCells != res.Stats.PCellsComputed {
		t.Fatalf("trace p-cells %d != stats %d", total.PCells, res.Stats.PCellsComputed)
	}
	if total.PagesRead != 0 || total.PagesWritten != 0 || total.LogicalReads != 0 {
		t.Fatalf("grid trace reported I/O: %+v", total)
	}

	phases := map[string]bool{}
	for _, sp := range opts.Trace.Spans() {
		phases[sp.Phase] = true
	}
	for _, want := range []string{"triangulate", "join"} {
		if !phases[want] {
			t.Fatalf("missing phase %q in %v", want, phases)
		}
	}
}

// TestTraceDoesNotPerturbResult: the traced pair set and counters equal
// the untraced ones.
func TestTraceDoesNotPerturbResult(t *testing.T) {
	p := dataset.Uniform(500, 61)
	q := dataset.Clustered(500, 5, 62)

	plain := Join(p, q, dataset.Domain, DefaultOptions())
	opts := DefaultOptions()
	opts.Trace = obs.NewTrace()
	traced := Join(p, q, dataset.Domain, opts)
	if !core.SamePairs(plain.Pairs, traced.Pairs) {
		t.Fatal("tracing changed the grid pair set")
	}
	if plain.Stats.Candidates != traced.Stats.Candidates || plain.Stats.TrueHits != traced.Stats.TrueHits {
		t.Fatal("tracing perturbed grid counters")
	}
}

// TestWaitSpan: a flood on 3 workers in 1-vertex units traces one "wait"
// span, whose Items (the units the caller blocked on) stay below the
// units the flood ran, since the caller runs the first itself; a
// one-worker flood traces none.
func TestWaitSpan(t *testing.T) {
	const n = 300
	gp := NewGraph(dataset.Uniform(n, 71), nil, dataset.Domain)
	gq := NewGraph(dataset.Clustered(n, 4, 72), nil, dataset.Domain)
	for _, workers := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Trace = obs.NewTrace()
		joinGraphs(gp, gq, opts, workers, 1)
		var waits []obs.Span
		for _, sp := range opts.Trace.Spans() {
			if sp.Phase == "wait" {
				waits = append(waits, sp)
			}
		}
		switch {
		case workers == 1 && len(waits) != 0:
			t.Fatalf("1 worker traced wait spans %+v", waits)
		case workers > 1 && (len(waits) != 1 || waits[0].Items >= n):
			t.Fatalf("%d workers traced wait spans %+v, want one with fewer than %d units", workers, waits, n)
		}
		if workers > 1 {
			t.Logf("%d workers: the caller waited %v for %d units", workers, waits[0].Wall, waits[0].Items)
		}
	}
}
