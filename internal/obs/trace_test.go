package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// A nil *Trace is the disabled tracer: every method no-ops safely.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	tr.Add("filter", "", time.Second, Counters{PagesRead: 1})
	if tr.Spans() != nil || tr.Total() != (Counters{}) || tr.Wall() != 0 {
		t.Fatal("nil trace leaked state")
	}
}

func TestTraceAggregatesByPhaseTag(t *testing.T) {
	tr := NewTrace()
	tr.Add("filter", "", 2*time.Millisecond, Counters{PagesRead: 3, Candidates: 10})
	tr.Add("filter", "", 3*time.Millisecond, Counters{PagesRead: 1, Candidates: 5})
	tr.Add("refine", "", time.Millisecond, Counters{PCells: 7})
	tr.Add("join", "w1", time.Millisecond, Counters{TrueHits: 2})

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3: %+v", len(spans), spans)
	}
	if spans[0].Phase != "filter" || spans[0].Wall != 5*time.Millisecond ||
		spans[0].PagesRead != 4 || spans[0].Candidates != 15 {
		t.Fatalf("filter span = %+v", spans[0])
	}
	total := tr.Total()
	if total.PagesRead != 4 || total.Candidates != 15 || total.PCells != 7 || total.TrueHits != 2 {
		t.Fatalf("total = %+v", total)
	}
	if tr.Wall() <= 0 {
		t.Fatal("wall clock did not advance")
	}
}

func TestTraceOverflowFoldsIntoOther(t *testing.T) {
	tr := NewTrace()
	for i := range MaxSpans {
		tr.Add("tile", fmt.Sprint(i), time.Millisecond, Counters{TrueHits: 1})
	}
	tr.Add("tile", "x", time.Millisecond, Counters{TrueHits: 1}) // overflows
	tr.Add("tile", "y", time.Millisecond, Counters{TrueHits: 1}) // folds into same overflow span
	tr.Add("tile", "0", time.Millisecond, Counters{TrueHits: 1}) // existing key, not folded

	spans := tr.Spans()
	if len(spans) != MaxSpans+1 {
		t.Fatalf("spans = %d, want %d: the cap plus one overflow span", len(spans), MaxSpans+1)
	}
	if other := spans[MaxSpans]; other.Tag != OverflowTag || other.TrueHits != 2 {
		t.Fatalf("overflow span = %+v", other)
	}
	if spans[0].TrueHits != 2 {
		t.Fatalf("span 0 = %+v, want its own second recording", spans[0])
	}
	// Counters are conserved across the fold.
	if total := tr.Total(); total.TrueHits != MaxSpans+3 {
		t.Fatalf("total hits = %d, want %d", total.TrueHits, MaxSpans+3)
	}
}

// Parallel workers record into one trace; run under -race in CI.
func TestTraceConcurrentAdd(t *testing.T) {
	tr := NewTrace()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tag := fmt.Sprintf("w%d", id)
			for i := 0; i < per; i++ {
				tr.Add("filter", tag, time.Microsecond, Counters{Candidates: 1})
				tr.Add("join", tag, time.Microsecond, Counters{TrueHits: 1})
			}
		}(w)
	}
	wg.Wait()
	total := tr.Total()
	if total.Candidates != workers*per || total.TrueHits != workers*per {
		t.Fatalf("total = %+v", total)
	}
	if got := len(tr.Spans()); got != 2*workers {
		t.Fatalf("spans = %d, want %d", got, 2*workers)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{LogicalReads: 1, PagesRead: 2, PagesWritten: 3, DecodeHits: 4, DecodeMisses: 5, Candidates: 6, TrueHits: 7, PCells: 8, Items: 9}
	b := a.Add(a)
	if b.LogicalReads != 2 || b.PagesRead != 4 || b.PagesWritten != 6 || b.DecodeHits != 8 ||
		b.DecodeMisses != 10 || b.Candidates != 12 || b.TrueHits != 14 || b.PCells != 16 || b.Items != 18 {
		t.Fatalf("sum = %+v", b)
	}
}
