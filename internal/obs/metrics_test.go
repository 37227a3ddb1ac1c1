package obs

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// expositionLineRe matches one sample line of the text exposition format:
// metric name, optional label set, and a float/int value.
var expositionLineRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := reg.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}

	g := reg.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestCounterVecSeriesIdentity(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("req_total", "requests", "route", "code")
	v.With("/join", "200").Add(3)
	v.With("/join", "400").Inc()
	if got := v.With("/join", "200").Value(); got != 3 {
		t.Fatalf("series = %d, want 3", got)
	}
	if got := reg.FindCounter("req_total", "/join", "400"); got == nil || got.Value() != 1 {
		t.Fatalf("FindCounter = %v", got)
	}
	if reg.FindCounter("req_total", "/nope", "200") != nil {
		t.Fatal("unknown series should be nil")
	}
	if reg.FindCounter("absent") != nil {
		t.Fatal("absent family should be nil")
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	assertPanics(t, func() { reg.Gauge("x_total", "x") })
	assertPanics(t, func() { reg.CounterVec("x_total", "x", "label") })
	assertPanics(t, func() { reg.Counter("bad name", "x") })
	assertPanics(t, func() { reg.CounterVec("y_total", "y", "bad-label") })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// Bucket boundaries are inclusive upper bounds (Prometheus `le`): a value
// exactly on a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "h", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 6} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 1, 1} // le=1: {0.5, 1}; le=2: {1.0000001, 2}; le=5: {5}; +Inf: {6}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-15.5000001) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramBucketsNormalized(t *testing.T) {
	reg := NewRegistry()
	// Unsorted with an explicit +Inf: sorted, +Inf dropped (implicit).
	h := reg.Histogram("n_seconds", "n", []float64{5, 1, math.Inf(1), 2})
	if got := h.Snapshot().Bounds; len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Fatalf("bounds = %v", got)
	}
	// nil buckets select the default latency layout.
	d := reg.Histogram("d_seconds", "d", nil)
	if got := d.Snapshot().Bounds; len(got) != len(DefLatencyBuckets) {
		t.Fatalf("default bounds = %v", got)
	}
	assertPanics(t, func() { reg.Histogram("inf_only", "i", []float64{math.Inf(1)}) })
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_seconds", "q", []float64{0.1, 0.2, 0.4, 0.8})
	// 100 observations uniform in (0, 0.1]: everything in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(0.001 * float64(i))
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); math.Abs(p50-0.05) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.05", p50)
	}
	if p100 := s.Quantile(1); math.Abs(p100-0.1) > 1e-9 {
		t.Fatalf("p100 = %v, want 0.1", p100)
	}

	h2 := reg.Histogram("q2_seconds", "q", []float64{1, 2})
	h2.Observe(10) // overflow bucket clamps to the largest finite bound
	if got := h2.Snapshot().Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want 2", got)
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestHistogramSnapshotSub(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("s_seconds", "s", []float64{1})
	h.Observe(0.5)
	before := h.Snapshot()
	h.Observe(0.5)
	h.Observe(3)
	d := h.Snapshot().Sub(before)
	if d.Count != 2 || d.Counts[0] != 1 || d.Counts[1] != 1 {
		t.Fatalf("diff = %+v", d)
	}
	if math.Abs(d.Sum-3.5) > 1e-9 {
		t.Fatalf("diff sum = %v", d.Sum)
	}
}

// Concurrent increments across counters, gauges, histogram observations
// and scrapes — run under -race in CI.
func TestConcurrentMutationAndScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("cc_total", "c")
	v := reg.CounterVec("cv_total", "v", "w")
	h := reg.HistogramVec("ch_seconds", "h", []float64{0.01, 0.1, 1}, "algo")
	reg.GaugeFunc("cg", "g", func() float64 { return 42 })

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lbl := string(rune('a' + id%4))
			for i := 0; i < per; i++ {
				c.Inc()
				v.With(lbl).Inc()
				h.With(lbl).Observe(0.05)
				if i%100 == 0 {
					var sb strings.Builder
					reg.WriteTo(&sb)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	var total int64
	for _, lbl := range []string{"a", "b", "c", "d"} {
		total += v.With(lbl).Value()
		if s := h.With(lbl).Snapshot(); s.Count != workers/4*per || s.Counts[1] != s.Count {
			t.Fatalf("histogram %q snapshot = %+v", lbl, s)
		}
	}
	if total != workers*per {
		t.Fatalf("vec total = %d, want %d", total, workers*per)
	}
}

func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("plain_total", "a plain counter").Add(3)
	reg.CounterVec("lbl_total", "labeled", "route").With(`a"b\c`).Inc()
	reg.Histogram("lat_seconds", "latency", []float64{0.5, 1}).Observe(0.7)
	reg.GaugeFunc("fn_gauge", "func gauge", func() float64 { return 2.5 })

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP plain_total a plain counter\n# TYPE plain_total counter\nplain_total 3\n",
		"# TYPE fn_gauge gauge\nfn_gauge 2.5\n",
		`lbl_total{route="a\"b\\c"} 1` + "\n",
		`lat_seconds_bucket{le="0.5"} 0` + "\n",
		`lat_seconds_bucket{le="1"} 1` + "\n",
		`lat_seconds_bucket{le="+Inf"} 1` + "\n",
		"lat_seconds_sum 0.7\n",
		"lat_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families are sorted by name for deterministic scrapes.
	if strings.Index(out, "# TYPE fn_gauge") > strings.Index(out, "# TYPE lat_seconds") {
		t.Fatalf("families not sorted:\n%s", out)
	}
	// Every non-comment line must parse as `name{labels} value`.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLineRe.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
}
