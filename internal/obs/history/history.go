// Package history is the self-scraping metrics history: a capped ring of
// timestamped registry snapshots plus the window math — rates of counter
// families, quantiles of histogram families over the window's bucket
// deltas — that turns point-in-time /metrics scrapes into queryable
// trends (req/s, p99, cache hit-ratio, pages/s) without an external
// Prometheus.
//
// The ring is generic over the registry: it records obs.ScrapeSnapshot
// values keyed by flattened series identity and matches families by name
// prefix, so new metric families become historizable the moment they are
// registered. The service exposes the ring as GET /stats/history.
package history

import (
	"sync"
	"time"

	"cij/internal/obs"
)

// DefaultCapacity bounds the ring when the caller does not: 720 samples
// is one hour at the server's default 5 s interval.
const DefaultCapacity = 720

// Sample is one timestamped registry capture.
type Sample struct {
	T    time.Time
	Snap obs.ScrapeSnapshot
}

// Sum returns this sample's value of the family, summed over its series
// (for gauges: the value at capture time; for counters: the cumulative
// count).
func (s Sample) Sum(family string) float64 { return s.Snap.Sum(family) }

// Ring is the capped sample ring. All methods are safe for concurrent
// use; sampling never blocks metric writers (obs snapshots are atomic
// reads).
type Ring struct {
	reg     *obs.Registry
	collect func() // pre-sample hook (runtime collector); may be nil

	mu       sync.Mutex
	samples  []Sample // ring storage, len == cap once full
	next     int      // index the next sample lands in
	count    int      // live samples, <= cap(samples)
	total    int64    // samples ever taken
	interval time.Duration
}

// New creates a ring over reg holding at most capacity samples
// (capacity <= 0 selects DefaultCapacity). collect, when non-nil, runs
// before every sample — the hook that lets push-style collectors
// (obs.RuntimeCollector.Collect) refresh their families first.
func New(reg *obs.Registry, capacity int, collect func()) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{reg: reg, collect: collect, samples: make([]Sample, capacity)}
}

// Sample takes one snapshot now and appends it to the ring.
func (r *Ring) Sample() {
	if r.collect != nil {
		r.collect()
	}
	s := Sample{T: time.Now(), Snap: r.reg.Snapshot()}
	r.mu.Lock()
	r.samples[r.next] = s
	r.next = (r.next + 1) % len(r.samples)
	if r.count < len(r.samples) {
		r.count++
	}
	r.total++
	r.mu.Unlock()
}

// Start samples immediately and then on every interval tick until the
// returned stop function is called. interval <= 0 only takes the initial
// sample.
func (r *Ring) Start(interval time.Duration) (stop func()) {
	r.mu.Lock()
	r.interval = interval
	r.mu.Unlock()
	r.Sample()
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Sample()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Len reports the live sample count; Total the samples ever taken (the
// difference is what the ring has forgotten). Interval reports the
// sampling interval Start was last called with (0 before Start).
func (r *Ring) Len() int                { r.mu.Lock(); defer r.mu.Unlock(); return r.count }
func (r *Ring) Total() int64            { r.mu.Lock(); defer r.mu.Unlock(); return r.total }
func (r *Ring) Interval() time.Duration { r.mu.Lock(); defer r.mu.Unlock(); return r.interval }

// Window returns the live samples taken within d of the newest one,
// oldest first (d <= 0 returns everything). The slice headers are copies;
// the snapshots are shared read-only.
func (r *Ring) Window(d time.Duration) Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, r.count)
	start := r.next - r.count
	for i := 0; i < r.count; i++ {
		out = append(out, r.samples[((start+i)%len(r.samples)+len(r.samples))%len(r.samples)])
	}
	if d > 0 && len(out) > 0 {
		cutoff := out[len(out)-1].T.Add(-d)
		lo := 0
		for lo < len(out) && out[lo].T.Before(cutoff) {
			lo++
		}
		out = out[lo:]
	}
	return Window{Samples: out}
}

// Window is a chronologically ordered slice of samples with the rate and
// quantile math over its endpoints.
type Window struct {
	Samples []Sample
}

// Span is the wall-clock distance between the window's endpoints.
func (w Window) Span() time.Duration {
	if len(w.Samples) < 2 {
		return 0
	}
	return w.Samples[len(w.Samples)-1].T.Sub(w.Samples[0].T)
}

// Delta returns the window's increase of the counter family, summed over
// its series. Fewer than two samples — no interval — yields 0.
func (w Window) Delta(family string) float64 {
	if len(w.Samples) < 2 {
		return 0
	}
	return w.Samples[len(w.Samples)-1].Sum(family) - w.Samples[0].Sum(family)
}

// Rate returns Delta per second of window span.
func (w Window) Rate(family string) float64 {
	span := w.Span().Seconds()
	if span <= 0 {
		return 0
	}
	return w.Delta(family) / span
}

// Last returns the newest sample's sum of the family (gauges: the current
// value), or 0 on an empty window.
func (w Window) Last(family string) float64 {
	if len(w.Samples) == 0 {
		return 0
	}
	return w.Samples[len(w.Samples)-1].Sum(family)
}

// HistDelta returns the histogram family's bucket increments over the
// window, summed across its series — the per-window distribution that
// Quantile estimates from.
func (w Window) HistDelta(family string) obs.HistSnapshot {
	if len(w.Samples) < 2 {
		return obs.HistSnapshot{}
	}
	return w.Samples[len(w.Samples)-1].Snap.HistSum(family).Sub(w.Samples[0].Snap.HistSum(family))
}

// Quantile estimates the q-quantile of the histogram family's
// observations within the window (0 when the window saw none).
func (w Window) Quantile(family string, q float64) float64 {
	return w.HistDelta(family).Quantile(q)
}

// Ratio returns the windowed delta of the num family over the sum of the
// num and den deltas — the hit-ratio shape (hits / (hits + misses)) —
// or 0 when the window moved neither.
func (w Window) Ratio(num, den string) float64 {
	n, d := w.Delta(num), w.Delta(den)
	if n+d <= 0 {
		return 0
	}
	return n / (n + d)
}
