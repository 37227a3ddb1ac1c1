package main

import (
	"math"
	"sort"
	"sync"
)

// recorder collects named sample series from concurrent clients. A
// series holds one value per operation (or per set-up); metrics are
// derived from whole series once the run ends.
type recorder struct {
	mu     sync.Mutex
	series map[string][]float64
}

func newRecorder() *recorder { return &recorder{series: make(map[string][]float64)} }

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.series[name] = append(r.series[name], v)
	r.mu.Unlock()
}

// get returns a sorted copy of the named series.
func (r *recorder) get(name string) []float64 {
	r.mu.Lock()
	out := append([]float64(nil), r.series[name]...)
	r.mu.Unlock()
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the closest ranks of a sorted
// series; 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}

// ratio is num/den, 0 when den is 0 (an idle layer).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartiles returns the first quartile, median and third quartile by the
// method of Python's statistics.quantiles(values, n=4) (the "exclusive"
// method), so compare's spreads match the ones acceptance checks compute.
// A single value is its own quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out[0], out[1], out[2]
}
