package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json compare reads: each metric's
// direction and, for end-to-end metrics, its regression bound.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent (the repository root when run from bench/).
func loadSpec() (map[string]specMetric, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := make(map[string]specMetric)
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// side is one result file: per workload and metric, the value and seed
// of every run, ordered by seed and then by file order. Per-layer metrics
// come from traced runs only, every other metric from untraced ones.
type side struct {
	file    string
	host    hostInfo
	samples map[[2]string][]sample
	window  map[string]float64 // workload -> its runs' window in seconds
	units   map[string]string
}

type sample struct {
	seed  int64
	value float64
}

// readSide reads one result file. A file whose runs of one workload mix
// window lengths is refused: their values do not measure the same thing.
func readSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{file: path, samples: make(map[[2]string][]sample), window: make(map[string]float64), units: make(map[string]string)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if w, seen := s.window[res.Workload]; seen && w != res.Seconds {
			return nil, fmt.Errorf("%s: %s runs mix %gs and %gs windows; compare files of one window length", path, res.Workload, w, res.Seconds)
		}
		s.window[res.Workload] = res.Seconds
		s.host = res.Host
		for name, m := range res.Metrics {
			if isLayer(name) != res.Trace {
				continue
			}
			k := [2]string{res.Workload, name}
			s.samples[k] = append(s.samples[k], sample{res.Seed, m.Value})
			s.units[name] = m.Unit
		}
	}
	for _, ss := range s.samples {
		slices.SortStableFunc(ss, func(a, b sample) int { return cmp.Compare(a.seed, b.seed) })
	}
	return s, sc.Err()
}

// values returns the samples' values and seeds their seeds, both in
// sample order.
func values(ss []sample) []float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = s.value
	}
	return vs
}

func seeds(ss []sample) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.seed
	}
	return out
}

// runCompare prints, per workload and metric, each file's median and
// quartiles beside the first file's, the difference of the medians, the
// bound BENCHMARK.json fixes, how many same-seed run pairs the later file
// won, and a verdict: within, better, worse, or unresolved when a side's
// spread exceeds the bound. Files whose seeds or windows differ for a
// workload are refused.
func runCompare(files []string, stdout, stderr io.Writer) int {
	if len(files) < 2 {
		fmt.Fprintln(stderr, "bench: -compare needs at least two result files (the first is the baseline)")
		return 2
	}
	metrics, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	sides := make([]*side, len(files))
	for i, f := range files {
		if sides[i], err = readSide(f); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		h := sides[i].host
		fmt.Fprintf(stdout, "%s: %d CPUs (GOMAXPROCS %d), %s, %s, commit %s, data on %s\n",
			f, h.CPUs, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Commit, h.DataFS)
	}
	base := sides[0]
	// Runs pair up by seed, so each side must hold the same seeds and
	// window for a workload; pooling unlike runs would compare the draw.
	for _, s := range sides[1:] {
		for k, a := range base.samples {
			b, ok := s.samples[k]
			if !ok {
				continue
			}
			if !slices.Equal(seeds(a), seeds(b)) || base.window[k[0]] != s.window[k[0]] {
				fmt.Fprintf(stderr, "bench: %s %s: %s has seeds %v (%gs), %s has seeds %v (%gs); compare runs of the same seeds and window\n",
					k[0], k[1], base.file, seeds(a), base.window[k[0]], s.file, seeds(b), s.window[k[0]])
				return 1
			}
		}
	}
	keys := make([][2]string, 0, len(base.samples))
	for k := range base.samples {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]string) int {
		if c := slices.Index(workloadNames(), a[0]) - slices.Index(workloadNames(), b[0]); c != 0 {
			return c
		}
		return strings.Compare(a[1], b[1])
	})

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tfile\tmedian [q1, q3]\tdiff\tbound\twins\tverdict")
	for _, k := range keys {
		a := values(base.samples[k])
		m, known := metrics[k[1]]
		if !known { // reported but unbounded: lower reads better
			m = specMetric{Name: k[1], Better: "lower"}
		}
		for _, s := range sides[1:] {
			bs, ok := s.samples[k]
			b := values(bs)
			if !ok || (!slices.ContainsFunc(a, nonZero) && !slices.ContainsFunc(b, nonZero)) {
				continue // absent, or a layer neither side reaches
			}
			diff, wins, pairs, v := judge(a, b, m)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%d/%d\t%s\n",
				k[0], k[1], base.units[k[1]], quartileText(a), s.file, quartileText(b), 100*diff, boundText(m), wins, pairs, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	// Tracing overhead: a traced run's operation median over an untraced
	// one's, per workload and file.
	for _, s := range sides {
		for _, w := range workloadNames() {
			traced, plain := values(s.samples[[2]string{w, "trace.op_p50_ms"}]), values(s.samples[[2]string{w, "op_p50_ms"}])
			if len(traced) > 0 && len(plain) > 0 {
				_, t, _ := quartiles(traced)
				_, p, _ := quartiles(plain)
				fmt.Fprintf(stdout, "%s %s: tracing overhead %.2fx (traced op p50 %.4g ms, untraced %.4g ms)\n", s.file, w, t/p, t, p)
			}
		}
	}
	return 0
}

func nonZero(v float64) bool { return v != 0 }

func quartileText(vs []float64) string {
	q1, med, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

func boundText(m specMetric) string {
	if m.Bound == nil {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100**m.Bound)
}

// judge compares a later side b with the baseline a. diff is how much
// worse b's median is, as a share of a's (negative: better). a and b are
// in seed order, so the runs of one index share a seed; a side wins such
// a pair when its run reads better. b is better when it wins at least 9
// in 10 pairs and its median moved by more than a's quartile spread (the
// rule for claiming a gain). Mirroring it, b is worse when it loses at
// least 9 in 10 pairs and its median moved by more than both a's spread
// and a third of the bound, so a slowdown smaller than the bound shows in
// an A/B of alternating pairs; the floor keeps a shift far inside the
// host's noise, such as 0.04% of heap, from reading worse.
func judge(a, b []float64, m specMetric) (diff float64, wins, pairs int, verdict string) {
	lower := m.Better == "lower"
	better := func(x, y float64) bool { // x reads better than y
		if lower {
			return x < y
		}
		return x > y
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	switch {
	case ma == mb:
		diff = 0
	case ma == 0:
		diff = math.Inf(1)
	default:
		diff = (mb - ma) / math.Abs(ma)
		if !lower {
			diff = -diff
		}
	}
	pairs = min(len(a), len(b))
	losses := 0
	for i := range pairs {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	if m.Bound == nil {
		return diff, wins, pairs, "-"
	}
	spreadA, spreadB := ratio(qa3-qa1, math.Abs(ma)), ratio(qb3-qb1, math.Abs(mb))
	worstB, bestA := b[0], a[0]
	for _, v := range b {
		if better(worstB, v) {
			worstB = v
		}
	}
	for _, v := range a {
		if better(v, bestA) {
			bestA = v
		}
	}
	switch {
	case better(worstB, bestA):
		verdict = "better"
	case max(spreadA, spreadB) > *m.Bound:
		verdict = "unresolved"
	case diff > *m.Bound:
		verdict = "worse"
	case -diff > spreadA && wins*10 >= 9*pairs:
		verdict = "better"
	case diff > max(spreadA, *m.Bound/3) && losses*10 >= 9*pairs:
		verdict = "worse"
	default:
		verdict = "within"
	}
	return diff, wins, pairs, verdict
}
