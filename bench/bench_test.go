package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// smokeScale runs every workload in about a second: small uniform sets,
// no warm-up (so the first operation is measured however slow the host),
// a WAL threshold every batch crosses, and no minimum-sample guard.
// parallel-stream keeps its 2×25k points: fewer would plan it serial.
var smokeScale = scale{
	setups:            2,
	uniformN:          2_000,
	cityN:             3_000,
	citySetsPerClient: 2,
	streamN:           25_000,
	checkpointBytes:   512,
	minCheckpoints:    1,
}

// TestWorkloadsSmoke runs every workload untraced and traced with its
// oracles and guards on, and checks that each run reports every metric
// of its kind and that compare reads the result file back.
func TestWorkloadsSmoke(t *testing.T) {
	// The planner sizes parallel-stream's pool from GOMAXPROCS; pin it so
	// the two-worker guard holds on any host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	out := filepath.Join(t.TempDir(), "results.jsonl")
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				for _, traced := range []bool{false, true} {
					res, err := runWorkload(w, 1, 0.5, traced, smokeScale, out, io.Discard)
					if err != nil {
						t.Fatalf("traced=%v: %v", traced, err)
					}
					if !res.Correct || res.Attempted == 0 {
						t.Errorf("traced=%v: correct=%v attempted=%d failed=%d problems=%q",
							traced, res.Correct, res.Attempted, res.Failed, res.Problems)
					}
					for _, name := range reported(traced) {
						m, ok := res.Metrics[name]
						if !ok {
							t.Errorf("traced=%v: metric %s missing", traced, name)
						}
						// A short window may hold too few ops for a rate.
						if !traced && name != "op_rate" && m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	})
	var stdout bytes.Buffer
	if code := runCompare([]string{out, out}, &stdout, io.Discard); code != 0 {
		t.Fatalf("compare exited %d", code)
	}
	if !strings.Contains(stdout.String(), "op_p50_ms") || !strings.Contains(stdout.String(), "within") {
		t.Errorf("compare of a file with itself printed no verdicts:\n%s", stdout.String())
	}
}

// TestCompareRefusesUnlikeRuns: compare pairs runs by seed, so it refuses
// sides whose seeds differ and a file that mixes window lengths.
func TestCompareRefusesUnlikeRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs ...result) string {
		path := filepath.Join(dir, name)
		for _, res := range runs {
			if err := appendResult(path, &res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	run := func(seed int64, seconds, p50 float64) result {
		return result{Workload: "grid-uniform", Seed: seed, Seconds: seconds,
			Metrics: map[string]metric{"op_p50_ms": {Value: p50, Unit: "ms", N: 1}}}
	}
	base := write("base.jsonl", run(1, 20, 100), run(2, 20, 110))
	same := write("same.jsonl", run(2, 20, 111), run(1, 20, 101))
	otherSeeds := write("seeds.jsonl", run(1, 20, 100), run(3, 20, 110))
	mixed := write("mixed.jsonl", run(1, 20, 100), run(2, 10, 110))
	for _, tc := range []struct {
		files []string
		code  int
	}{
		{[]string{base, same}, 0},
		{[]string{base, otherSeeds}, 1},
		{[]string{base, mixed}, 1},
	} {
		var stdout bytes.Buffer
		if code := runCompare(tc.files, &stdout, io.Discard); code != tc.code {
			t.Errorf("compare %v exited %d, want %d:\n%s", tc.files, code, tc.code, stdout.String())
		}
	}
}

// TestJudgeShiftBelowBound: a shift smaller than the bound but seen in
// 10 of 10 pairs reads better once it exceeds the baseline's spread, and
// worse once it also exceeds a third of the bound.
func TestJudgeShiftBelowBound(t *testing.T) {
	bound := 0.24
	m := specMetric{Name: "op_p50_ms", Better: "lower", Bound: &bound}
	var a []float64
	for i := range 10 {
		a = append(a, 100+float64(i))
	}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, v := range a {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		factor float64
		want   string
	}{{1.12, "worse"}, {1.07, "within"}, {0.93, "better"}, {0.98, "within"}} {
		if _, _, _, v := judge(a, scaled(tc.factor), m); v != tc.want {
			t.Errorf("judge(a, a×%v) = %s, want %s", tc.factor, v, tc.want)
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the metric and
// workload names this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	var e2e, layer []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.name+" "+m.unit)
	}
	for _, l := range layers {
		layer = append(layer, l.name+" "+l.unit)
	}
	var specE2E, specLayer []string
	for _, m := range doc.EndToEnd {
		specE2E = append(specE2E, m.Name+" "+m.Unit)
	}
	for _, m := range doc.PerLayer {
		specLayer = append(specLayer, m.Name+" "+m.Unit)
	}
	if !slices.Equal(specE2E, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", specE2E, e2e)
	}
	if !slices.Equal(specLayer, layer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", specLayer, layer)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(data, n=4).
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, %v; want 2.75, 5.5, 8.25", q1, med, q3)
	}
}
