// Command bench is the service benchmark of the CIJ repository. Each
// workload starts an in-process query service behind a loopback HTTP
// server, feeds it datasets generated from the seed, drives a closed-loop
// request stream through a warm-up and a measured window, checks every
// answer against an oracle, and prints its metrics. With -trace 1 the
// same request stream is replayed layer by layer from outside the
// program and the per-layer metrics are printed instead.
//
//	bash bench/run.sh --workload grid-uniform --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -workload all -seed 2
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. Every run also appends its full record
// (host block and sample counts included) to the -out file, which is
// what -compare reads. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one named traffic mix. run drives it once, recording into
// the run context; an error aborts the run (it is not a measurement).
type workload struct {
	name string
	run  func(*runCtx) error
}

var workloads = []workload{
	{"grid-uniform", runGridUniform},
	{"nm-city", runNMCity},
	{"parallel-stream", runParallelStream},
	{"mutate-live", runMutateLive},
}

// scale fixes the input sizes of one run. The command always runs
// fullScale; the smoke test runs every workload at a tiny one.
type scale struct {
	// warmup precedes the measured window and is discarded: lazy set-up
	// finishes and caches fill.
	warmup   time.Duration
	setups   int // set-ups per untraced run; setup_s is their median
	uniformN int // points per grid-uniform and mutate-live dataset
	cityN    int // points per nm-city dataset
	// citySetsPerClient is how many city sets each nm-city client joins
	// as a ring. One city join's cost varies by ±15% with the draw; at 8
	// a run's median rests on 2 clients × 8 pairs × 2 orders = 32
	// distinct joins, which keeps it steady from seed to seed.
	citySetsPerClient int
	streamN           int   // points per parallel-stream dataset
	checkpointBytes   int64 // mutate-live's CheckpointWALBytes
	// minCheckpoints guards mutate-live's window: at least this many
	// checkpoints untraced, and at least one traced.
	minCheckpoints int
	// minOpsPerSec sets the minimum-sample guards: a window of s seconds
	// must complete at least s*minOpsPerSec[workload] primary operations.
	minOpsPerSec map[string]float64
}

var fullScale = scale{
	warmup:            3 * time.Second,
	setups:            7,
	uniformN:          10_000,
	cityN:             3_000,
	citySetsPerClient: 8,
	streamN:           25_000,
	checkpointBytes:   16 << 10,
	minCheckpoints:    3,
	minOpsPerSec:      map[string]float64{"grid-uniform": 4, "nm-city": 4, "parallel-stream": 0.5, "mutate-live": 3},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the generated datasets and request stream")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds (a warm-up precedes it)")
	trace := fs.Int("trace", 0, "1 replays every request layer by layer and reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results.jsonl"),
		"result file each run appends one JSON line to; a traced run writes its spans beside it")
	compare := fs.Bool("compare", false, "compare the result files named as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (%s or all), -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	final := lastLine{Correct: true, Metrics: map[string]lineMetric{}}
	for _, w := range selected {
		res, err := runWorkload(w, *seed, *seconds, *trace == 1, fullScale, *out, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
			m := res.Metrics[k]
			fmt.Fprintf(stdout, "%s %s %.6g %s n=%d\n", w.name, k, m.Value, m.Unit, m.N)
		}
		for _, p := range res.Problems {
			fmt.Fprintf(stderr, "bench: %s: FAIL %s\n", w.name, p)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for _, k := range reported(*trace == 1) {
			key := k
			if len(selected) > 1 {
				key = w.name + "." + k
			}
			final.Metrics[key] = lineMetric{Value: res.Metrics[k].Value, Unit: res.Metrics[k].Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// lastLine is the final standard-output line.
type lastLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one run's record in the -out file.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Time      string            `json:"time"`
	Host      hostInfo          `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx is the state of one workload run shared by its clients.
type runCtx struct {
	workload string
	seed     int64
	sc       scale
	window   time.Duration
	tmpDir   string   // durable data directories live here
	spans    *spanLog // nil in an untraced run
	rec      *recorder
	metrics  map[string]metric // scalars measured directly (heap, counter deltas)
	clk      clock
	opStarts []time.Duration // when each measured primary operation started, from the window's start

	attempted, failed atomic.Int64
	mu                sync.Mutex
	problems          []string
}

// maxProblems caps the failure messages a run keeps; the counters keep
// counting past it.
const maxProblems = 20

// fail records one failed operation (non-200, wrong answer, dropped
// subscriber).
func (r *runCtx) fail(format string, args ...any) {
	r.failed.Add(1)
	r.problem(format, args...)
}

// problem records a violated guard or check; any problem makes the run
// incorrect.
func (r *runCtx) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runCtx) traced() bool { return r.spans != nil }

func (r *runCtx) setScalar(name, unit string, v float64, n int) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
	r.mu.Unlock()
}

// clock splits a run into the discarded warm-up and the measured window.
type clock struct{ warmEnd, end time.Time }

func (r *runCtx) startClock() clock {
	now := time.Now()
	r.clk = clock{warmEnd: now.Add(r.sc.warmup), end: now.Add(r.sc.warmup + r.window)}
	return r.clk
}

// recordOp records one measured primary operation that started at start
// and took d.
func (r *runCtx) recordOp(start time.Time, d time.Duration) {
	r.rec.add("op_ms", ms(d))
	r.mu.Lock()
	r.opStarts = append(r.opStarts, start.Sub(r.clk.warmEnd))
	r.mu.Unlock()
}

// open reports whether an operation starting at t belongs to the run.
func (c clock) open(t time.Time) bool { return t.Before(c.end) }

// measured reports whether an operation starting at t is a sample.
func (c clock) measured(t time.Time) bool { return !t.Before(c.warmEnd) && t.Before(c.end) }

// runWorkload runs one workload and records the result.
func runWorkload(w workload, seed int64, seconds float64, traced bool, sc scale, out string, stderr io.Writer) (*result, error) {
	outDir := filepath.Dir(out)
	tmpDir := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, err
	}
	window := time.Duration(seconds * float64(time.Second))
	r := &runCtx{
		workload: w.name,
		seed:     seed,
		sc:       sc,
		window:   window,
		tmpDir:   tmpDir,
		rec:      newRecorder(),
		metrics:  make(map[string]metric),
	}
	if traced {
		r.spans = newSpanLog()
	}
	// A run must end well within three minutes; a hung connection or a
	// deadlock must not outlive that.
	watchdog := time.AfterFunc(sc.warmup+window+150*time.Second, func() {
		fmt.Fprintf(stderr, "bench: %s: run did not finish; aborting\n", w.name)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := w.run(r); err != nil {
		return nil, err
	}

	res := &result{
		Workload:  w.name,
		Seed:      seed,
		Seconds:   seconds,
		Trace:     traced,
		Time:      time.Now().UTC().Format(time.RFC3339),
		Host:      currentHost(tmpDir),
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Problems:  r.problems,
		Metrics:   r.metrics,
	}
	if traced {
		layerMetrics(r)
	} else {
		endToEndMetrics(r)
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0 && res.Attempted > 0
	if res.Attempted == 0 {
		res.Problems = append(res.Problems, "no operation attempted")
	}
	if err := appendResult(out, res); err != nil {
		return nil, err
	}
	if traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := r.spans.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "bench: %s: spans written to %s\n", w.name, path)
	}
	return res, nil
}

// appendResult appends one run record to the result file.
func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
