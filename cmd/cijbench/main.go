// Command cijbench regenerates every table and figure of the CIJ paper's
// experimental evaluation (Section V) and prints paper-style tables.
//
// Usage:
//
//	cijbench -exp all                 # everything at paper scale (slow)
//	cijbench -exp fig7 -scale 0.1     # one experiment at 10% cardinality
//	cijbench -list                    # show available experiments
//
// Profiling (inspect with `go tool pprof cijbench <profile>`):
//
//	cijbench -exp fig7 -cpuprofile cpu.out    # CPU profile of the run
//	cijbench -exp fig7 -memprofile mem.out    # heap profile after the run
//
// Scale rescales dataset cardinalities; the qualitative shapes (who wins,
// by what factor, where curves converge) are stable across scales as long
// as the LRU buffer remains a few dozen pages — at very small scales raise
// -buffer accordingly.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"cij/internal/exp"
)

type experiment struct {
	name string
	desc string
	run  func(cfg config) error
}

type config struct {
	scale  float64
	seed   int64
	buffer float64
}

func scaled(n int, cfg config) int {
	v := int(float64(n) * cfg.scale)
	if v < 100 {
		v = 100
	}
	return v
}

func scaledSizes(cfg config) []int {
	base := []int{100_000, 200_000, 400_000, 800_000}
	out := make([]int, len(base))
	for i, n := range base {
		out[i] = scaled(n, cfg)
	}
	return out
}

var experiments = []experiment{
	{"fig5", "BF-VOR vs TP-VOR: node accesses and CPU of single-cell computation", func(cfg config) error {
		res := exp.RunFig5(scaled(100_000, cfg), 100, cfg.seed)
		res.Table().Fprint(os.Stdout)
		return nil
	}},
	{"fig6", "ITER vs BATCH vs LB: full Voronoi diagram computation vs datasize", func(cfg config) error {
		rows := exp.RunFig6(scaledSizes(cfg), cfg.buffer, cfg.seed)
		exp.TableFig6(rows).Fprint(os.Stdout)
		return nil
	}},
	{"table1", "Table I: dataset inventory (real-like stand-ins)", func(cfg config) error {
		exp.TableT1(cfg.scale).Fprint(os.Stdout)
		return nil
	}},
	{"table2", "Table II: BATCH diagram computation on real-like datasets", func(cfg config) error {
		rows, err := exp.RunTable2(cfg.scale, cfg.seed)
		if err != nil {
			return err
		}
		exp.TableT2(rows).Fprint(os.Stdout)
		return nil
	}},
	{"fig7", "Cost breakdown MAT vs JOIN for FM/PM/NM-CIJ", func(cfg config) error {
		rows := exp.RunFig7(scaled(100_000, cfg), cfg.seed)
		exp.TableFig7(rows).Fprint(os.Stdout)
		return nil
	}},
	{"fig8a", "I/O vs buffer size", func(cfg config) error {
		rows := exp.RunFig8a(scaled(100_000, cfg), []float64{0.5, 1, 2, 4, 8, 10}, cfg.seed)
		exp.TableSweep("Fig. 8a — page accesses vs buffer size", "buffer", rows).Fprint(os.Stdout)
		return nil
	}},
	{"fig8b", "I/O vs datasize", func(cfg config) error {
		rows := exp.RunFig8b(scaledSizes(cfg), cfg.seed)
		exp.TableSweep("Fig. 8b — page accesses vs datasize (|P|=|Q|)", "n", rows).Fprint(os.Stdout)
		return nil
	}},
	{"fig9a", "I/O vs cardinality ratio |Q|:|P|", func(cfg config) error {
		rows := exp.RunFig9a(scaled(200_000, cfg), exp.PaperRatios, cfg.seed)
		exp.TableSweep("Fig. 9a — page accesses vs ratio (|Q|+|P| fixed)", "|Q|:|P|", rows).Fprint(os.Stdout)
		return nil
	}},
	{"fig9b", "Progressive output: pairs vs page accesses", func(cfg config) error {
		res := exp.RunFig9b(scaled(100_000, cfg), cfg.seed)
		exp.TableFig9b(res).Fprint(os.Stdout)
		return nil
	}},
	{"fig10", "False hit ratio of the NM-CIJ filter", func(cfg config) error {
		rowsA := exp.RunFig10a(scaledSizes(cfg), cfg.seed)
		exp.TableFig10("Fig. 10a — false hit ratio vs datasize", "n", rowsA).Fprint(os.Stdout)
		rowsB := exp.RunFig10b(scaled(200_000, cfg), exp.PaperRatios, cfg.seed)
		exp.TableFig10("Fig. 10b — false hit ratio vs ratio", "|Q|:|P|", rowsB).Fprint(os.Stdout)
		return nil
	}},
	{"fig11", "Voronoi cell reuse in NM-CIJ (REUSE vs NO-REUSE)", func(cfg config) error {
		rowsA := exp.RunFig11a(scaledSizes(cfg), cfg.seed)
		exp.TableFig11("Fig. 11a — exact P-cells computed vs datasize", "n", rowsA).Fprint(os.Stdout)
		rowsB := exp.RunFig11b(scaled(200_000, cfg), exp.PaperRatios, cfg.seed)
		exp.TableFig11("Fig. 11b — exact P-cells computed vs ratio", "|Q|:|P|", rowsB).Fprint(os.Stdout)
		return nil
	}},
	{"table3", "Table III: CIJ on real-like dataset pairs", func(cfg config) error {
		rows, err := exp.RunTable3(cfg.scale)
		if err != nil {
			return err
		}
		exp.TableT3(rows).Fprint(os.Stdout)
		return nil
	}},
}

func main() {
	var (
		expName    = flag.String("exp", "", "experiment to run (see -list); 'all' runs everything")
		scale      = flag.Float64("scale", 1.0, "cardinality scale factor (1 = paper scale)")
		seed       = flag.Int64("seed", 2008, "random seed")
		buffer     = flag.Float64("buffer", exp.DefaultBufferPct, "LRU buffer size, % of data size")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to `file` (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the run to `file` (go tool pprof)")
	)
	flag.Parse()

	if *list || *expName == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-8s %s\n", e.name, e.desc)
		}
		fmt.Println("  all      run every experiment")
		if *expName == "" && !*list {
			os.Exit(2)
		}
		return
	}

	// Profiling hooks, so paper-scale runs can be inspected directly with
	// `go tool pprof` instead of reconstructing the workload in a test.
	// runExperiments exits through a return code — never os.Exit — so the
	// profiles are finalized (StopCPUProfile, heap write) even when an
	// experiment fails; a truncated profile is useless.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cijbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cijbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}

	code := runExperiments(*expName, config{scale: *scale, seed: *seed, buffer: *buffer})

	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "cijbench: -memprofile: %v\n", err)
			if code == 0 {
				code = 2
			}
		}
	}
	if code != 0 {
		pprof.StopCPUProfile() // idempotent; flush before the exit below skips defers
		os.Exit(code)
	}
}

// runExperiments resolves expName and runs each selected experiment,
// returning a process exit code instead of exiting so main can finalize
// profiles.
func runExperiments(expName string, cfg config) int {
	names := strings.Split(expName, ",")
	if expName == "all" {
		names = names[:0]
		for _, e := range experiments {
			names = append(names, e.name)
		}
	}
	sort.Strings(names)

	for _, name := range names {
		found := false
		for _, e := range experiments {
			if e.name == name {
				found = true
				start := time.Now()
				fmt.Printf("\n### %s — %s (scale %g)\n", e.name, e.desc, cfg.scale)
				if err := e.run(cfg); err != nil {
					fmt.Fprintf(os.Stderr, "cijbench: %s: %v\n", name, err)
					return 1
				}
				fmt.Printf("[%s completed in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "cijbench: unknown experiment %q (use -list)\n", name)
			return 2
		}
	}
	return 0
}

// writeHeapProfile snapshots the heap into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation stats
	return pprof.WriteHeapProfile(f)
}
