// Command cijtool runs ad hoc common-influence joins and Voronoi-cell
// computations over CSV pointsets.
//
// Subcommands:
//
//	cijtool gen   -kind uniform|clustered|PP|SC|CE|LO|PA -n 1000 -seed 1 -o pts.csv
//	cijtool join  -p restaurants.csv -q cinemas.csv [-algo nm|pm|fm|grid] [-pairs] [-json]
//	cijtool delta -p left.csv -q right.csv -insert "x,y;..." -delete "0,5" -update "3:x,y" [-verify]
//	cijtool vor   -p pts.csv -site 17
//	cijtool fsck  -data-dir /var/lib/cij
//
// Input CSVs are "x,y" lines; coordinates are normalized to the library's
// [0,10000]² domain before indexing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
	"cij/internal/geom"
	"cij/internal/grid"
	"cij/internal/obs"
	"cij/internal/service"
	"cij/internal/storage"
	"cij/internal/voronoi"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "join":
		err = runJoin(os.Args[2:])
	case "delta":
		err = runDelta(os.Args[2:])
	case "vor":
		err = runVor(os.Args[2:])
	case "fsck":
		err = runFsck(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cijtool: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cijtool: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cijtool gen   -kind uniform|clustered|PP|SC|CE|LO|PA -n 1000 -seed 1 [-clusters 20] -o out.csv
  cijtool join  -p left.csv -q right.csv [-algo nm|pm|fm|grid] [-pairs] [-json] [-trace-out t.json] [-buffer 2]
  cijtool delta -p left.csv -q right.csv [-insert "x,y;..."] [-delete "0,5"] [-update "3:x,y;..."] [-verify] [-json]
  cijtool vor   -p pts.csv -site 0
  cijtool fsck  -data-dir /var/lib/cij [-json]`)
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "uniform", "uniform, clustered, or a Table I code (PP/SC/CE/LO/PA)")
	n := fs.Int("n", 1000, "number of points (ignored for Table I datasets)")
	seed := fs.Int64("seed", 1, "random seed")
	clusters := fs.Int("clusters", 20, "cluster count for -kind clustered")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := dataset.Spec{Kind: *kind, N: *n, Clusters: *clusters, Seed: *seed}
	pts, err := spec.Generate()
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return dataset.WriteCSV(w, pts)
}

func loadCSV(path string) ([]geom.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pts, err := dataset.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("%s: no points", path)
	}
	return dataset.Normalize(pts), nil
}

func runJoin(args []string) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	pPath := fs.String("p", "", "CSV of pointset P")
	qPath := fs.String("q", "", "CSV of pointset Q")
	algo := fs.String("algo", "nm", "algorithm: nm, pm, fm, or grid (in-memory, no index)")
	storageMode := fs.String("storage", "", "node representation for nm: paged (LRU-buffered pages, the default) or flat (in-memory arena, zero page I/O)")
	showPairs := fs.Bool("pairs", false, "print every pair (indexes into the input files)")
	asJSON := fs.Bool("json", false, "emit the result as JSON on stdout (the query service's JoinResponse encoding)")
	withTrace := fs.Bool("trace", false, "record per-phase spans; printed to stderr, and embedded in -json output")
	traceOut := fs.String("trace-out", "", "write the phase trace as Chrome trace-event JSON to this file (implies -trace; open in chrome://tracing or Perfetto)")
	buffer := fs.Float64("buffer", exp.DefaultBufferPct, "LRU buffer, % of data size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceOut != "" {
		*withTrace = true
	}
	if *pPath == "" || *qPath == "" {
		return fmt.Errorf("join: -p and -q are required")
	}
	switch *storageMode {
	case "":
		// Algorithm default: paged for the tree algorithms, nothing for
		// grid (which indexes no pages at all).
	case "paged":
		if *algo == "grid" {
			return fmt.Errorf("join: -storage does not apply to the grid backend")
		}
	case "flat":
		if *algo != "nm" {
			return fmt.Errorf("join: -storage flat requires -algo nm (pm/fm materialize pages, grid has no tree)")
		}
	default:
		return fmt.Errorf("join: unknown storage %q (want paged or flat)", *storageMode)
	}
	p, err := loadCSV(*pPath)
	if err != nil {
		return err
	}
	q, err := loadCSV(*qPath)
	if err != nil {
		return err
	}
	var count int64
	onPair := func(pr core.Pair) {
		count++
		if *showPairs {
			fmt.Printf("%d\t%d\n", pr.P, pr.Q)
		}
	}

	var tr *obs.Trace
	if *withTrace {
		tr = obs.NewTrace()
	}
	var res core.Result
	var io storage.Stats
	var lowerBound int64
	var elapsed time.Duration
	if *algo == "grid" {
		// The in-memory backend needs no R-tree environment and performs
		// no page I/O; its lower bound is trivially zero.
		opts := grid.DefaultOptions()
		opts.CollectPairs = *asJSON
		opts.OnPair = onPair
		opts.Trace = tr
		start := time.Now()
		res = grid.Join(p, q, exp.Domain, opts)
		elapsed = time.Since(start)
	} else {
		env := exp.BuildEnv(p, q, exp.DefaultPageSize, *buffer)
		lowerBound = env.LowerBound()
		opts := core.DefaultOptions()
		opts.CollectPairs = *asJSON
		opts.OnPair = onPair
		opts.Trace = tr
		rp, rq := env.RP, env.RQ
		if *storageMode == "flat" {
			rp, rq = env.Flat() // one-shot freeze; the join reads arena nodes
		}
		start := time.Now()
		switch *algo {
		case "fm":
			res = core.FMCIJ(rp, rq, exp.Domain, opts)
		case "pm":
			res = core.PMCIJ(rp, rq, exp.Domain, opts)
		case "nm":
			res = core.NMCIJ(rp, rq, exp.Domain, opts)
		default:
			return fmt.Errorf("join: unknown algorithm %q", *algo)
		}
		elapsed = time.Since(start)
		io = res.Stats.Mat.Add(res.Stats.Join)
	}

	if *asJSON {
		// The service's response encoding, verbatim (service/encode.go):
		// one schema for CLI and server output.
		resp := service.NewJoinResponse(*pPath, *qPath, *algo, 0,
			res.Pairs, io, elapsed, 0)
		if *algo != "grid" {
			resp.Storage = *storageMode
			if resp.Storage == "" {
				resp.Storage = "paged"
			}
		}
		resp.Trace = service.NewTraceJSON(tr.Spans())
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("join: -trace-out: %w", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		werr := enc.Encode(obs.ChromeTraceFromSpans(tr.Spans(), os.Getpid()))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("join: -trace-out: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (load in chrome://tracing or Perfetto)\n", *traceOut)
	}

	fmt.Fprintf(os.Stderr, "CIJ(%s ⋈ %s) via %s-CIJ: %d pairs\n", *pPath, *qPath, *algo, count)
	fmt.Fprintf(os.Stderr, "I/O: %d page accesses (MAT %d + JOIN %d), LB %d; CPU %v\n",
		res.Stats.PageAccesses(), res.Stats.Mat.PageAccesses(), res.Stats.Join.PageAccesses(),
		lowerBound, elapsed.Round(time.Millisecond))
	if tr != nil {
		fmt.Fprintln(os.Stderr, "trace:")
		for _, sp := range tr.Spans() {
			name := sp.Phase
			if sp.Tag != "" {
				name += "/" + sp.Tag
			}
			fmt.Fprintf(os.Stderr, "  %-14s %10v  reads=%d writes=%d logical=%d cand=%d hits=%d\n",
				name, sp.Wall.Round(time.Microsecond),
				sp.PagesRead, sp.PagesWritten, sp.LogicalReads, sp.Candidates, sp.TrueHits)
		}
	}
	return nil
}

// runDelta applies one mutation batch to pointset P and reports the join
// churn the server's delta run computes — which (p, q) pairs appear and
// disappear — without recomputing the join. -verify re-runs two full NM
// joins and asserts the incremental answer matches their diff exactly.
func runDelta(args []string) error {
	fs := flag.NewFlagSet("delta", flag.ExitOnError)
	pPath := fs.String("p", "", "CSV of pointset P (the mutated side)")
	qPath := fs.String("q", "", "CSV of pointset Q")
	insert := fs.String("insert", "", `points to insert: "x,y;x,y;..." (normalized domain coordinates)`)
	deletes := fs.String("delete", "", `point IDs to delete: "0,5,17" (CSV line numbers of -p, 0-based)`)
	update := fs.String("update", "", `points to move: "id:x,y;id:x,y;..."`)
	verify := fs.Bool("verify", false, "also run full joins before and after and assert the churn matches their diff")
	asJSON := fs.Bool("json", false, "emit the churn as JSON on stdout")
	buffer := fs.Float64("buffer", exp.DefaultBufferPct, "LRU buffer, % of data size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pPath == "" || *qPath == "" {
		return fmt.Errorf("delta: -p and -q are required")
	}
	p, err := loadCSV(*pPath)
	if err != nil {
		return err
	}
	q, err := loadCSV(*qPath)
	if err != nil {
		return err
	}
	spec := service.MutationSpec{}
	if spec.Insert, err = parsePointList(*insert); err != nil {
		return fmt.Errorf("delta: -insert: %w", err)
	}
	if spec.Delete, err = parseIDList(*deletes); err != nil {
		return fmt.Errorf("delta: -delete: %w", err)
	}
	if spec.Update, err = parseMoveList(*update); err != nil {
		return fmt.Errorf("delta: -update: %w", err)
	}

	// The registry owns the mutation semantics (tombstoned IDs, COW
	// snapshot of the old version). Both graphs are built first, as a
	// served dataset's are after its first join, so the mutation derives
	// the new version's graph, and the churn runs on the registry's graphs
	// as the server's delta run does.
	reg := service.NewRegistry(*buffer)
	pd, err := reg.Put("p", p)
	if err != nil {
		return err
	}
	qd, err := reg.Put("q", q)
	if err != nil {
		return err
	}
	pd.Graph()
	otherG, _ := qd.Graph()
	start := time.Now()
	old, cur, changes, err := reg.Mutate("p", spec)
	if err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	oldG, _ := old.Graph()
	curG, _ := cur.Graph()
	res := grid.Churn(oldG, curG, otherG, true)
	elapsed := time.Since(start)

	if *asJSON {
		out := struct {
			Added         []core.Pair `json:"added"`
			Removed       []core.Pair `json:"removed"`
			AffectedSites int         `json:"affected_sites"`
			Probes        int64       `json:"probes"`
			Cells         int         `json:"cells"`
		}{res.Added, res.Removed, res.Affected, res.Candidates, curG.Clipped()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		for _, pr := range res.Removed {
			fmt.Printf("-pair\t%d\t%d\n", pr.P, pr.Q)
		}
		for _, pr := range res.Added {
			fmt.Printf("+pair\t%d\t%d\n", pr.P, pr.Q)
		}
	}
	fmt.Fprintf(os.Stderr, "delta(%s ⋈ %s): %d changes, +%d/-%d pairs, %d sites recomputed, %d probes, %d cells; CPU %v\n",
		*pPath, *qPath, len(changes), len(res.Added), len(res.Removed), res.Affected, res.Candidates, curG.Clipped(),
		elapsed.Round(time.Millisecond))

	if *verify {
		opts := core.DefaultOptions()
		opts.CollectPairs = true
		before := pairKeySet(core.NMCIJ(old.View(), qd.View(), exp.Domain, opts).Pairs)
		after := pairKeySet(core.NMCIJ(cur.View(), qd.View(), exp.Domain, opts).Pairs)
		bad := 0
		for _, pr := range res.Added {
			if before[pr] || !after[pr] {
				fmt.Fprintf(os.Stderr, "verify: spurious +pair %d,%d\n", pr.P, pr.Q)
				bad++
			}
		}
		for _, pr := range res.Removed {
			if !before[pr] || after[pr] {
				fmt.Fprintf(os.Stderr, "verify: spurious -pair %d,%d\n", pr.P, pr.Q)
				bad++
			}
		}
		churn := 0
		for pr := range after {
			if !before[pr] {
				churn++
			}
		}
		for pr := range before {
			if !after[pr] {
				churn++
			}
		}
		if got := len(res.Added) + len(res.Removed); bad > 0 || got != churn {
			return fmt.Errorf("verify: incremental churn (%d events, %d wrong) != full-recompute diff (%d events)", got, bad, churn)
		}
		fmt.Fprintln(os.Stderr, "verify: incremental churn matches the full-recompute diff exactly")
	}
	return nil
}

func pairKeySet(pairs []core.Pair) map[core.Pair]bool {
	set := make(map[core.Pair]bool, len(pairs))
	for _, pr := range pairs {
		set[pr] = true
	}
	return set
}

func parsePointList(s string) ([]geom.Point, error) {
	if s == "" {
		return nil, nil
	}
	var out []geom.Point
	for _, item := range strings.Split(s, ";") {
		var x, y float64
		if _, err := fmt.Sscanf(strings.TrimSpace(item), "%f,%f", &x, &y); err != nil {
			return nil, fmt.Errorf("bad point %q (want x,y)", item)
		}
		out = append(out, geom.Pt(x, y))
	}
	return out, nil
}

func parseIDList(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, item := range strings.Split(s, ",") {
		id, err := strconv.ParseInt(strings.TrimSpace(item), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad id %q", item)
		}
		out = append(out, id)
	}
	return out, nil
}

func parseMoveList(s string) ([]service.PointMove, error) {
	if s == "" {
		return nil, nil
	}
	var out []service.PointMove
	for _, item := range strings.Split(s, ";") {
		var id int64
		var x, y float64
		if _, err := fmt.Sscanf(strings.TrimSpace(item), "%d:%f,%f", &id, &x, &y); err != nil {
			return nil, fmt.Errorf("bad move %q (want id:x,y)", item)
		}
		out = append(out, service.PointMove{ID: id, Pt: geom.Pt(x, y)})
	}
	return out, nil
}

func runVor(args []string) error {
	fs := flag.NewFlagSet("vor", flag.ExitOnError)
	pPath := fs.String("p", "", "CSV of the pointset")
	site := fs.Int64("site", 0, "index of the point whose cell to compute")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pPath == "" {
		return fmt.Errorf("vor: -p is required")
	}
	p, err := loadCSV(*pPath)
	if err != nil {
		return err
	}
	if *site < 0 || int(*site) >= len(p) {
		return fmt.Errorf("vor: site %d out of range [0,%d)", *site, len(p))
	}
	env := exp.BuildEnv(p, p[:1], exp.DefaultPageSize, exp.DefaultBufferPct)
	cell := voronoi.BFVor(env.RP, voronoi.Site{ID: *site, Pt: p[*site]}, exp.Domain)
	fmt.Printf("site %d at %v\ncell area %.4g, %d vertices:\n", *site, p[*site], cell.Area(), len(cell.V))
	for _, v := range cell.V {
		fmt.Printf("  %.4f, %.4f\n", v.X, v.Y)
	}
	return nil
}
