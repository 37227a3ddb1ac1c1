package parallel_test

import (
	"runtime"
	"testing"
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/parallel"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// buildTrees indexes p and q on one simulated disk behind a shared LRU
// buffer, the setup of the paper's experiments (exp.BuildEnv without the
// import cycle through internal/exp).
func buildTrees(t testing.TB, p, q []geom.Point, bufferPages int) (*rtree.Tree, *rtree.Tree) {
	t.Helper()
	buf := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 1<<30)
	rp := rtree.BulkLoadPoints(buf, p, dataset.Domain, 1)
	rq := rtree.BulkLoadPoints(buf, q, dataset.Domain, 1)
	buf.SetCapacity(bufferPages)
	buf.DropAll()
	buf.ResetStats()
	return rp, rq
}

// distributions returns the dataset shapes the equivalence property is
// checked on: uniform, clustered (skewed leaf occupancy), and an
// asymmetric-cardinality pair.
func distributions() []struct {
	name string
	p, q []geom.Point
} {
	return []struct {
		name string
		p, q []geom.Point
	}{
		{"uniform", dataset.Uniform(700, 11), dataset.Uniform(600, 12)},
		{"clustered", dataset.Clustered(700, 9, 13), dataset.Clustered(600, 7, 14)},
		{"ratio_4_1", dataset.Uniform(900, 15), dataset.Uniform(220, 16)},
		{"tiny", dataset.Uniform(40, 17), dataset.Uniform(30, 18)},
	}
}

// TestEquivalence is the core correctness property of the engine: for
// every worker count, the parallel pair set is identical to serial NM-CIJ
// and to the brute-force oracle.
func TestEquivalence(t *testing.T) {
	for _, dist := range distributions() {
		dist := dist
		t.Run(dist.name, func(t *testing.T) {
			t.Parallel()
			oracle := core.BruteCIJ(dist.p, dist.q, dataset.Domain)

			rp, rq := buildTrees(t, dist.p, dist.q, 32)
			serial := core.NMCIJ(rp, rq, dataset.Domain, core.DefaultOptions())
			if !core.SamePairs(serial.Pairs, oracle) {
				t.Fatalf("serial NM-CIJ disagrees with oracle: +%v -%v",
					core.DiffPairs(serial.Pairs, oracle), core.DiffPairs(oracle, serial.Pairs))
			}

			for _, workers := range []int{1, 2, 4, 8} {
				opts := parallel.DefaultOptions()
				opts.Workers = workers
				res := parallel.Join(rp, rq, dataset.Domain, opts)
				if !core.SamePairs(res.Pairs, serial.Pairs) {
					t.Errorf("workers=%d: pair set differs from serial: extra=%v missing=%v",
						workers,
						core.DiffPairs(res.Pairs, serial.Pairs),
						core.DiffPairs(serial.Pairs, res.Pairs))
				}
			}
		})
	}
}

// TestEquivalenceNoReuse pins down that per-worker reuse buffers are a
// pure cache: disabling them changes nothing about the pair set either.
func TestEquivalenceNoReuse(t *testing.T) {
	p := dataset.Clustered(500, 6, 21)
	q := dataset.Clustered(450, 5, 22)
	rp, rq := buildTrees(t, p, q, 16)
	serial := core.NMCIJ(rp, rq, dataset.Domain, core.DefaultOptions())

	opts := parallel.DefaultOptions()
	opts.Workers = 4
	opts.Reuse = false
	res := parallel.Join(rp, rq, dataset.Domain, opts)
	if !core.SamePairs(res.Pairs, serial.Pairs) {
		t.Fatalf("no-reuse parallel join differs from serial")
	}
	if res.Stats.PCellsComputed < serial.Stats.PCellsComputed {
		t.Errorf("no-reuse run computed fewer P-cells (%d) than serial with reuse (%d)",
			res.Stats.PCellsComputed, serial.Stats.PCellsComputed)
	}
}

// TestStreaming checks the OnPair path: every pair is streamed exactly
// once, streaming agrees with collection, and CollectPairs=false leaves
// Result.Pairs empty while still streaming the full set.
func TestStreaming(t *testing.T) {
	p := dataset.Uniform(600, 31)
	q := dataset.Uniform(500, 32)
	rp, rq := buildTrees(t, p, q, 16)
	serial := core.NMCIJ(rp, rq, dataset.Domain, core.DefaultOptions())

	var streamed []core.Pair
	opts := parallel.DefaultOptions()
	opts.Workers = 4
	opts.CollectPairs = false
	opts.OnPair = func(pr core.Pair) { streamed = append(streamed, pr) }
	res := parallel.Join(rp, rq, dataset.Domain, opts)
	if len(res.Pairs) != 0 {
		t.Errorf("CollectPairs=false but Result.Pairs has %d entries", len(res.Pairs))
	}
	if !core.SamePairs(streamed, serial.Pairs) {
		t.Errorf("streamed pair set differs from serial (streamed %d, serial %d)",
			len(streamed), len(serial.Pairs))
	}
}

// TestStatsMerge checks the merged accounting: filter counters equal the
// serial run's exactly (they are partition-invariant), total I/O is
// positive, and the progress curve is monotone in both coordinates and
// ends at the final totals — the Fig. 9b progressive-output property.
func TestStatsMerge(t *testing.T) {
	p := dataset.Uniform(600, 41)
	q := dataset.Uniform(500, 42)
	rp, rq := buildTrees(t, p, q, 16)
	serial := core.NMCIJ(rp, rq, dataset.Domain, core.DefaultOptions())

	opts := parallel.DefaultOptions()
	opts.Workers = 4
	res := parallel.Join(rp, rq, dataset.Domain, opts)

	if res.Stats.Candidates != serial.Stats.Candidates {
		t.Errorf("merged Candidates = %d, serial = %d", res.Stats.Candidates, serial.Stats.Candidates)
	}
	if res.Stats.TrueHits != serial.Stats.TrueHits {
		t.Errorf("merged TrueHits = %d, serial = %d", res.Stats.TrueHits, serial.Stats.TrueHits)
	}
	if res.Stats.Join.PageAccesses() <= 0 {
		t.Errorf("merged join I/O not positive: %v", res.Stats.Join)
	}
	prog := res.Stats.Progress
	if len(prog) == 0 {
		t.Fatal("no progress samples")
	}
	for i := 1; i < len(prog); i++ {
		if prog[i].PageAccesses < prog[i-1].PageAccesses || prog[i].Pairs < prog[i-1].Pairs {
			t.Fatalf("progress not monotone at %d: %+v -> %+v", i, prog[i-1], prog[i])
		}
	}
	last := prog[len(prog)-1]
	if last.Pairs != int64(len(res.Pairs)) {
		t.Errorf("final progress pairs %d != emitted pairs %d", last.Pairs, len(res.Pairs))
	}
	if last.PageAccesses != res.Stats.Join.PageAccesses() {
		t.Errorf("final progress I/O %d != join I/O %d", last.PageAccesses, res.Stats.Join.PageAccesses())
	}
	if first := prog[0]; first.Pairs > 0 && first.PageAccesses >= last.PageAccesses {
		t.Errorf("no progressive output: first sample already at final I/O")
	}
}

// TestSeparateDisks covers the two-disk configuration: P and Q indexed on
// different disks with asymmetric buffer capacities, including a
// buffer-less Q (capacity 0) — each side's forks must follow its own
// tree's capacity, and a capacity-0 tree must stay buffer-less so page
// counts remain comparable with a serial run.
func TestSeparateDisks(t *testing.T) {
	p := dataset.Uniform(500, 81)
	q := dataset.Uniform(400, 82)
	bufP := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 1<<30)
	bufQ := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 1<<30)
	rp := rtree.BulkLoadPoints(bufP, p, dataset.Domain, 1)
	rq := rtree.BulkLoadPoints(bufQ, q, dataset.Domain, 1)
	bufP.SetCapacity(40)
	bufQ.SetCapacity(0) // buffer-less Q: every access physical
	for _, b := range []*storage.Buffer{bufP, bufQ} {
		b.DropAll()
		b.ResetStats()
	}

	serial := core.NMCIJ(rp, rq, dataset.Domain, core.DefaultOptions())
	opts := parallel.DefaultOptions()
	opts.Workers = 4
	res := parallel.Join(rp, rq, dataset.Domain, opts)
	if !core.SamePairs(res.Pairs, serial.Pairs) {
		t.Fatalf("two-disk parallel join differs from serial: got %d pairs, want %d",
			len(res.Pairs), len(serial.Pairs))
	}
	if res.Stats.Candidates != serial.Stats.Candidates {
		t.Errorf("merged Candidates = %d, serial = %d", res.Stats.Candidates, serial.Stats.Candidates)
	}
}

// TestSharedDiskDistinctBuffers covers the remaining buffer topology: one
// disk, but each tree reading through its own buffer with asymmetric
// capacities. Workers must fork per BUFFER, not per disk, so the
// buffer-less P side stays buffer-less while Q keeps its cache.
func TestSharedDiskDistinctBuffers(t *testing.T) {
	p := dataset.Uniform(400, 83)
	q := dataset.Uniform(350, 84)
	disk := storage.NewDisk(storage.DefaultPageSize)
	bufP := storage.NewBuffer(disk, 1<<30)
	bufQ := storage.NewBuffer(disk, 1<<30)
	rp := rtree.BulkLoadPoints(bufP, p, dataset.Domain, 1)
	rq := rtree.BulkLoadPoints(bufQ, q, dataset.Domain, 1)
	bufP.SetCapacity(0)
	bufQ.SetCapacity(40)
	for _, b := range []*storage.Buffer{bufP, bufQ} {
		b.DropAll()
		b.ResetStats()
	}

	serial := core.NMCIJ(rp, rq, dataset.Domain, core.DefaultOptions())
	opts := parallel.DefaultOptions()
	opts.Workers = 4
	res := parallel.Join(rp, rq, dataset.Domain, opts)
	if !core.SamePairs(res.Pairs, serial.Pairs) {
		t.Fatalf("shared-disk/distinct-buffer join differs from serial: got %d pairs, want %d",
			len(res.Pairs), len(serial.Pairs))
	}
	if res.Stats.TrueHits != serial.Stats.TrueHits {
		t.Errorf("merged TrueHits = %d, serial = %d", res.Stats.TrueHits, serial.Stats.TrueHits)
	}
}

// TestEmptyInputs: joins against empty trees terminate and return nothing.
func TestEmptyInputs(t *testing.T) {
	p := dataset.Uniform(100, 51)
	for _, tc := range []struct {
		name string
		p, q []geom.Point
	}{
		{"empty_q", p, nil},
		{"empty_p", nil, p},
		{"both_empty", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rp, rq := buildTrees(t, tc.p, tc.q, 8)
			opts := parallel.DefaultOptions()
			opts.Workers = 4
			res := parallel.Join(rp, rq, dataset.Domain, opts)
			serial := core.NMCIJ(rp, rq, dataset.Domain, core.DefaultOptions())
			if !core.SamePairs(res.Pairs, serial.Pairs) {
				t.Errorf("got %d pairs, serial %d", len(res.Pairs), len(serial.Pairs))
			}
		})
	}
}

// TestSpeedup demonstrates the >1.5× wall-clock speedup of 4 workers over
// serial NM-CIJ on the uniform paper-style workload at reduced scale. It
// needs real cores to mean anything, so it skips on small machines (and
// in -short runs, the repo's only -short gate: it is the only wall-clock
// assertion): BenchmarkParallel_SpeedupCurve in bench_test.go and
// examples/parallel report the same quantity anywhere.
func TestSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to demonstrate parallel speedup, have %d", runtime.NumCPU())
	}
	p := dataset.Uniform(4000, 61)
	q := dataset.Uniform(4000, 62)
	rp, rq := buildTrees(t, p, q, 64)

	measure := func(run func()) time.Duration {
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			run()
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	serialOpts := core.Options{Reuse: true}
	serialWall := measure(func() { core.NMCIJ(rp, rq, dataset.Domain, serialOpts) })

	popts := parallel.DefaultOptions()
	popts.Workers = 4
	popts.CollectPairs = false
	parWall := measure(func() { parallel.Join(rp, rq, dataset.Domain, popts) })

	speedup := float64(serialWall) / float64(parWall)
	t.Logf("serial %v, 4 workers %v, speedup %.2fx", serialWall, parWall, speedup)
	if speedup < 1.5 {
		t.Errorf("4-worker speedup %.2fx < 1.5x (serial %v, parallel %v)", speedup, serialWall, parWall)
	}
}
