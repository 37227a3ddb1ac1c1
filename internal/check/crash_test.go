package check

import (
	"fmt"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/service"
	"cij/internal/storage"
)

// The crash matrix: run a fixed ingest+mutation workload over FaultFS,
// crash it at EVERY filesystem fault point under each crash mode, and
// hold recovery to three properties:
//
//  1. Open always succeeds — no crash position may leave an
//     unrecoverable directory.
//  2. Every recovered dataset sits at an exactly-installed version: its
//     live points match, point for point, the reference state the
//     workload produced at that same version. Never a half-applied
//     batch.
//  3. Acknowledged writes survive: a version the workload saw committed
//     is a floor for the recovered version.
//
// And on every recovered state, the NM join over the restored trees must
// equal the brute-force oracle on the recovered live points.

// crashAck is what one workload step acknowledged: the dataset it wrote
// and the version the service confirmed installed.
type crashAck struct {
	name    string
	version int
}

type crashStep struct {
	label string
	apply func(s *service.Service) (crashAck, error)
}

func ingestStep(name string, n int, seed int64) crashStep {
	return crashStep{
		label: fmt.Sprintf("ingest %s", name),
		apply: func(s *service.Service) (crashAck, error) {
			d, err := s.Ingest(name, dataset.Uniform(n, seed))
			if err != nil {
				return crashAck{}, err
			}
			return crashAck{name, d.Version}, nil
		},
	}
}

func mutateStep(name string, req service.MutationRequest) crashStep {
	return crashStep{
		label: fmt.Sprintf("mutate %s", name),
		apply: func(s *service.Service) (crashAck, error) {
			resp, err := s.MutatePoints(name, req)
			if err != nil {
				return crashAck{}, err
			}
			return crashAck{name, resp.Version}, nil
		},
	}
}

// crashWorkload is the deterministic operation sequence every matrix
// cell replays: two ingests, then batches covering insert, delete,
// update and a mixed batch (the delete targets stay distinct so each
// prefix of the sequence is applicable regardless of crash position).
func crashWorkload() []crashStep {
	return []crashStep{
		ingestStep("p", 60, 21),
		ingestStep("q", 40, 22),
		mutateStep("p", service.MutationRequest{Insert: []service.PointJSON{{X: 101, Y: 202}, {X: 303, Y: 404}}}),
		mutateStep("p", service.MutationRequest{Delete: []int64{3, 17}}),
		mutateStep("q", service.MutationRequest{Update: []service.MovePointJSON{{ID: 5, X: 5000, Y: 5000}}}),
		mutateStep("p", service.MutationRequest{
			Insert: []service.PointJSON{{X: 7000, Y: 7000}},
			Delete: []int64{30},
		}),
	}
}

// livePoints projects a dataset to its observable point table.
func livePoints(d *service.Dataset) map[int64]geom.Point {
	m := make(map[int64]geom.Point, d.Live)
	for i, pt := range d.Points {
		if d.Alive == nil || d.Alive[i] {
			m[int64(i)] = pt
		}
	}
	return m
}

// referenceStates runs the workload on a plain in-memory service and
// captures, for every (dataset, version) the sequence produces, the
// exact live-point table a correct recovery of that version must serve.
func referenceStates(t *testing.T) map[string]map[int64]geom.Point {
	t.Helper()
	s := service.New(service.Config{})
	ref := make(map[string]map[int64]geom.Point)
	for _, step := range crashWorkload() {
		ack, err := step.apply(s)
		if err != nil {
			t.Fatalf("reference %s: %v", step.label, err)
		}
		d, ok := s.Registry().Get(ack.name)
		if !ok {
			t.Fatalf("reference %s: dataset missing after ack", step.label)
		}
		ref[fmt.Sprintf("%s@%d", ack.name, ack.version)] = livePoints(d)
	}
	return ref
}

func durableCrashConfig(fs storage.FS) service.Config {
	return service.Config{DataDir: "data", FS: fs}
}

// runWorkload drives the steps until one fails (the injected crash) and
// returns the highest acknowledged version per dataset. When every step
// survives, it also drives Close so checkpoint/shutdown writes sit in
// the crash matrix too.
func runWorkload(fs *storage.FaultFS) map[string]int {
	acked := make(map[string]int)
	s, err := service.Open(durableCrashConfig(fs))
	if err != nil {
		return acked
	}
	for _, step := range crashWorkload() {
		ack, err := step.apply(s)
		if err != nil {
			return acked
		}
		acked[ack.name] = ack.version
	}
	s.Close()
	return acked
}

// verifyRecovered holds one recovered service to the matrix properties.
func verifyRecovered(t *testing.T, cell string, s *service.Service, acked map[string]int, ref map[string]map[int64]geom.Point) {
	t.Helper()
	reg := s.Registry()
	for _, name := range []string{"p", "q"} {
		d, ok := reg.Get(name)
		if !ok {
			if acked[name] > 0 {
				t.Fatalf("%s: dataset %s was acknowledged at v%d but is gone", cell, name, acked[name])
			}
			continue
		}
		if floor := acked[name]; d.Version < floor {
			t.Fatalf("%s: dataset %s recovered at v%d, acknowledged v%d", cell, name, d.Version, floor)
		}
		want, ok := ref[fmt.Sprintf("%s@%d", name, d.Version)]
		if !ok {
			t.Fatalf("%s: dataset %s recovered at v%d, a version the workload never installed", cell, name, d.Version)
		}
		got := livePoints(d)
		if len(got) != len(want) {
			t.Fatalf("%s: dataset %s@%d has %d live points, want %d", cell, name, d.Version, len(got), len(want))
		}
		for id, pt := range want {
			if gp, ok := got[id]; !ok || !gp.Eq(pt) {
				t.Fatalf("%s: dataset %s@%d point %d = %v, want %v — a half-applied batch", cell, name, d.Version, id, got[id], pt)
			}
		}
	}

	// Recovered joins must equal the brute-force oracle.
	p, okP := reg.Get("p")
	q, okQ := reg.Get("q")
	if !okP || !okQ {
		return
	}
	pp, pids := p.JoinPoints()
	qq, qids := q.JoinPoints()
	oracle := core.BruteCIJ(pp, qq, dataset.Domain)
	for i, pr := range oracle {
		if pids != nil {
			pr.P = pids[pr.P]
		}
		if qids != nil {
			pr.Q = qids[pr.Q]
		}
		oracle[i] = pr
	}
	got := core.NMCIJ(p.Tree, q.Tree, dataset.Domain, core.DefaultOptions()).Pairs
	if !core.SamePairs(got, oracle) {
		t.Fatalf("%s: recovered join has %d pairs, oracle %d", cell, len(got), len(oracle))
	}
}

func TestCrashMatrix(t *testing.T) {
	ref := referenceStates(t)

	// Dry run to count the workload's fault points.
	dry := storage.NewFaultFS()
	runWorkload(dry)
	total := dry.Ops()
	if total < 20 {
		t.Fatalf("workload exercises only %d fault points; the durable path is not being driven", total)
	}

	modes := []storage.CrashMode{
		storage.CrashLoseUnsynced,
		storage.CrashKeepUnsynced,
		storage.CrashTornWrite,
	}
	for _, mode := range modes {
		for k := int64(1); k <= total; k++ {
			fs := storage.NewFaultFS()
			fs.SetPlan(&storage.FaultPlan{CrashAfter: k, Mode: mode})
			acked := runWorkload(fs)
			if !fs.Crashed() {
				// The workload finished under this k (it can only happen at
				// the very tail); crash post-hoc to exercise "lost cache"
				// recovery of a fully shut-down directory.
				fs.Crash(mode)
			}
			fs.Restart()

			cell := fmt.Sprintf("crash after %d ops, mode %s", k, mode)
			s, err := service.Open(durableCrashConfig(fs))
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", cell, err)
			}
			verifyRecovered(t, cell, s, acked, ref)
			s.Close()
		}
	}
}
