package check

import (
	"fmt"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
	"cij/internal/geom"
	"cij/internal/grid"
	"cij/internal/parallel"
)

// NumSeeds is the fixed seed matrix of the equivalence suite: seeds
// 1..NumSeeds run on every `go test` and in the CI check job. The
// acceptance bar for this harness is ≥ 50.
const NumSeeds = 60

// Backend is one CIJ implementation under test, as a closure from a
// scenario to its pair set.
type Backend struct {
	Name string
	Run  func(ps Pointsets) []core.Pair
}

// Backends returns every implementation the harness holds to the brute
// oracle. Each tree-based backend builds a fresh disk environment: PM/FM
// write Voronoi R-trees to their buffer, and a shared environment would
// let one backend's pages perturb another's (the service isolates them
// the same way).
func Backends() []Backend {
	tree := func(run func(ps Pointsets, env *exp.Env) core.Result) func(ps Pointsets) []core.Pair {
		return func(ps Pointsets) []core.Pair {
			env := exp.BuildEnv(ps.P, ps.Q, exp.DefaultPageSize, exp.DefaultBufferPct)
			return run(ps, env).Pairs
		}
	}
	return []Backend{
		{"nm", tree(func(ps Pointsets, env *exp.Env) core.Result {
			return core.NMCIJ(env.RP, env.RQ, exp.Domain, core.DefaultOptions())
		})},
		{"pm", tree(func(ps Pointsets, env *exp.Env) core.Result {
			return core.PMCIJ(env.RP, env.RQ, exp.Domain, core.DefaultOptions())
		})},
		{"fm", tree(func(ps Pointsets, env *exp.Env) core.Result {
			return core.FMCIJ(env.RP, env.RQ, exp.Domain, core.DefaultOptions())
		})},
		{"parallel", tree(func(ps Pointsets, env *exp.Env) core.Result {
			opts := parallel.DefaultOptions()
			opts.Workers = 3 // force real partitioning even on 1-core runners
			return parallel.Join(env.RP, env.RQ, exp.Domain, opts)
		})},
		{"flat", tree(func(ps Pointsets, env *exp.Env) core.Result {
			rp, rq := env.Flat()
			return core.NMCIJ(rp, rq, exp.Domain, core.DefaultOptions())
		})},
		{"flat-parallel", tree(func(ps Pointsets, env *exp.Env) core.Result {
			rp, rq := env.Flat()
			opts := parallel.DefaultOptions()
			opts.Workers = 3 // worker forks of the flat ledger, under -race
			return parallel.Join(rp, rq, exp.Domain, opts)
		})},
		{"grid", func(ps Pointsets) []core.Pair {
			return grid.Join(ps.P, ps.Q, dataset.Domain, grid.DefaultOptions()).Pairs
		}},
	}
}

// CheckEquivalence generates the scenario of one seed and fails unless
// every backend reproduces the brute-force pair multiset exactly.
func CheckEquivalence(seed int64) error {
	ps := Generate(seed)
	want := core.BruteCIJ(ps.P, ps.Q, dataset.Domain)
	for _, b := range Backends() {
		got := b.Run(ps)
		if !core.SamePairs(got, want) {
			return mismatch(seed, b.Name, ps, got, want)
		}
	}
	return nil
}

// CheckInvariants verifies the metamorphic properties of the join on one
// seed's scenario. The properties hold for the mathematical operator, so
// any violation is an implementation bug:
//
//   - Symmetry: CIJ(Q, P) is the transpose of CIJ(P, Q) — cell
//     intersection does not care about operand order.
//   - Translation equivariance: translating both pointsets AND the domain
//     by the same offset leaves the pair set unchanged.
//   - Scale equivariance: scaling pointsets and domain by a power of two
//     (exact in floating point) leaves the pair set unchanged.
//   - Rotation equivariance: turning pointsets and domain a quarter turn,
//     (x, y) → (−y, x), leaves the pair set unchanged. The turn is exact
//     in floating point but changes the order in which identical points
//     merge and in which the grid backend inserts sites along the Hilbert
//     curve, so lattices meet their ties in a different order.
//
// The grid backend evaluates the transformed instances (it accepts an
// arbitrary domain rectangle and needs no index build); the reference set
// is the brute-force result on the original instance.
func CheckInvariants(seed int64) error {
	ps := Generate(seed)
	want := core.BruteCIJ(ps.P, ps.Q, dataset.Domain)
	opts := grid.DefaultOptions()

	swapped := grid.Join(ps.Q, ps.P, dataset.Domain, opts).Pairs
	transposed := make([]core.Pair, len(swapped))
	for i, pr := range swapped {
		transposed[i] = core.Pair{P: pr.Q, Q: pr.P}
	}
	if !core.SamePairs(transposed, want) {
		return mismatch(seed, "symmetry(Q,P)", ps, transposed, want)
	}

	const dx, dy = 512.0, -256.0
	moved := Pointsets{P: translate(ps.P, dx, dy), Q: translate(ps.Q, dx, dy)}
	movedDomain := geom.Rect{
		MinX: dataset.Domain.MinX + dx, MinY: dataset.Domain.MinY + dy,
		MaxX: dataset.Domain.MaxX + dx, MaxY: dataset.Domain.MaxY + dy,
	}
	if got := grid.Join(moved.P, moved.Q, movedDomain, opts).Pairs; !core.SamePairs(got, want) {
		return mismatch(seed, "translation", ps, got, want)
	}

	const s = 0.5 // power of two: scaling commutes with fp rounding
	shrunk := Pointsets{P: scale(ps.P, s), Q: scale(ps.Q, s)}
	shrunkDomain := geom.Rect{
		MinX: dataset.Domain.MinX * s, MinY: dataset.Domain.MinY * s,
		MaxX: dataset.Domain.MaxX * s, MaxY: dataset.Domain.MaxY * s,
	}
	if got := grid.Join(shrunk.P, shrunk.Q, shrunkDomain, opts).Pairs; !core.SamePairs(got, want) {
		return mismatch(seed, "scale", ps, got, want)
	}

	turned := Pointsets{P: rotate(ps.P), Q: rotate(ps.Q)}
	turnedDomain := geom.Rect{
		MinX: -dataset.Domain.MaxY, MinY: dataset.Domain.MinX,
		MaxX: -dataset.Domain.MinY, MaxY: dataset.Domain.MaxX,
	}
	if got := grid.Join(turned.P, turned.Q, turnedDomain, opts).Pairs; !core.SamePairs(got, want) {
		return mismatch(seed, "rotation", ps, got, want)
	}
	return nil
}

// mismatch renders a reproducible failure report.
func mismatch(seed int64, name string, ps Pointsets, got, want []core.Pair) error {
	return fmt.Errorf(
		"seed %d (|P|=%d |Q|=%d): %s disagrees with brute oracle: got %d pairs, want %d\nmissing: %v\nextra: %v",
		seed, len(ps.P), len(ps.Q), name, len(got), len(want),
		core.DiffPairs(want, got), core.DiffPairs(got, want))
}

func translate(pts []geom.Point, dx, dy float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Pt(p.X+dx, p.Y+dy)
	}
	return out
}

// rotate turns points a quarter counter-clockwise about the origin,
// (x, y) → (−y, x): a negation and a swap, exact in floating point.
func rotate(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Pt(-p.Y, p.X)
	}
	return out
}

func scale(pts []geom.Point, s float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Pt(p.X*s, p.Y*s)
	}
	return out
}
