// Pages guard: the paper's I/O metric is the whole point of the
// reproduction, so the Fig. 7 page counts are pinned to the committed
// BENCH_nmcij.json. CPU-side work — the decoded-node cache, geometric
// fast paths, allocation pooling — must never move a single page access;
// if it does, this test (part of every `go test ./...`, race run
// included) fails the build instead of letting the regression ship inside
// a "faster" benchmark record.
package cij_test

import (
	"encoding/json"
	"os"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
)

// benchDoc mirrors the shape of BENCH_nmcij.json, a fixed fixture: its
// pages/op values are the baseline and are never regenerated.
type benchDoc struct {
	Benchmarks []struct {
		Name    string `json:"name"`
		PagesOp int64  `json:"pages_op"`
	} `json:"benchmarks"`
}

// TestFig7PagesMatchBaseline recomputes the Fig. 7 experiments at the
// benchmark cardinality and asserts byte-identical pages/op against the
// committed baseline for NM, PM and FM.
func TestFig7PagesMatchBaseline(t *testing.T) {
	raw, err := os.ReadFile("BENCH_nmcij.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing BENCH_nmcij.json: %v", err)
	}
	want := map[string]int64{}
	for _, b := range doc.Benchmarks {
		want[b.Name] = b.PagesOp
	}

	algos := []struct {
		bench string
		run   func(e *exp.Env) core.Result
	}{
		{"BenchmarkFig7_NMCIJ", func(e *exp.Env) core.Result {
			return core.NMCIJ(e.RP, e.RQ, exp.Domain, core.Options{Reuse: true})
		}},
		{"BenchmarkFig7_PMCIJ", func(e *exp.Env) core.Result {
			return core.PMCIJ(e.RP, e.RQ, exp.Domain, core.Options{})
		}},
		{"BenchmarkFig7_FMCIJ", func(e *exp.Env) core.Result {
			return core.FMCIJ(e.RP, e.RQ, exp.Domain, core.Options{})
		}},
	}
	for _, a := range algos {
		baseline, ok := want[a.bench]
		if !ok {
			t.Fatalf("BENCH_nmcij.json has no record for %s", a.bench)
		}
		// Identical setup to benchCIJ in bench_test.go: fresh env, cold
		// buffer, fixed seeds.
		env := exp.BuildEnv(dataset.Uniform(benchN, 1), dataset.Uniform(benchN, 2),
			exp.DefaultPageSize, exp.DefaultBufferPct)
		got := a.run(env).Stats.PageAccesses()
		if got != baseline {
			t.Errorf("%s: pages/op = %d, committed baseline %d — an optimization moved the paper's I/O metric",
				a.bench, got, baseline)
		}
	}
}
