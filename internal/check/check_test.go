package check

import (
	"fmt"
	"testing"

	"cij/internal/dataset"
	"cij/internal/geom"
)

// TestEquivalenceSeeds is the acceptance criterion of the harness: every
// backend matches the brute oracle on the full fixed seed matrix. A
// failing seed names itself in the subtest, so `go test -run
// 'TestEquivalenceSeeds/seed=17' ./internal/check` reproduces it alone.
func TestEquivalenceSeeds(t *testing.T) {
	for seed := int64(1); seed <= NumSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := CheckEquivalence(seed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInvariantSeeds runs the metamorphic properties (symmetry,
// translation, scale and rotation equivariance) over the same seed
// matrix.
func TestInvariantSeeds(t *testing.T) {
	for seed := int64(1); seed <= NumSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := CheckInvariants(seed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGeneratorShape sanity-checks the generator contract the harness
// relies on: determinism per seed, bounded cardinalities, in-domain
// coordinates and at least occasional degenerate scenarios.
func TestGeneratorShape(t *testing.T) {
	sawTiny, sawDup := false, false
	for seed := int64(1); seed <= 200; seed++ {
		a, b := Generate(seed), Generate(seed)
		if len(a.P) != len(b.P) || len(a.Q) != len(b.Q) {
			t.Fatalf("seed %d not deterministic", seed)
		}
		for i := range a.P {
			if a.P[i] != b.P[i] {
				t.Fatalf("seed %d not deterministic at P[%d]", seed, i)
			}
		}
		if len(a.P) < 1 || len(a.Q) < 1 {
			t.Fatalf("seed %d: empty side (|P|=%d |Q|=%d)", seed, len(a.P), len(a.Q))
		}
		if len(a.P) <= 3 || len(a.Q) <= 3 {
			sawTiny = true
		}
		seen := make(map[geom.Point]bool)
		for _, p := range a.P {
			if !dataset.Domain.Contains(p) {
				t.Fatalf("seed %d: point %v outside domain", seed, p)
			}
			if seen[p] {
				sawDup = true
			}
			seen[p] = true
		}
		for _, p := range a.Q {
			if !dataset.Domain.Contains(p) {
				t.Fatalf("seed %d: point %v outside domain", seed, p)
			}
			if seen[p] {
				sawDup = true
			}
			seen[p] = true
		}
	}
	if !sawTiny {
		t.Error("200 seeds produced no degenerate 1-3 point set")
	}
	if !sawDup {
		t.Error("200 seeds produced no duplicate point")
	}
}
