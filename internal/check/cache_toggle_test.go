package check

import (
	"fmt"
	"testing"

	"cij/internal/storage"
)

// TestEquivalenceDecodeCacheOff re-runs a slice of the seed matrix with
// decoded-node caching switched off for every buffer the backends build.
// The cache is a pure CPU optimization — the pair sets (and, by
// construction, the I/O counters) must be identical in both modes; a
// divergence here means a caller mutated or retained a shared decoded
// node. The full matrix already runs with caching ON in
// TestEquivalenceSeeds, so a reduced slice suffices to pin the OFF mode.
func TestEquivalenceDecodeCacheOff(t *testing.T) {
	prev := storage.SetDecodeCacheDefault(false)
	defer storage.SetDecodeCacheDefault(prev)
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := CheckEquivalence(seed); err != nil {
				t.Fatal(err)
			}
		})
	}
}
