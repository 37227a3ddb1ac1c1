package grid

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunUnitsOrder: every unit runs once, and the caller sees each unit
// once in unit order, as a direct run or a delivery. Unit 0 runs direct,
// so the caller blocks on at most the other units, and only when helpers
// ran.
func TestRunUnitsOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, units := range []int{1, 2, 5, 40} {
			name := fmt.Sprintf("%d workers, %d units", workers, units)
			runs := make([]atomic.Int32, units)
			var seen []int
			wait := runUnits(workers, units, func(w, u int, direct bool) {
				runs[u].Add(1)
				if direct {
					if w != 0 {
						t.Errorf("%s: unit %d ran direct on worker %d", name, u, w)
					}
					seen = append(seen, u) // direct runs are on the caller
				}
			}, func(u int) { seen = append(seen, u) })
			for u := range runs {
				if n := runs[u].Load(); n != 1 {
					t.Fatalf("%s: unit %d ran %d times", name, u, n)
				}
			}
			for i, u := range seen {
				if i != u {
					t.Fatalf("%s: the caller saw units %v, want each once in order", name, seen)
				}
			}
			if len(seen) != units || seen[0] != 0 {
				t.Fatalf("%s: the caller saw units %v", name, seen)
			}
			if helped := min(workers, units) > 1; wait.helped != helped || wait.units >= units || (!helped && wait.blocked != 0) {
				t.Fatalf("%s: runUnits reported %+v", name, wait)
			}
		}
	}
}

// TestRunUnitsPanics hands runUnits a panicking unit, on a helper and on
// the caller, and a panicking delivery: the first value must reach the
// caller as a panic, nothing may be delivered after the unit's failure,
// and no helper may outlive the call.
func TestRunUnitsPanics(t *testing.T) {
	const units = 30
	for _, tc := range []struct {
		name    string
		bad     int  // the unit that panics
		deliver bool // the panic comes from delivering it instead
	}{
		{"helper unit", 17, false},
		{"caller unit", 0, false},
		{"delivery", 5, true},
	} {
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s, %d workers", tc.name, workers)
			before := runtime.NumGoroutine()
			var delivered []int
			got := func() (p any) {
				defer func() { p = recover() }()
				runUnits(workers, units, func(w, u int, direct bool) {
					if u == tc.bad && !tc.deliver {
						panic(name)
					}
					if direct && u == tc.bad {
						panic(name) // a direct unit's results go out as it runs
					}
					time.Sleep(100 * time.Microsecond)
				}, func(u int) {
					delivered = append(delivered, u)
					if u == tc.bad {
						panic(name)
					}
				})
				return nil
			}()
			if got != name {
				t.Fatalf("%s: runUnits panicked with %v", name, got)
			}
			for _, u := range delivered {
				if u > tc.bad || (u == tc.bad && !tc.deliver) {
					t.Fatalf("%s: delivered %v past the failed unit %d", name, delivered, tc.bad)
				}
			}
			// A helper may still be between wg.Done and its exit.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d goroutines after the call, %d before", name, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
