package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunUnitsRecoversPanics hands runUnits a panicking unit: it must
// return that value instead of crashing the process, run no unit twice,
// and leave no worker behind. Without a panic every unit runs once.
func TestRunUnitsRecoversPanics(t *testing.T) {
	units := make([]Unit, 40)
	for i := range units {
		units[i].Index = i
	}
	for _, workers := range []int{1, 3} {
		for _, bad := range []int{-1, 0, 17, 39} {
			name := fmt.Sprintf("%d workers, unit %d panics", workers, bad)
			before := runtime.NumGoroutine()
			runs := make([]atomic.Int32, len(units))
			fault := runUnits(workers, units, func(w int, u Unit) {
				runs[u.Index].Add(1)
				if u.Index == bad {
					panic(name)
				}
				time.Sleep(100 * time.Microsecond)
			})
			if bad < 0 && fault != nil || bad >= 0 && fault != name {
				t.Fatalf("%s: runUnits returned %v", name, fault)
			}
			for i := range runs {
				n := runs[i].Load()
				if n > 1 || bad < 0 && n != 1 || i == bad && n != 1 {
					t.Fatalf("%s: unit %d ran %d times", name, i, n)
				}
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d goroutines after the call, %d before", name, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
