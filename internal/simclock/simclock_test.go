package simclock

import (
	"sort"
	"testing"
	"time"
)

// Wait never returns before its duration, and on average overshoots it by
// well under the millisecond a short time.Sleep costs. The mean leaves out
// the slowest tenth of the calls: on a loaded box the OS deschedules even
// a spinning thread for milliseconds now and then, which is not Wait's
// error.
func TestWait(t *testing.T) {
	const n, kept = 50, 45
	for _, d := range []time.Duration{0, 50 * time.Microsecond, 100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		took := make([]time.Duration, n)
		for i := range took {
			start := time.Now()
			Wait(d)
			took[i] = time.Since(start)
			if took[i] < d {
				t.Fatalf("Wait(%v) returned after %v", d, took[i])
			}
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		var total time.Duration
		for _, x := range took[:kept] {
			total += x
		}
		if mean := total / kept; mean > d+200*time.Microsecond {
			t.Errorf("Wait(%v) takes %v on average (fastest %d of %d), want at most %v", d, mean, kept, n, d+200*time.Microsecond)
		}
	}
}
