// Package leakcheck asserts that a test leaves no goroutines behind.
// Failover and chaos-soak tests register it before building a cluster;
// since t.Cleanup runs LIFO, the check fires after the cluster's own
// teardown and catches pumps, tick loops, reconnect retriers or data-
// plane writers that survived it. The same tests fail through Hung when
// they time out waiting on the cluster, so a hang leaves every
// goroutine's stack behind as well.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// settle is how long the check waits for goroutine counts to return to
// the baseline before failing: teardown is asynchronous (pump goroutines
// exit when their conn close propagates), so the count converges rather
// than dropping instantly.
const settle = 10 * time.Second

// Check snapshots the goroutine count and registers a cleanup that fails
// the test if the count has not returned to the baseline once the test
// (and every cleanup registered after this call) finishes.
func Check(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(settle)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leakcheck: %d goroutines leaked (baseline %d, now %d):\n%s",
			n-base, base, n, stacks())
	})
}

// Hung fails the test with msg followed by every goroutine's stack. Tests
// call it when a wait on the cluster times out.
func Hung(t testing.TB, msg string) {
	t.Helper()
	t.Fatalf("%s; goroutines:\n%s", msg, stacks())
}

// stacks returns every goroutine's stack, growing the buffer until the
// dump fits.
func stacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
