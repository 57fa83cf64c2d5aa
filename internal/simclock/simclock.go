// Package simclock is the one place modelled time is spent: network hops
// over the in-memory transport, simulated task compute (fn.Sim), the MPI
// baseline's compute model and the central baseline's per-task scheduling
// cost all wait through Wait.
//
// time.Sleep alone cannot model sub-millisecond costs: on Linux a short
// sleep overshoots to about a millisecond whatever was asked
// (golang/go#44343), so a "100µs" hop would cost ten times its model.
// Wait sleeps only while the deadline is further off than that
// granularity and yield-spins through the rest.
package simclock

import (
	"runtime"
	"time"
)

// spinWindow is how close to the deadline Wait stops sleeping. It covers
// the ~1.1 ms a short time.Sleep can overshoot by, so the sleep never
// carries Wait past its deadline.
const spinWindow = 1500 * time.Microsecond

// Wait blocks the calling goroutine for at least d and returns soon after.
// Waits longer than spinWindow free the CPU for all but their last
// spinWindow; shorter waits, and the tail of longer ones, yield the
// processor to other goroutines between clock reads, so they cost CPU
// but do not starve the rest of the process.
func Wait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if coarse := d - spinWindow; coarse > 0 {
		time.Sleep(coarse)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
