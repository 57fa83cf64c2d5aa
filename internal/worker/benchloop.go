package worker

import (
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// BenchLoop drives a single worker's scheduler synchronously, without the
// event-loop goroutine: control messages are applied directly on the
// caller's goroutine, so benchmarks and allocation-ceiling tests can
// measure the instantiate→activate→complete path in isolation. Outbound
// control traffic (BlockDone, Complete) goes to a drain goroutine that
// recycles the frame buffers, keeping the codec pool primed exactly as a
// live controller connection would.
//
// BenchLoop is for measurement only: it must not be mixed with Start. Its
// executors are live, so templates may hold Task entries; the caller then
// collects their completions with Drain.
type BenchLoop struct {
	W     *Worker
	drain transport.Conn
}

// NewBenchLoop builds a loopback worker with the given executor slot
// count.
func NewBenchLoop(slots int) *BenchLoop {
	w := New(Config{Slots: slots})
	local, remote := transport.Pipe(0)
	w.ctrl = local
	w.id = 1
	b := &BenchLoop{W: w, drain: remote}
	w.startExecutors()
	go func() {
		for {
			raw, err := remote.Recv()
			if err != nil {
				return
			}
			proto.PutBuf(raw)
		}
	}()
	return b
}

// Apply feeds one controller message straight into the worker's handler
// on the caller's goroutine, as one loop turn.
func (b *BenchLoop) Apply(m proto.Msg) {
	b.W.handleCtrl(m)
	b.W.handOff()
}

// Job exposes one job's namespace (created on first use), for assertions
// on per-job scheduler state. Messages without an explicit Job land in
// namespace 0.
func (b *BenchLoop) Job(id ids.JobID) *jstate { return b.W.job(id) }

// busy reports whether any job still has unfinished, runnable or queued
// work.
func (b *BenchLoop) busy() bool {
	for _, js := range b.W.jobList {
		if js.unfin > 0 || js.runnable.n > 0 || len(js.units) > 0 {
			return true
		}
	}
	return false
}

// Drain processes completion events posted by the executors until no job
// has unfinished commands (for callers that do run tasks).
func (b *BenchLoop) Drain() {
	for b.busy() {
		b.step()
	}
}

// step handles the next posted event as a loop turn of its own.
func (b *BenchLoop) step() {
	if ev, ok := b.W.nextEvent(true); ok {
		b.W.handle(&ev)
		b.W.handOff()
	}
}

// Close tears the loopback down and waits for the executors to exit.
func (b *BenchLoop) Close() {
	b.W.finish(nil)
	b.W.wg.Wait()
	b.drain.Close()
}
