package worker

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// These tests pin the event loop's hand-off rule (DESIGN.md "Wakeup
// budget"): take all there is, wake only a sleeper. Whatever is posted while
// the loop is busy costs one wakeup, an event posted to an idle loop wakes it
// at once, and tasks run on executors that exist before the first task and
// after the last.

// startedWorker starts a real worker — loop, pumps, executors — on Mem
// against a fake controller, and returns it with the controller's end of the
// control connection.
func startedWorker(t *testing.T, cfg Config) (*Worker, transport.Conn) {
	t.Helper()
	tr := transport.NewMem(0)
	lis, err := tr.Listen("ctl")
	if err != nil {
		t.Fatal(err)
	}
	cfg.ControlAddr, cfg.DataAddr, cfg.Transport = "ctl", "data", tr
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	w := New(cfg)
	started := make(chan error, 1)
	go func() { started <- w.Start() }()
	ctl, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := recvCtl(t, ctl).(*proto.RegisterWorker); !ok {
		t.Fatal("worker did not open with RegisterWorker")
	}
	sendCtl(t, ctl, &proto.RegisterWorkerAck{Worker: 1})
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Stop()
		ctl.Close()
		lis.Close()
	})
	return w, ctl
}

func sendCtl(t *testing.T, ctl transport.Conn, m proto.Msg) {
	t.Helper()
	if err := ctl.Send(proto.Marshal(m)); err != nil {
		t.Fatal(err)
	}
}

// recvCtl returns the worker's next control message (the worker sends one
// per frame), failing the test after 10 s.
func recvCtl(t *testing.T, ctl transport.Conn) proto.Msg {
	t.Helper()
	type result struct {
		m   proto.Msg
		err error
	}
	got := make(chan result, 1)
	go func() {
		raw, err := ctl.Recv()
		if err != nil {
			got <- result{err: err}
			return
		}
		m, err := proto.Unmarshal(raw)
		got <- result{m, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.m
	case <-time.After(10 * time.Second):
		t.Fatal("no control message from the worker within 10 s")
		return nil
	}
}

// raise lifts max to v if v is larger.
func raise(max *atomic.Int64, v int64) {
	for old := max.Load(); v > old && !max.CompareAndSwap(old, v); old = max.Load() {
	}
}

// settledGoroutines returns the goroutine count once two reads a
// millisecond apart agree: a goroutine that has signalled it is done (a
// start-up helper, a reader that sent its result) is still counted until it
// has actually exited.
func settledGoroutines() int64 {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(time.Millisecond)
		again := runtime.NumGoroutine()
		if again == n {
			return int64(n)
		}
		n = again
	}
}

func taskBatch(job ids.JobID, f ids.FunctionID, base ids.CommandID, n int) *proto.SpawnCommands {
	cmds := make([]*command.Command, n)
	for i := range cmds {
		cmds[i] = &command.Command{ID: base + ids.CommandID(i), Kind: command.Task, Function: f}
	}
	return &proto.SpawnCommands{Job: job, Cmds: cmds}
}

// holdLoop parks the worker's event loop inside a handler (the diagnostic
// for an unexpected control message blocks) and returns the function that
// lets it go. Everything posted in between waits in the mailbox.
func holdLoop(t *testing.T, cfg *Config) (hold func(ctl transport.Conn), release func()) {
	held, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(format, "unexpected control message") {
			once.Do(func() {
				close(held)
				<-gate
			})
		}
	}
	hold = func(ctl transport.Conn) {
		t.Helper()
		sendCtl(t, ctl, &proto.Heartbeat{}) // not a message a worker expects
		<-held
	}
	return hold, func() { close(gate) }
}

func TestLoopWakesOncePerDrainedRun(t *testing.T) {
	const producers, each = 4, 250 // 1000 events: one run, under the bound
	var cfg Config
	hold, release := holdLoop(t, &cfg)
	w, ctl := startedWorker(t, cfg)
	hold(ctl)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p uint64) {
			defer wg.Done()
			for i := uint64(0); i < each; i++ {
				if !w.mbox.Put(event{kind: evCtrl, msg: &proto.FleetWarm{Seq: p<<32 | i}}) {
					t.Error("put failed on a running worker")
				}
			}
		}(uint64(p))
	}
	wg.Wait()
	wakeups, events := w.Stats.LoopWakeups.Load(), w.Stats.LoopEvents.Load()
	release()

	// Every event is handled (each FleetWarm is acked on the FIFO control
	// connection, so the acks arrive in handling order), and each
	// producer's events in the order it put them.
	var next [producers]uint64
	for i := 0; i < producers*each; i++ {
		ack, ok := recvCtl(t, ctl).(*proto.FleetWarmAck)
		if !ok {
			t.Fatal("expected a FleetWarmAck")
		}
		p, seq := ack.Seq>>32, ack.Seq&(1<<32-1)
		if seq != next[p] {
			t.Fatalf("producer %d: event %d handled where %d was due", p, seq, next[p])
		}
		next[p]++
	}
	if got := w.Stats.LoopWakeups.Load() - wakeups; got != 1 {
		t.Fatalf("LoopWakeups moved by %d for one run of %d posted events, want 1", got, producers*each)
	}
	if got := w.Stats.LoopEvents.Load() - events; got != producers*each {
		t.Fatalf("LoopEvents moved by %d, want %d", got, producers*each)
	}
}

// One event into an idle loop is handled with nothing posted after it, and
// costs exactly one wakeup.
func TestIdleEventWakesLoopAtOnce(t *testing.T) {
	w, ctl := startedWorker(t, Config{})
	for i := uint64(1); i <= 3; i++ {
		wakeups, events := w.Stats.LoopWakeups.Load(), w.Stats.LoopEvents.Load()
		sendCtl(t, ctl, &proto.FleetWarm{Seq: i})
		// recvCtl fails after 10 s if the event is stranded in the mailbox.
		if ack, ok := recvCtl(t, ctl).(*proto.FleetWarmAck); !ok || ack.Seq != i {
			t.Fatalf("lone event %d not acked", i)
		}
		if dw, de := w.Stats.LoopWakeups.Load()-wakeups, w.Stats.LoopEvents.Load()-events; dw != 1 || de != 1 {
			t.Fatalf("lone event %d cost %d wakeups for %d events, want 1 for 1", i, dw, de)
		}
	}
}

// A control frame of ten messages reaches an idle loop as one run: the pump
// posts the frame's events under one lock, so the loop cannot wake between
// the first and the last.
func TestControlFrameIsOneRun(t *testing.T) {
	const n = 10
	w, ctl := startedWorker(t, Config{})
	msgs := make([]proto.Msg, n)
	for i := range msgs {
		msgs[i] = &proto.FleetWarm{Seq: uint64(i)}
	}
	wakeups, events := w.Stats.LoopWakeups.Load(), w.Stats.LoopEvents.Load()
	if err := ctl.Send(proto.AppendBatch(nil, msgs)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if ack, ok := recvCtl(t, ctl).(*proto.FleetWarmAck); !ok || ack.Seq != i {
			t.Fatalf("message %d of the frame not handled in order", i)
		}
	}
	if dw, de := w.Stats.LoopWakeups.Load()-wakeups, w.Stats.LoopEvents.Load()-events; dw != 1 || de != n {
		t.Fatalf("a %d-message control frame cost %d wakeups for %d events, want 1 for %d", n, dw, de, n)
	}
}

// 10 000 tasks through a started worker create no goroutine: every one runs
// with exactly the goroutines that existed before the first, never more than
// Slots at a time.
func TestExecutorsArePersistent(t *testing.T) {
	const slots, batches, per = 4, 10, 1000
	const fnProbe = fn.FirstAppFunc
	var most, inFlight, mostInFlight atomic.Int64
	reg := fn.NewRegistry()
	reg.MustRegister(fnProbe, "test/probe", func(*fn.Ctx) error {
		raise(&mostInFlight, inFlight.Add(1))
		raise(&most, int64(runtime.NumGoroutine()))
		inFlight.Add(-1)
		return nil
	})
	w, ctl := startedWorker(t, Config{Slots: slots, Registry: reg})
	allDone := make(chan error, 1)
	go func() { // the controller's reader exists before the count, like the worker's goroutines
		for left := batches * per; left > 0; {
			raw, err := ctl.Recv()
			if err != nil {
				allDone <- err
				return
			}
			m, err := proto.Unmarshal(raw)
			if err != nil {
				allDone <- err
				return
			}
			if c, ok := m.(*proto.Complete); ok {
				left -= len(c.IDs)
			}
		}
		allDone <- nil
	}()
	base := settledGoroutines()
	for b := 0; b < batches; b++ {
		sendCtl(t, ctl, taskBatch(1, fnProbe, ids.CommandID(1+b*per), per))
	}
	select {
	case err := <-allDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d tasks ran", w.Stats.TasksRun.Load(), batches*per)
	}
	if got := w.Stats.TasksRun.Load(); got != batches*per {
		t.Fatalf("TasksRun = %d, want %d", got, batches*per)
	}
	if got := most.Load(); got > base {
		t.Fatalf("a task ran among %d goroutines, %d existed before the first: tasks are creating goroutines", got, base)
	}
	if got := settledGoroutines(); got != base-1 { // the reader is gone
		t.Fatalf("%d goroutines after the tasks, want %d", got, base-1)
	}
	if got := mostInFlight.Load(); got > slots {
		t.Fatalf("%d tasks in flight at once, Slots = %d", got, slots)
	}
}

// halt and JobEnd with tasks already handed to the executors: the slots come
// back one by one through the stale-epoch path, freeSlots + running == Slots
// holds at every step, never more than Slots tasks are in flight, and the
// executors serve the next work afterwards.
func TestHaltWithTasksOnExecutorsKeepsSlotInvariant(t *testing.T) {
	const slots = 4
	const fnGate = fn.FirstAppFunc
	b := NewBenchLoop(slots)
	defer b.Close()
	gate := make(chan struct{})
	entered := make(chan struct{}, 4*slots)
	var inFlight, mostInFlight atomic.Int64
	b.W.reg.MustRegister(fnGate, "test/gate", func(*fn.Ctx) error {
		raise(&mostInFlight, inFlight.Add(1))
		entered <- struct{}{}
		<-gate
		inFlight.Add(-1)
		return nil
	})
	js1, js2 := b.Job(1), b.Job(2)
	invariant := func(when string) {
		t.Helper()
		if got := b.W.freeSlots + js1.running + js2.running; got != slots {
			t.Fatalf("%s: freeSlots %d + running %d+%d = %d, want Slots = %d",
				when, b.W.freeSlots, js1.running, js2.running, got, slots)
		}
	}
	// Twice the pool's worth per job: half of what is runnable is on the
	// executors, the rest waits in the jobs' rings.
	b.Apply(taskBatch(1, fnGate, 100, 2*slots))
	b.Apply(taskBatch(2, fnGate, 200, 2*slots))
	for i := 0; i < slots; i++ {
		<-entered
	}
	if b.W.freeSlots != 0 {
		t.Fatalf("freeSlots = %d with every executor busy", b.W.freeSlots)
	}
	invariant("tasks on executors")
	b.Apply(&proto.Halt{Job: 1, Seq: 1})
	invariant("after halt")
	b.Apply(&proto.JobEnd{Job: 2})
	invariant("after JobEnd")
	if b.W.freeSlots != 0 {
		t.Fatalf("freeSlots = %d after halt and JobEnd: the flush credited slots the executors still hold", b.W.freeSlots)
	}

	close(gate)
	for i := 0; i < slots; i++ {
		b.step() // one stale evDone each
		invariant("draining stale completions")
	}
	if b.W.freeSlots != slots || js1.running != 0 || js2.running != 0 {
		t.Fatalf("after the drain freeSlots = %d, running = %d+%d; want %d, 0+0", b.W.freeSlots, js1.running, js2.running, slots)
	}
	if got := b.W.Stats.TasksRun.Load(); got != slots {
		t.Fatalf("TasksRun = %d, want %d: flushed tasks must not run", got, slots)
	}

	b.Apply(&proto.Resume{Job: 1})
	b.Apply(taskBatch(1, fn.FuncNop, 300, 3*slots))
	b.Drain()
	if got := b.W.Stats.TasksRun.Load(); got != 4*slots {
		t.Fatalf("TasksRun = %d after resume, want %d", got, 4*slots)
	}
	if got := mostInFlight.Load(); got > slots {
		t.Fatalf("%d tasks in flight at once, Slots = %d", got, slots)
	}
	invariant("at rest")
}

// ctlStream splits every frame the worker sends on ctl into its messages,
// in order, until the connection closes. The buffer holds what the worker
// sends after the test stops reading, so the reader is not left blocked.
func ctlStream(ctl transport.Conn) <-chan proto.Msg {
	out := make(chan proto.Msg, 64)
	go func() {
		defer close(out)
		for {
			raw, err := ctl.Recv()
			if err != nil {
				return
			}
			_ = proto.ForEachMsg(raw, func(m proto.Msg) error {
				out <- m
				return nil
			})
		}
	}()
	return out
}

// A halt acks only once the job's flushed task has left its executor, and
// the ack finds the job's objects cleared; only the latest of two halts is
// acked, and another job's objects and running task are untouched.
func TestHaltAcksAfterFlushedTasksLeave(t *testing.T) {
	const fnGate1, fnGate2 = fn.FirstAppFunc, fn.FirstAppFunc + 1
	gate1, gate2 := make(chan struct{}), make(chan struct{})
	entered := make(chan struct{}, 2)
	var returned atomic.Bool
	reg := fn.NewRegistry()
	reg.MustRegister(fnGate1, "test/gate1", func(*fn.Ctx) error {
		entered <- struct{}{}
		<-gate1
		returned.Store(true)
		return nil
	})
	reg.MustRegister(fnGate2, "test/gate2", func(*fn.Ctx) error {
		entered <- struct{}{}
		<-gate2
		return nil
	})
	w, ctl := startedWorker(t, Config{Registry: reg, Slots: 2})
	var open1, open2 sync.Once
	release1 := func() { open1.Do(func() { close(gate1) }) }
	release2 := func() { open2.Do(func() { close(gate2) }) }
	t.Cleanup(func() { release1(); release2() }) // before the worker stops
	msgs := ctlStream(ctl)
	next := func(what string) proto.Msg {
		t.Helper()
		select {
		case m, ok := <-msgs:
			if !ok {
				t.Fatalf("control connection closed waiting for %s", what)
			}
			return m
		case <-time.After(10 * time.Second):
			t.Fatalf("no %s from the worker within 10 s", what)
			return nil
		}
	}

	for job, f := range map[ids.JobID]ids.FunctionID{1: fnGate1, 2: fnGate2} {
		sendCtl(t, ctl, &proto.SpawnCommands{Job: job, Cmds: []*command.Command{
			{ID: 1, Kind: command.Create, Writes: []ids.ObjectID{10}, Params: []byte{byte(job)}},
			{ID: 2, Kind: command.Task, Function: f, Writes: []ids.ObjectID{11}},
		}})
	}
	<-entered
	<-entered
	sendCtl(t, ctl, &proto.Halt{Job: 1, Seq: 1})
	sendCtl(t, ctl, &proto.Halt{Job: 1, Seq: 2})
	// The loop acks a FleetWarm at once: an ack of either halt sent at once
	// would arrive before it.
	sendCtl(t, ctl, &proto.FleetWarm{Seq: 1})
	for {
		m := next("FleetWarmAck")
		if ack, ok := m.(*proto.HaltAck); ok {
			t.Fatalf("halt %d acked while the job's task is still on an executor", ack.Seq)
		}
		if _, ok := m.(*proto.FleetWarmAck); ok {
			break
		}
	}

	release1()
	var ack *proto.HaltAck
	for ack == nil {
		ack, _ = next("HaltAck").(*proto.HaltAck)
	}
	if !returned.Load() {
		t.Fatal("halt acked before the gated function returned")
	}
	if ack.Job != 1 || ack.Seq != 2 {
		t.Fatalf("ack = %+v, want job 1's halt 2 (the latest)", ack)
	}
	if n := w.StoreOf(1).Len(); n != 0 {
		t.Fatalf("halted job's store holds %d objects after the ack, want 0", n)
	}
	if s := w.StoreOf(2); s.Len() != 2 || s.Get(10) == nil || s.Get(10).Data[0] != 2 {
		t.Fatalf("the other job's store was touched: %d objects", s.Len())
	}

	release2()
	for {
		m := next("job 2's task completion")
		if ack, ok := m.(*proto.HaltAck); ok {
			t.Fatalf("a second ack, of halt %d", ack.Seq)
		}
		if c, ok := m.(*proto.Complete); ok && c.Job == 2 && slices.Contains(c.IDs, 2) {
			return
		}
	}
}

// pinnedEvent posts one event whose message the test can watch being
// collected. It is its own function so no reference survives on the test's
// stack.
//
//go:noinline
func pinnedEvent(w *Worker, collected chan struct{}) {
	m := &proto.Heartbeat{Worker: 7} // handled as "unexpected", then dropped
	runtime.SetFinalizer(m, func(*proto.Heartbeat) { close(collected) })
	w.mbox.Put(event{kind: evCtrl, msg: m})
}

// A handled run pins no payload: the loop zeroes each slot it has handled, so
// the buffer it hands back to the mailbox holds nothing (same discipline as
// pcmdRing and peerConn.queue).
func TestHandledRunPinsNoPayload(t *testing.T) {
	w, ctl := startedWorker(t, Config{Logf: func(string, ...any) {}})
	collected := make(chan struct{})
	pinnedEvent(w, collected)
	// The ack proves the loop is past the pinned event's turn.
	sendCtl(t, ctl, &proto.FleetWarm{Seq: 1})
	recvCtl(t, ctl)
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("a handled event's message is still reachable: the run buffer pins it")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
