package worker

import (
	"errors"
	"testing"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// fakeController drives a single worker directly, asserting on the raw
// protocol: it plays the controller role over the in-memory transport.
type fakeController struct {
	t    *testing.T
	lis  transport.Listener
	conn transport.Conn
	w    *Worker
	// inbox is fed by a single persistent reader so sequential recvUntil
	// calls never compete for messages.
	inbox chan proto.Msg
}

func startWorkerHarness(t *testing.T) *fakeController {
	t.Helper()
	tr := transport.NewMem(0)
	lis, err := tr.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeController{t: t, lis: lis}
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	w := New(Config{
		ControlAddr: "ctrl",
		DataAddr:    "data/1",
		Transport:   tr,
		Slots:       2,
		Registry:    fn.NewRegistry(),
		Logf:        t.Logf,
	})
	errc := make(chan error, 1)
	go func() { errc <- w.Start() }()
	conn := <-accepted
	// Consume the registration and ack it.
	raw, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := proto.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*proto.RegisterWorker); !ok {
		t.Fatalf("first message = %s", msg.Kind())
	}
	if err := conn.Send(proto.Marshal(&proto.RegisterWorkerAck{Worker: 1})); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("worker start: %v", err)
	}
	fc.conn = conn
	fc.w = w
	fc.inbox = make(chan proto.Msg, 256)
	go func() {
		for {
			raw, err := conn.Recv()
			if err != nil {
				close(fc.inbox)
				return
			}
			if m, err := proto.Unmarshal(raw); err == nil {
				fc.inbox <- m
			}
		}
	}()
	t.Cleanup(func() {
		w.Stop()
		lis.Close()
	})
	return fc
}

// TestStartClosesControlOnBadAck answers the registration hello with
// something other than an ack. Start must fail and close the control
// connection: a connection left open is a member the controller counts as
// active but nobody serves.
func TestStartClosesControlOnBadAck(t *testing.T) {
	tr := transport.NewMem(0)
	lis, err := tr.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	w := New(Config{ControlAddr: "ctrl", DataAddr: "data/1", Transport: tr, Slots: 2, Logf: t.Logf})
	errc := make(chan error, 1)
	go func() { errc <- w.Start() }()
	conn, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	recv := func() error {
		got := make(chan error, 1)
		go func() {
			_, err := conn.Recv()
			got <- err
		}()
		select {
		case err := <-got:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("control connection neither delivered nor closed")
			return nil
		}
	}
	if err := recv(); err != nil {
		t.Fatalf("awaiting hello: %v", err)
	}
	if err := conn.Send(proto.Marshal(&proto.Heartbeat{Worker: 1})); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil {
		t.Fatal("Start accepted a heartbeat as its registration ack")
	}
	if err := recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("control connection after failed Start: recv = %v, want ErrClosed", err)
	}
}

func (fc *fakeController) send(m proto.Msg) {
	fc.t.Helper()
	if err := fc.conn.Send(proto.Marshal(m)); err != nil {
		fc.t.Fatal(err)
	}
}

// recvUntil consumes controller-bound messages until pred matches.
func (fc *fakeController) recvUntil(timeout time.Duration, pred func(proto.Msg) bool) proto.Msg {
	fc.t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case m, ok := <-fc.inbox:
			if !ok {
				fc.t.Fatal("connection closed while waiting")
			}
			if pred(m) {
				return m
			}
		case <-deadline:
			fc.t.Fatal("timed out waiting for message")
		}
	}
}

// TestWorkerDependencyOrder spawns two commands where the second depends
// on the first and verifies both complete (local resolution, requirement
// 1 of §3.1).
func TestWorkerDependencyOrder(t *testing.T) {
	fc := startWorkerHarness(t)
	fc.send(&proto.SpawnCommands{Cmds: []*command.Command{
		{ID: 2, Kind: command.Task, Function: fn.FuncNop,
			Writes: []ids.ObjectID{1}, Before: []ids.CommandID{1}},
		{ID: 1, Kind: command.Task, Function: fn.FuncNop,
			Writes: []ids.ObjectID{1}},
	}})
	seen := make(map[ids.CommandID]bool)
	fc.recvUntil(5*time.Second, func(m proto.Msg) bool {
		if c, ok := m.(*proto.Complete); ok {
			for _, id := range c.IDs {
				seen[id] = true
			}
		}
		return seen[1] && seen[2]
	})
	if fc.w.Stats.TasksRun.Load() != 2 {
		t.Fatalf("tasks run = %d", fc.w.Stats.TasksRun.Load())
	}
}

// TestWorkerTemplateLifecycle installs a template, instantiates it twice,
// applies an edit, and verifies BlockDone reporting each time.
func TestWorkerTemplateLifecycle(t *testing.T) {
	fc := startWorkerHarness(t)
	fc.send(&proto.InstallTemplate{
		Template: 7, Name: "blk",
		Entries: []command.TemplateEntry{
			{Index: 0, Kind: command.Task, Function: fn.FuncNop,
				Writes: []ids.ObjectID{1}, ParamSlot: command.NoParamSlot},
			{Index: 1, Kind: command.Task, Function: fn.FuncNop,
				Reads: []ids.ObjectID{1}, BeforeIdx: []int32{0},
				ParamSlot: command.NoParamSlot},
		},
	})
	waitBlock := func(instance uint64) {
		fc.recvUntil(5*time.Second, func(m proto.Msg) bool {
			bd, ok := m.(*proto.BlockDone)
			return ok && bd.Instance == instance
		})
	}
	fc.send(&proto.InstantiateTemplate{Template: 7, Instance: 1, Base: 100})
	waitBlock(1)
	fc.send(&proto.InstantiateTemplate{Template: 7, Instance: 2, Base: 200})
	waitBlock(2)
	if got := fc.w.Stats.TasksRun.Load(); got != 4 {
		t.Fatalf("tasks run = %d, want 4", got)
	}
	// Edit: remove entry 1, add entry 2.
	fc.send(&proto.InstantiateTemplate{
		Template: 7, Instance: 3, Base: 300,
		Edits: []command.Edit{{
			Remove: []int32{1},
			Add: []command.TemplateEntry{
				{Index: 2, Kind: command.Task, Function: fn.FuncNop,
					Reads: []ids.ObjectID{1}, BeforeIdx: []int32{0},
					ParamSlot: command.NoParamSlot},
			},
		}},
	})
	waitBlock(3)
	if got := fc.w.Stats.EditsApplied.Load(); got != 2 {
		t.Fatalf("edits applied = %d, want 2", got)
	}
	// The edit is persistent: the next instance runs the edited shape.
	fc.send(&proto.InstantiateTemplate{Template: 7, Instance: 4, Base: 400})
	waitBlock(4)
	if got := fc.w.Stats.TasksRun.Load(); got != 8 {
		t.Fatalf("tasks run = %d, want 8", got)
	}
}

// TestWorkerHaltFlushesQueues verifies Halt discards pending work and
// acknowledges (recovery protocol, §4.4).
func TestWorkerHaltFlushesQueues(t *testing.T) {
	fc := startWorkerHarness(t)
	// A command that can never run (dependency never arrives).
	fc.send(&proto.SpawnCommands{Cmds: []*command.Command{
		{ID: 10, Kind: command.Task, Function: fn.FuncNop,
			Before: []ids.CommandID{9999}},
	}})
	fc.send(&proto.Halt{Seq: 1})
	fc.recvUntil(5*time.Second, func(m proto.Msg) bool {
		ha, ok := m.(*proto.HaltAck)
		return ok && ha.Seq == 1
	})
	fc.send(&proto.Resume{})
	// Fresh work after resume runs normally.
	fc.send(&proto.SpawnCommands{Cmds: []*command.Command{
		{ID: 11, Kind: command.Task, Function: fn.FuncNop},
	}})
	fc.recvUntil(5*time.Second, func(m proto.Msg) bool {
		c, ok := m.(*proto.Complete)
		return ok && len(c.IDs) > 0 && c.IDs[0] == 11
	})
}

// TestWorkerBarrierUnit verifies a barrier unit (template instance) waits
// for previously enqueued work: a slow task spawned first must complete
// before the instance's commands run.
func TestWorkerBarrierUnit(t *testing.T) {
	fc := startWorkerHarness(t)
	fc.send(&proto.InstallTemplate{
		Template: 3, Name: "b",
		Entries: []command.TemplateEntry{
			{Index: 0, Kind: command.Task, Function: fn.FuncNop,
				Writes: []ids.ObjectID{5}, ParamSlot: command.NoParamSlot},
		},
	})
	// Slow simulated task first.
	fc.send(&proto.SpawnCommands{Cmds: []*command.Command{
		{ID: 20, Kind: command.Task, Function: fn.FuncSim,
			Params: fn.SimParams(100 * time.Millisecond), Writes: []ids.ObjectID{5}},
	}})
	start := time.Now()
	fc.send(&proto.InstantiateTemplate{Template: 3, Instance: 9, Base: 500})
	fc.recvUntil(5*time.Second, func(m proto.Msg) bool {
		bd, ok := m.(*proto.BlockDone)
		return ok && bd.Instance == 9
	})
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("instance completed in %v; barrier did not wait for prior work", d)
	}
}
