package controller

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// startBare starts a controller on Mem with no ticker, so nothing posts to
// its loop but the connections a test opens.
func startBare(t *testing.T) (*Controller, *transport.Mem) {
	t.Helper()
	mem := transport.NewMem(0)
	c := New(Config{ControlAddr: "ctl", Transport: mem, Logf: func(string, ...any) {}})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, mem
}

// dialHello opens a dedicated connection that introduces itself with m.
func dialHello(t *testing.T, mem *transport.Mem, m proto.Msg) transport.Conn {
	t.Helper()
	conn, err := mem.Dial("ctl")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(proto.Marshal(m)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// recvUntil reads conn until a message of kind k arrives, failing after
// 10 s.
func recvUntil(t *testing.T, conn transport.Conn, k proto.MsgKind) proto.Msg {
	t.Helper()
	got := make(chan proto.Msg, 1)
	go func() {
		defer close(got)
		for {
			raw, err := conn.Recv()
			if err != nil {
				return
			}
			var hit proto.Msg
			proto.ForEachMsg(raw, func(m proto.Msg) error {
				if hit == nil && m.Kind() == k {
					hit = m
				}
				return nil
			})
			if hit != nil {
				got <- hit
				return
			}
		}
	}()
	select {
	case m, ok := <-got:
		if !ok {
			t.Fatalf("connection closed before a %s arrived", k)
		}
		return m
	case <-time.After(10 * time.Second):
		t.Fatalf("no %s within 10 s", k)
		return nil
	}
}

// loopCounts reads the loop counters on the loop, after everything posted
// before the call: the Do's own run is already counted when it runs.
func loopCounts(c *Controller) (wakeups, events uint64) {
	c.Do(func() {
		wakeups, events = c.Stats.LoopWakeups.Load(), c.Stats.LoopEvents.Load()
	})
	return
}

// A worker frame of n Completes reaches an idle controller loop as one run:
// the connection's reader posts the frame's events under one lock, so the
// loop cannot wake between the first and the last.
func TestControllerFrameIsOneRun(t *testing.T) {
	const n = 10
	c, mem := startBare(t)
	w := dialHello(t, mem, &proto.RegisterWorker{DataAddr: "data/1", Slots: 1})
	recvUntil(t, w, proto.KindRegisterWorkerAck)
	wakeups, events := loopCounts(c)

	msgs := make([]proto.Msg, n)
	for i := range msgs {
		msgs[i] = &proto.Complete{Job: 99, Worker: 1, IDs: []ids.CommandID{ids.CommandID(i)}}
	}
	if err := w.Send(proto.AppendBatch(nil, msgs)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); c.Stats.LoopEvents.Load()-events < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the loop handled %d of the frame's %d events within 10 s", c.Stats.LoopEvents.Load()-events, n)
		}
	}
	if dw, de := c.Stats.LoopWakeups.Load()-wakeups, c.Stats.LoopEvents.Load()-events; dw != 1 || de != n {
		t.Fatalf("a %d-message worker frame cost %d wakeups for %d events, want 1 for %d", n, dw, de, n)
	}
}

// A standby lost while a driver op waits behind the replication window
// releases the op after the close's handler returns, in the same event: the
// handler defers the drain instead of posting it to its own mailbox, which
// would block it for good on a full one. The barrier behind the op answers
// once the op has run.
func TestStandbyLostReleasesFencedOp(t *testing.T) {
	c, mem := startBare(t)
	w := dialHello(t, mem, &proto.RegisterWorker{DataAddr: "data/1", Slots: 1})
	recvUntil(t, w, proto.KindRegisterWorkerAck)
	standby := dialHello(t, mem, &proto.ReplAttach{})
	recvUntil(t, standby, proto.KindReplSnapshot)
	drv := dialHello(t, mem, &proto.RegisterDriver{Name: "fenced"})
	job := recvUntil(t, drv, proto.KindRegisterDriverAck).(*proto.RegisterDriverAck).Job

	// The first op fills the window (the standby never acks); the second
	// queues behind it and the barrier waits for the queue.
	err := drv.Send(proto.AppendBatch(nil, []proto.Msg{
		&proto.DefineVariable{Var: 1, Name: "a", Partitions: 1},
		&proto.DefineVariable{Var: 2, Name: "b", Partitions: 1},
		&proto.Barrier{Seq: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var queued, applied int
	var events uint64
	for deadline := time.Now().Add(10 * time.Second); queued != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d ops queued behind the replication window, want 1", queued)
		}
		c.Do(func() {
			if j := c.jobs[job]; j != nil && len(j.barriers) == 1 {
				queued, applied = len(j.opq), int(j.applied)
			}
			events = c.Stats.LoopEvents.Load()
		})
	}
	if applied != 1 {
		t.Fatalf("%d ops applied before the standby was lost, want 1", applied)
	}

	standby.Close()
	recvUntil(t, drv, proto.KindBarrierDone)
	if de := c.Stats.LoopEvents.Load() - events; de != 1 {
		t.Fatalf("the standby's loss took %d loop events to release the op, want 1 (its close)", de)
	}
	c.Do(func() { applied = int(c.jobs[job].applied) })
	if applied != 2 {
		t.Fatalf("%d ops applied once the barrier answered, want 2", applied)
	}
}

// fakeStandbyConn takes the standby's acks.
type fakeStandbyConn struct{ acks int }

func (f *fakeStandbyConn) Send([]byte) error     { f.acks++; return nil }
func (f *fakeStandbyConn) Recv() ([]byte, error) { return nil, transport.ErrClosed }
func (f *fakeStandbyConn) Close() error          { return nil }

// The standby's shadow is the snapshot it replicates: apply folds the
// stream into it, and promotion hands it over as is.
func TestStandbyShadowIsReplicatedSnapshot(t *testing.T) {
	conn := &fakeStandbyConn{}
	s := NewStandby(Config{})
	s.conn = conn
	s.adoptSnapshot(&proto.ReplSnapshot{NextWorker: 2, Workers: []ids.WorkerID{1, 2}})

	def := proto.Marshal(&proto.DefineVariable{Var: 1, Name: "x", Partitions: 2})
	start := proto.Marshal(&proto.TemplateStart{Name: "t"})
	stage := proto.Marshal(&proto.SubmitStage{Stage: 1, Tasks: 2})
	end := proto.Marshal(&proto.TemplateEnd{Name: "t"})
	put := proto.Marshal(&proto.Put{Var: 1, Partition: 0, Data: []byte("p")})
	manifest := []proto.ManifestEntry{{Logical: 1, Version: 3}}
	for _, m := range []proto.Msg{
		&proto.ReplJobStart{Job: 1, Name: "a", Weight: 2, Tenant: "gold"},
		&proto.ReplJobStart{Job: 2, Name: "b"},
		&proto.ReplJobStart{Job: 3, Name: "c"},
		&proto.ReplOp{Job: 1, Index: 1, NextCmd: 1, NextObj: 1, Raw: def},
		&proto.ReplOp{Job: 1, Index: 2, NextCmd: 1, NextObj: 1, Raw: start},
		&proto.ReplOp{Job: 1, Index: 3, NextCmd: 1, NextObj: 1, Raw: stage},
		&proto.ReplOp{Job: 1, Index: 4, NextCmd: 1, NextObj: 1, Raw: end},
		&proto.ReplOp{Job: 1, Index: 5, NextCmd: 2, NextObj: 3, Raw: put},
		&proto.ReplOp{Job: 1, Index: 6, NextCmd: 5, NextObj: 3, Raw: stage}, // outside a recording
		&proto.ReplOp{Job: 1, Index: 7, NextCmd: 9, NextObj: 4},             // an applied bump
		&proto.ReplCkpt{Job: 1, Ckpt: 3, Count: 1, Drop: 4, Manifest: manifest},
		&proto.ReplOp{Job: 3, Index: 1, NextCmd: 1, NextObj: 1, Raw: start},
		&proto.ReplOp{Job: 3, Index: 2, NextCmd: 1, NextObj: 1, Raw: stage},
		&proto.ReplJobEnd{Job: 2},
	} {
		s.apply(m)
	}

	want := &proto.ReplSnapshot{
		JobSeq: 3, NextWorker: 2, Workers: []ids.WorkerID{1, 2},
		Jobs: []*proto.ReplJob{{
			Job: 1, Name: "a", Weight: 2, Tenant: "gold", Applied: 7,
			Ckpt: 3, CkptCount: 1, Manifest: manifest,
			Defs:    [][]byte{def, start, stage, end},
			Oplog:   [][]byte{put, stage},
			NextCmd: 9, NextObj: 4,
		}, {
			Job: 3, Name: "c", Applied: 2,
			Defs:    [][]byte{start, stage},
			Oplog:   [][]byte{start, stage},
			NextCmd: 1, NextObj: 1,
		}},
	}
	if !reflect.DeepEqual(s.shadow, want) {
		t.Fatalf("promoted snapshot:\n got %s\nwant %s", describe(s.shadow), describe(want))
	}
	if conn.acks != 8 {
		t.Fatalf("standby acked %d ops, want the 8 that carried one", conn.acks)
	}
}

// describe renders a snapshot's jobs for a failure message.
func describe(snap *proto.ReplSnapshot) string {
	out := fmt.Sprintf("seq %d, workers %v", snap.JobSeq, snap.Workers)
	for _, rj := range snap.Jobs {
		out += fmt.Sprintf("\n  %+v", *rj)
	}
	return out
}

// Stop must return whatever an accepted connection's reader waits on: a
// hello the stopping loop never handles (a stopping loop handles only Do's,
// so the connection is never registered), or a hello that never comes.
// Stop closes every tracked connection, as Kill does, and the controller
// tracks a connection from Accept.
func TestStopReturnsWithUnhandledHello(t *testing.T) {
	for _, tc := range []struct {
		name string
		// open makes the connection and returns once the controller holds it.
		open   func(*testing.T, *Controller, *transport.Mem) transport.Conn
		within time.Duration
	}{{
		name: "hello while stopping",
		open: func(t *testing.T, c *Controller, mem *transport.Mem) transport.Conn {
			_, events := loopCounts(c)
			c.stopOnce.Do(func() { close(c.stopped) })
			w := dialHello(t, mem, &proto.RegisterWorker{DataAddr: "data/1", Slots: 1})
			for deadline := time.Now().Add(10 * time.Second); c.Stats.LoopEvents.Load() == events; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the hello never reached the loop")
				}
			}
			return w
		},
		within: 10 * time.Second,
	}, {
		name: "no hello",
		open: func(t *testing.T, c *Controller, mem *transport.Mem) transport.Conn {
			conn, err := mem.Dial("ctl")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			for deadline := time.Now().Add(10 * time.Second); c.FrontDoorStats().Conns == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the controller never held the silent connection")
				}
			}
			return conn
		},
		within: time.Second,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			mem := transport.NewMem(0)
			c := New(Config{ControlAddr: "ctl", Transport: mem, Logf: func(string, ...any) {}})
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			w := tc.open(t, c, mem)
			stopped := make(chan struct{})
			go func() {
				c.Stop()
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(tc.within):
				w.Close() // lets a hung Stop return
				t.Fatalf("Stop did not return within %v with an unregistered connection open", tc.within)
			}
		})
	}
}

// TestHelloDeadlineClosesSilentConnection: a connection that sends no hello
// is closed by the controller once transport.HelloTimeout passes, with no
// Stop, so a port scan or a client lost mid-dial pins no reader.
func TestHelloDeadlineClosesSilentConnection(t *testing.T) {
	c, mem := startBare(t)
	conn, err := mem.Dial("ctl")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	closed := make(chan error, 1)
	go func() {
		_, err := conn.Recv()
		closed <- err
	}()
	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("the controller sent a frame to a connection that never said hello")
		}
	case <-time.After(transport.HelloTimeout + time.Second):
		t.Fatalf("the silent connection was still open %v after it was accepted", transport.HelloTimeout+time.Second)
	}
	for deadline := time.Now().Add(10 * time.Second); c.FrontDoorStats().Conns != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the dropped connection stayed tracked")
		}
	}
}

// TestStandbyAttachToDeafPrimary: a primary that accepts the standby's
// attach and never sends the snapshot fails Start at the hello deadline,
// and the standby is finished.
func TestStandbyAttachToDeafPrimary(t *testing.T) {
	mem := transport.NewMem(0)
	lis, err := mem.Listen("ctl")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	s := NewStandby(Config{ControlAddr: "ctl", Transport: mem})
	started := make(chan error, 1)
	go func() { started <- s.Start() }()
	within := transport.HelloTimeout + time.Second
	select {
	case err := <-started:
		if err == nil {
			t.Fatal("the standby attached to a primary that sent no snapshot")
		}
	case <-time.After(within):
		t.Fatalf("Start still waiting for the snapshot after %v", within)
	}
	select {
	case <-s.Done():
	default:
		t.Error("a standby whose attach failed is not done")
	}
}
