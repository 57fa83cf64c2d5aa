package driver_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nimbus/internal/controller"
	"nimbus/internal/driver"
	"nimbus/internal/durable"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
	"nimbus/internal/worker"
)

const (
	fnDouble ids.FunctionID = fn.FirstAppFunc + iota
	fnSum
)

// startHarness runs a controller and n workers over the in-memory
// transport and returns a connected driver.
func startHarness(t *testing.T, n int) *driver.Driver {
	t.Helper()
	reg := fn.NewRegistry()
	reg.MustRegister(fnDouble, "test/double", func(c *fn.Ctx) error {
		in := params.NewDecoder(params.Blob(c.Read(0))).Floats()
		out := make([]float64, len(in))
		for i, v := range in {
			out[i] = 2 * v
		}
		c.SetWrite(0, params.NewEncoder(8*len(out)+8).Floats(out).Blob())
		return nil
	})
	reg.MustRegister(fnSum, "test/sum", func(c *fn.Ctx) error {
		sum := 0.0
		for i := 0; i < c.NumReads(); i++ {
			for _, v := range params.NewDecoder(params.Blob(c.Read(i))).Floats() {
				sum += v
			}
		}
		c.SetWrite(0, params.NewEncoder(16).Floats([]float64{sum}).Blob())
		return nil
	})

	const addr = "drivertest/controller"
	tr := transport.NewMem(0)
	dur := durable.NewMem()
	ctrl := controller.New(controller.Config{
		ControlAddr: addr,
		Transport:   tr,
		Logf:        t.Logf,
	})
	if err := ctrl.Start(); err != nil {
		t.Fatalf("controller: %v", err)
	}
	var workers []*worker.Worker
	for i := 0; i < n; i++ {
		w := worker.New(worker.Config{
			ControlAddr: addr,
			DataAddr:    fmt.Sprintf("drivertest/data/%d", i),
			Transport:   tr,
			Slots:       4,
			Registry:    reg,
			Durable:     dur,
			Logf:        t.Logf,
		})
		if err := w.Start(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		workers = append(workers, w)
	}
	t.Cleanup(func() {
		ctrl.Stop()
		for _, w := range workers {
			w.Stop()
		}
	})

	d, err := driver.Connect(tr, addr, "driver-test")
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestSubmitGetRoundTrip covers the basic driver session: define, put,
// submit, synchronized get.
func TestSubmitGetRoundTrip(t *testing.T) {
	d := startHarness(t, 2)
	const parts = 4
	x, err := d.DefineVariable("x", parts)
	if err != nil {
		t.Fatalf("define: %v", err)
	}
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{float64(p + 1)}); err != nil {
			t.Fatalf("put %d: %v", p, err)
		}
	}
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := d.Submit(fnSum, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatalf("submit sum: %v", err)
	}
	got, err := d.GetFloats(sum, 0)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	// 2*(1+2+3+4) = 20.
	if len(got) != 1 || got[0] != 20 {
		t.Fatalf("sum = %v, want [20]", got)
	}
	// Raw Get of one partition decodes through the params framing.
	raw, err := d.Get(x, 2)
	if err != nil {
		t.Fatalf("raw get: %v", err)
	}
	vals := params.NewDecoder(params.Blob(raw)).Floats()
	if len(vals) != 1 || vals[0] != 6 {
		t.Fatalf("x[2] = %v, want [6]", vals)
	}
}

// TestTemplateBlockRoundTrip covers the basic-block API: record,
// instantiate repeatedly, barrier.
func TestTemplateBlockRoundTrip(t *testing.T) {
	d := startHarness(t, 2)
	const parts = 4
	x := d.MustVar("x", parts)
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.BeginTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnSum, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatal(err)
	}
	if err := d.EndTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Barrier(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	want := float64(2 * parts)
	for i := 0; i < 3; i++ {
		if err := d.Instantiate("blk"); err != nil {
			t.Fatalf("instantiate %d: %v", i, err)
		}
		want *= 2
		got, err := d.GetFloats(sum, 0)
		if err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("iteration %d: sum = %v (err %v), want [%v]", i, got, err, want)
		}
	}
}

// TestPerTaskParams covers SubmitPerTask (distinct parameters per task)
// outside templates.
func TestPerTaskParams(t *testing.T) {
	d := startHarness(t, 2)
	const parts = 3
	x := d.MustVar("x", parts)
	perTask := make([]params.Blob, parts)
	for p := range perTask {
		perTask[p] = params.NewEncoder(16).Floats([]float64{float64(10 * (p + 1))}).Blob()
	}
	// FuncSim carries its payload through: use the double function over
	// put data instead, then overwrite with per-task creates via Put.
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{float64(p)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SubmitPerTask(fnDouble, parts, perTask, x.Read(), x.Write()); err != nil {
		t.Fatalf("submit per-task: %v", err)
	}
	got, err := d.GetFloats(x, 2)
	if err != nil || len(got) != 1 || got[0] != 4 {
		t.Fatalf("x[2] = %v (err %v), want [4]", got, err)
	}
}

// TestControllerErrorSurfaced: controller errors reach the driver on the
// next synchronous operation instead of wedging the session.
func TestControllerErrorSurfaced(t *testing.T) {
	d := startHarness(t, 2)
	if err := d.Instantiate("missing"); err != nil {
		t.Fatal(err)
	}
	err := d.Barrier()
	if err == nil || !strings.Contains(err.Error(), "unknown template") {
		t.Fatalf("barrier error = %v, want unknown-template", err)
	}
}

// TestEmptyGet: reading a never-written partition returns empty data, and
// GetFloats maps it to nil.
func TestEmptyGet(t *testing.T) {
	d := startHarness(t, 1)
	x := d.MustVar("x", 2)
	got, err := d.GetFloats(x, 1)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got != nil {
		t.Fatalf("unwritten partition = %v, want nil", got)
	}
}

// ---------------------------------------------------------------------------
// v2 reply-table tests against a scripted fake controller: the fake owns
// the server side of the connection, so tests control reply order, inject
// orphan replies and corrupt frames, and script admission behavior.

// fakeController is the server end of one driver connection.
type fakeController struct {
	t    *testing.T
	conn transport.Conn
}

// startFake listens on a fresh Mem transport, admits one driver as job 1,
// and returns both ends.
func startFake(t *testing.T) (*fakeController, *driver.Driver) {
	t.Helper()
	tr := transport.NewMem(0)
	lis, err := tr.Listen("fake/controller")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f := &fakeController{t: t}
	accepted := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			accepted <- err
			return
		}
		f.conn = conn
		if _, ok := f.recv().(*proto.RegisterDriver); !ok {
			accepted <- fmt.Errorf("handshake was not RegisterDriver")
			return
		}
		f.reply(&proto.RegisterDriverAck{Job: 1})
		accepted <- nil
	}()
	d, err := driver.Connect(tr, "fake/controller", "fake-test")
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	if err := <-accepted; err != nil {
		t.Fatalf("fake accept: %v", err)
	}
	t.Cleanup(func() { f.conn.Close(); lis.Close() })
	return f, d
}

// recv decodes the next driver frame (single message).
func (f *fakeController) recv() proto.Msg {
	f.t.Helper()
	raw, err := f.conn.Recv()
	if err != nil {
		f.t.Fatalf("fake recv: %v", err)
	}
	m, err := proto.Unmarshal(raw)
	if err != nil {
		f.t.Fatalf("fake decode: %v", err)
	}
	return m
}

// recvGet asserts the next driver message is a Get and returns its seq.
func (f *fakeController) recvGet() uint64 {
	f.t.Helper()
	m, ok := f.recv().(*proto.Get)
	if !ok {
		f.t.Fatalf("expected Get")
	}
	return m.Seq
}

func (f *fakeController) reply(m proto.Msg) {
	f.t.Helper()
	if err := f.conn.Send(proto.Marshal(m)); err != nil {
		f.t.Fatalf("fake send: %v", err)
	}
}

func floats(vals ...float64) []byte {
	return params.NewEncoder(8*len(vals) + 8).Floats(vals).Blob()
}

// TestAsyncGetsResolveOutOfOrder pins the pending-table contract: two
// GetAsyncs in flight, replies arrive in reverse order, and waiting on
// the second resolves the first along the way.
func TestAsyncGetsResolveOutOfOrder(t *testing.T) {
	f, d := startFake(t)
	x := driver.Var{ID: 1}
	f1 := d.GetFloatsAsync(x, 0)
	f2 := d.GetFloatsAsync(x, 1)
	s1, s2 := f.recvGet(), f.recvGet()
	if s1 == s2 {
		t.Fatalf("both gets used seq %d", s1)
	}
	// Answer in reverse order: f2's reply first, f1's second.
	f.reply(&proto.GetResult{Seq: s2, Data: floats(2)})
	f.reply(&proto.GetResult{Seq: s1, Data: floats(1)})

	// Waiting on f1 pumps past f2's (earlier) reply, buffering it into
	// f2's table entry instead of dropping it as v1's recvUntil did.
	got1, err := f1.Wait()
	if err != nil || len(got1) != 1 || got1[0] != 1 {
		t.Fatalf("f1 = %v (err %v), want [1]", got1, err)
	}
	if !f2.Ready() {
		t.Fatalf("f2 not resolved after f1's wait pumped past its reply")
	}
	got2, err := f2.Wait()
	if err != nil || len(got2) != 1 || got2[0] != 2 {
		t.Fatalf("f2 = %v (err %v), want [2]", got2, err)
	}
}

// TestOrphanReplySurfaces: a reply whose seq nothing waits on is an
// error (v1 silently dropped it), and the real reply still resolves the
// future afterwards.
func TestOrphanReplySurfaces(t *testing.T) {
	f, d := startFake(t)
	fut := d.GetFloatsAsync(driver.Var{ID: 1}, 0)
	seq := f.recvGet()
	f.reply(&proto.GetResult{Seq: seq + 100, Data: floats(9)}) // orphan
	f.reply(&proto.GetResult{Seq: seq, Data: floats(3)})

	if _, err := fut.Wait(); err == nil || !strings.Contains(err.Error(), "orphan") {
		t.Fatalf("orphan reply error = %v, want orphan", err)
	}
	got, err := fut.Wait() // transient error: the future is still in flight
	if err != nil || len(got) != 1 || got[0] != 3 {
		t.Fatalf("after orphan: got %v (err %v), want [3]", got, err)
	}
}

// TestCorruptFrameKeepsPendingFutures: a corrupt frame surfaces as an
// error on the in-progress wait without resolving (or desynchronizing)
// the pending futures; subsequent frames resolve them normally.
func TestCorruptFrameKeepsPendingFutures(t *testing.T) {
	f, d := startFake(t)
	x := driver.Var{ID: 1}
	f1 := d.GetFloatsAsync(x, 0)
	f2 := d.GetFloatsAsync(x, 1)
	s1, s2 := f.recvGet(), f.recvGet()
	if err := f.conn.Send([]byte{0xEE}); err != nil { // unknown kind: corrupt frame
		t.Fatal(err)
	}
	f.reply(&proto.GetResult{Seq: s1, Data: floats(1)})
	f.reply(&proto.GetResult{Seq: s2, Data: floats(2)})

	if _, err := f1.Wait(); err == nil {
		t.Fatalf("corrupt frame did not surface")
	}
	got1, err := f1.Wait()
	if err != nil || len(got1) != 1 || got1[0] != 1 {
		t.Fatalf("f1 after corrupt frame = %v (err %v), want [1]", got1, err)
	}
	got2, err := f2.Wait()
	if err != nil || len(got2) != 1 || got2[0] != 2 {
		t.Fatalf("f2 after corrupt frame = %v (err %v), want [2]", got2, err)
	}
}

// TestErrorMsgTombstone: a controller error fails the waited future, and
// the late reply for it is swallowed instead of desynchronizing later
// requests.
func TestErrorMsgTombstone(t *testing.T) {
	f, d := startFake(t)
	x := driver.Var{ID: 1}
	f1 := d.GetFloatsAsync(x, 0)
	s1 := f.recvGet()
	f.reply(&proto.ErrorMsg{Text: "boom"})
	if _, err := f1.Wait(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("f1 error = %v, want controller boom", err)
	}

	f2 := d.GetFloatsAsync(x, 1)
	s2 := f.recvGet()
	f.reply(&proto.GetResult{Seq: s1, Data: floats(1)}) // late reply for the errored get
	f.reply(&proto.GetResult{Seq: s2, Data: floats(2)})
	got, err := f2.Wait()
	if err != nil || len(got) != 1 || got[0] != 2 {
		t.Fatalf("f2 = %v (err %v), want [2] — the tombstoned reply must be swallowed", got, err)
	}
}

// TestLoopDoneResolvesFuture: InstantiateWhileAsync round-trips the loop
// request and resolves from a LoopDone.
func TestLoopDoneResolvesFuture(t *testing.T) {
	f, d := startFake(t)
	x := driver.Var{ID: 4}
	fut := d.InstantiateWhileAsync("blk", x.AtLeast(0, 0.5), 10)
	m, ok := f.recv().(*proto.InstantiateWhile)
	if !ok {
		t.Fatalf("expected InstantiateWhile")
	}
	if m.Name != "blk" || m.MaxIters != 10 || m.Pred.Op != proto.PredGE || m.Pred.Threshold != 0.5 {
		t.Fatalf("loop request = %+v", m)
	}
	f.reply(&proto.LoopDone{Seq: m.Seq, Iters: 7, LastValue: 0.25})
	res, err := fut.Wait()
	if err != nil || res.Iters != 7 || res.LastValue != 0.25 {
		t.Fatalf("loop result = %+v (err %v), want 7 iters, 0.25", res, err)
	}
}

// TestConnectDeadline: admission that never acks must not block a connect
// past its context's deadline.
func TestConnectDeadline(t *testing.T) {
	tr := transport.NewMem(0)
	lis, err := tr.Listen("fake/deaf")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		// Accept and read the handshake, then never ack.
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		conn.Recv()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := driver.ConnectOpts(ctx, tr, "fake/deaf", driver.Opts{Name: "deaf"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("connect error = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("connect blocked %v past its deadline", time.Since(start))
	}
}

// TestReattachSkipsDeafPrimary: the primary drops the session, then accepts
// reattach hellos it never answers. The driver gives up on it at the hello
// deadline and reattaches to the live endpoint in Opts.Failover, which
// receives the journaled operation.
func TestReattachSkipsDeafPrimary(t *testing.T) {
	tr := transport.NewMem(0)
	primary, err := tr.Listen("fake/primary")
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	standby, err := tr.Listen("fake/standby")
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	admitted := make(chan transport.Conn, 1)
	go func() {
		// Admit the session as job 1, then hear every hello and answer none.
		for first := true; ; first = false {
			conn, err := primary.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := conn.Recv(); err != nil || !first {
				continue
			}
			conn.Send(proto.Marshal(&proto.RegisterDriverAck{Job: 1}))
			admitted <- conn
		}
	}()
	got := make(chan proto.Msg, 2)
	go func() {
		conn, err := standby.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			raw, err := conn.Recv()
			if err != nil {
				return
			}
			m, err := proto.Unmarshal(raw)
			if err != nil {
				t.Errorf("standby decode: %v", err)
				return
			}
			if _, ok := m.(*proto.DriverReattach); ok {
				conn.Send(proto.Marshal(&proto.ReattachAck{Job: 1, Ok: true}))
			}
			got <- m
		}
	}()
	d, err := driver.ConnectOpts(context.Background(), tr, "fake/primary",
		driver.Opts{Name: "deaf-primary", Failover: []string{"fake/standby"}})
	if err != nil {
		t.Fatal(err)
	}
	(<-admitted).Close()
	done := make(chan error, 1)
	go func() {
		_, err := d.DefineVariable("x", 1)
		done <- err
	}()
	within := transport.HelloTimeout + 3*time.Second
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("define after the primary went deaf: %v", err)
		}
	case <-time.After(within):
		t.Fatalf("the driver had not reattached %v after its primary went deaf", within)
	}
	for _, want := range []proto.MsgKind{proto.KindDriverReattach, proto.KindDefineVariable} {
		if m := <-got; m.Kind() != want {
			t.Fatalf("the failover endpoint received %s, want %s", m.Kind(), want)
		}
	}
}

// TestCloseReportsJobEndSendError: when the connection is already dead,
// Close must surface that the JobEnd goodbye was never delivered.
func TestCloseReportsJobEndSendError(t *testing.T) {
	f, d := startFake(t)
	f.conn.Close() // controller side drops first
	if err := d.Close(); err == nil {
		t.Fatalf("close over a dead connection reported success")
	}
}
