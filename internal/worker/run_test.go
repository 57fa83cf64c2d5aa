package worker

import (
	"bytes"
	"encoding/binary"
	"os"
	"sync"
	"testing"

	"nimbus/internal/chaos"
	"nimbus/internal/command"
	"nimbus/internal/datastore"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// These tests pin the run rule (DESIGN.md "Wire budget"): on a connection
// with a stage, the small copies admitted while the writer is busy leave as
// one frame and reach the receiving loop as one event; on a connection
// without one, every copy is its own frame.

// stagedRec forwards a connection's stage, records every frame the writer
// hands it, and holds the writer inside the first one until gate closes.
type stagedRec struct {
	transport.Conn
	stage   transport.BufferedSender
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once

	mu     sync.Mutex
	frames [][]byte
}

func (c *stagedRec) SendBuffered(b []byte) error {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), b...))
	c.mu.Unlock()
	c.once.Do(func() {
		close(c.entered)
		<-c.gate
	})
	return c.stage.SendBuffered(b)
}

func (c *stagedRec) Flush() error { return c.stage.Flush() }

func newStagedRec() *stagedRec {
	return &stagedRec{entered: make(chan struct{}), gate: make(chan struct{})}
}

// dialer dials tr and puts c around the first connection; a redial gets a
// plain one.
func (c *stagedRec) dialer(tr transport.Transport) *heldDial {
	release := make(chan struct{})
	close(release)
	return &heldDial{Transport: tr, release: release, wrap: func(conn transport.Conn) transport.Conn {
		if c.Conn != nil {
			return conn
		}
		c.Conn, c.stage = conn, conn.(transport.BufferedSender)
		return c
	}}
}

// The writer is held in frame 0 while k more copies are admitted: they are
// one run, so the next frame is one batch of exactly k payloads in admission
// order — byte for byte what AppendBatch makes of them — and the lone copy
// ahead of it left as the bare message.
func TestPeerWriterSendsAdmittedCopiesAsOneRun(t *testing.T) {
	const k = 12
	for _, tc := range []struct {
		name   string
		tr     transport.Transport
		listen string
	}{
		{"tcp", transport.TCP{}, "127.0.0.1:0"},
		{"mem", transport.NewMem(0), "peer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := newStagedRec()
			snd, rcv, addr := pumpPair(t, rec.dialer(tc.tr), tc.listen, Config{})
			snd.peers[2] = addr
			sendSmall(t, snd, 0)
			<-rec.entered // the writer is inside frame 0's send
			for i := 1; i <= k; i++ {
				sendSmall(t, snd, i)
			}
			close(rec.gate)
			for i := 0; i <= k; i++ {
				expectSmall(t, rcv, i)
			}
			if got := snd.Stats.PeerFrames.Load(); got != 2 {
				t.Fatalf("PeerFrames = %d for a lone copy and a run of %d, want 2", got, k)
			}
			if got := snd.Stats.CopiesSent.Load(); got != k+1 {
				t.Fatalf("CopiesSent = %d, want %d", got, k+1)
			}
			rec.mu.Lock()
			frames := rec.frames
			rec.mu.Unlock()
			if len(frames) != 2 {
				t.Fatalf("the connection was handed %d frames, want 2", len(frames))
			}
			want := make([]proto.Msg, 0, k+1)
			for i := 0; i <= k; i++ {
				want = append(want, &proto.DataPayload{
					Job: 1, DstCommand: ids.CommandID(i + 1000), Object: 5, Logical: 5, Version: uint64(i),
					Data: binary.BigEndian.AppendUint64(nil, uint64(i)),
				})
			}
			if !bytes.Equal(frames[0], proto.Marshal(want[0])) {
				t.Fatalf("the lone copy left as %x, want the bare payload %x", frames[0], proto.Marshal(want[0]))
			}
			if !bytes.Equal(frames[1], proto.AppendBatch(nil, want[1:])) {
				t.Fatalf("the run left as %x, want one batch of payloads 1..%d", frames[1], k)
			}
		})
	}
}

// On a connection without a stage the same burst is one frame per copy, to
// the frame: the tracer's per-iteration counts and chaos's (seed, link,
// ordinal) schedules are pinned per copy.
func TestUnstagedConnGetsOneFramePerCopy(t *testing.T) {
	const n = 200
	for _, tc := range []struct {
		name string
		wrap func(transport.Transport) transport.Transport
	}{
		{"counting", func(tr transport.Transport) transport.Transport { return tr }},
		{"chaos", func(tr transport.Transport) transport.Transport { return chaos.New(tr, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := transport.NewCounting(transport.NewMem(0))
			held := &heldDial{Transport: tc.wrap(wire), release: make(chan struct{})}
			snd, rcv, addr := pumpPair(t, held, "peer", Config{})
			snd.peers[2] = addr
			// Half queued while the writer dials, half against the live
			// writer: neither may merge.
			for i := 0; i < n/2; i++ {
				sendSmall(t, snd, i)
			}
			close(held.release)
			for i := n / 2; i < n; i++ {
				sendSmall(t, snd, i)
			}
			for i := 0; i < n; i++ {
				expectSmall(t, rcv, i)
			}
			copies := snd.Stats.CopiesSent.Load()
			if got := wire.Sends(); copies != n || got != copies {
				t.Fatalf("%d frames on the wire for %d copies (CopiesSent %d)", got, n, copies)
			}
			if got := snd.Stats.PeerFrames.Load(); got != copies {
				t.Fatalf("PeerFrames = %d, want %d", got, copies)
			}
			if got := snd.Stats.PeerFlushes.Load(); got != 0 {
				t.Fatalf("PeerFlushes = %d on a connection without a stage", got)
			}
		})
	}
}

// writerlessPeer gives a loop worker a peer queue nobody drains, on a
// connection taken to have a stage; the test pops by hand.
func writerlessPeer(t *testing.T, cfg Config) (*Worker, *peerConn, *jstate) {
	t.Helper()
	cfg.ControlAddr, cfg.DataAddr = "c", "d"
	w := newLoopWorker(t, cfg)
	pc := newPeerConn(w, 2, "peer")
	pc.stages = true
	w.peers[2] = "peer"
	w.peerConns[2] = pc
	return w, pc, w.job(1)
}

// A run closes at runCap bytes: the copy that would take it past opens the
// next one, and no run is ever longer.
func TestRunClosesAtByteCap(t *testing.T) {
	const n, size = 40, 1000
	w, pc, js := writerlessPeer(t, Config{})
	js.store.Install(5, 5, 1, bytes.Repeat([]byte{3}, size))
	for i := 0; i < n; i++ {
		if !w.execSend(js, copySendCmd(w, js, ids.CommandID(i), 5, 2)) {
			t.Fatal("small send did not complete at admission")
		}
	}
	var counts []uint64
	var total uint64
	for total < n {
		it, ok := pc.next(false)
		if !ok {
			t.Fatalf("queue empty after %d of %d payloads", total, n)
		}
		if len(it.run) > runCap {
			t.Fatalf("run %d holds %d bytes, cap is %d", len(counts), len(it.run), runCap)
		}
		if int64(len(it.run)) != it.size {
			t.Fatalf("run %d charged %d bytes for %d queued", len(counts), it.size, len(it.run))
		}
		if total+it.count < n && len(it.run)+size+payloadHeadroom <= runCap {
			t.Fatalf("run %d closed at %d bytes with room for another payload", len(counts), len(it.run))
		}
		counts = append(counts, it.count)
		total += it.count
		proto.PutBuf(it.run)
		pc.release(it.size)
	}
	if len(counts) < 2 || counts[0] < 2 {
		t.Fatalf("%d payloads of %d bytes left in runs of %v: want several runs of several", n, size, counts)
	}
	if _, ok := pc.next(false); ok {
		t.Fatal("queue holds more than was sent")
	}
}

// A full queue parks the CopySend before anything is marshaled: the run at
// the tail is untouched and the budget is charged exactly the bytes queued.
func TestFullQueueParksWithoutMarshaling(t *testing.T) {
	const size = 1000
	w, pc, js := writerlessPeer(t, Config{PeerQueueBytes: 4 << 10})
	js.store.Install(5, 5, 1, bytes.Repeat([]byte{3}, size))
	sent := 0
	for ; w.execSend(js, copySendCmd(w, js, ids.CommandID(sent), 5, 2)); sent++ {
		if sent > 10 {
			t.Fatal("a 4 KiB queue admitted more than ten 1000-byte payloads")
		}
	}
	if got := w.Stats.ParkedSends.Load(); got != 1 || len(pc.parked) != 1 {
		t.Fatalf("ParkedSends = %d, parked = %d, want 1 and 1", got, len(pc.parked))
	}
	if got := w.Stats.CopiesSent.Load(); got != uint64(sent) || sent < 2 {
		t.Fatalf("CopiesSent = %d after %d admitted sends", got, sent)
	}
	var queued int64
	var count uint64
	for i := pc.head; i < len(pc.queue); i++ {
		queued += int64(len(pc.queue[i].run))
		count += pc.queue[i].count
	}
	if count != uint64(sent) {
		t.Fatalf("queue holds %d payloads, %d were admitted: the parked one was marshaled", count, sent)
	}
	if pc.pending != queued {
		t.Fatalf("pending = %d, the queue holds %d bytes", pc.pending, queued)
	}
	if pc.pending+size+payloadHeadroom <= w.peerQueueBytes {
		t.Fatalf("send parked with %d of %d bytes pending", pc.pending, w.peerQueueBytes)
	}
}

// pumpedConn runs the real dataPump of a loop worker on one end of a pipe and
// returns the other.
func pumpedConn(t *testing.T, rcv *Worker) transport.Conn {
	t.Helper()
	a, b := transport.Pipe(0)
	rcv.wg.Add(1)
	go rcv.dataPump(a)
	t.Cleanup(func() {
		rcv.finish(nil)
		a.Close()
		b.Close()
		rcv.wg.Wait()
	})
	return b
}

// One frame is one event, in frame order: [payload A, last chunk of X,
// payload B] reaches the loop as A, X, B.
func TestFrameDeliversPayloadsAndTransfersInOrder(t *testing.T) {
	const chunk = 1 << 10
	rcv := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d", ChunkSize: chunk})
	conn := pumpedConn(t, rcv)
	x := patterned(2*chunk, 8)
	send := func(msgs ...proto.Msg) {
		t.Helper()
		if err := conn.Send(proto.AppendBatch(nil, msgs)); err != nil {
			t.Fatal(err)
		}
	}
	pay := func(cmd ids.CommandID, data string) *proto.DataPayload {
		return &proto.DataPayload{Job: 1, DstCommand: cmd, Object: 7, Logical: 7, Version: 1, Data: []byte(data)}
	}
	send(&proto.DataChunk{Job: 1, Xfer: 4, Seq: 0, DstCommand: 50, Total: uint64(len(x)), Raw: x[:chunk]})
	send(pay(49, "A"),
		&proto.DataChunk{Job: 1, Xfer: 4, Seq: 1, Last: true, DstCommand: 50, Total: uint64(len(x)), Raw: x[chunk:]},
		pay(51, "B"))
	ev := awaitEvent(t, rcv)
	if ev.kind != evData || len(ev.pays) != 3 {
		t.Fatalf("the frame arrived as event %+v, want one evData of 3 payloads", ev)
	}
	for i, want := range []struct {
		cmd  ids.CommandID
		data []byte
	}{{49, []byte("A")}, {50, x}, {51, []byte("B")}} {
		if got := ev.pays[i].msg; got.DstCommand != want.cmd || !bytes.Equal(got.Data, want.data) {
			t.Fatalf("payload %d is for command %s with %d bytes, want command %s", i, got.DstCommand, len(got.Data), want.cmd)
		}
	}
	expectNoEvent(t, rcv, "a frame already delivered")
}

// spilledPayload makes a payload whose body is on disk, and returns it with
// the file's path.
func spilledPayload(t *testing.T, fs *datastore.SpillFS, p *proto.DataPayload, body []byte) (inPayload, string) {
	t.Helper()
	sw, err := fs.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(body); err != nil {
		t.Fatal(err)
	}
	sp, err := sw.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return inPayload{msg: p, spill: sp}, sp.Path
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// recvBatch is one waiting CopyRecv (plus what it must outwait), spawned as a
// plain batch.
func recvBatch(job ids.JobID, id ids.CommandID, obj ids.ObjectID, before ...ids.CommandID) *proto.SpawnCommands {
	return &proto.SpawnCommands{Job: job, Cmds: []*command.Command{
		{ID: id, Kind: command.CopyRecv, Writes: []ids.ObjectID{obj}, Logical: ids.LogicalID(obj), Before: before},
	}}
}

// A run can carry payloads of several jobs. The one for a torn-down job is
// dropped — its spill file with it, its namespace not resurrected — and the
// one for the live job behind it is delivered.
func TestRunDropsDeadJobsPayloadAndDeliversLiveOnes(t *testing.T) {
	b := NewBenchLoop(1)
	defer b.Close()
	fs, err := datastore.NewSpillFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.Apply(recvBatch(1, 100, 11))
	b.Apply(recvBatch(2, 100, 11))
	b.Apply(&proto.JobEnd{Job: 2})
	dead, path := spilledPayload(t, fs, &proto.DataPayload{Job: 2, DstCommand: 100, Object: 11, Version: 4}, []byte("late"))
	live := inPayload{msg: &proto.DataPayload{Job: 1, DstCommand: 100, Object: 11, Logical: 11, Version: 3, Data: []byte{1}}}
	b.W.handle(&event{kind: evData, pays: []inPayload{dead, live}})
	if o := b.Job(1).store.Get(11); o == nil || o.Version != 3 {
		t.Fatalf("the live job's payload was not installed: %+v", o)
	}
	if !b.Job(1).isDone(100) {
		t.Fatal("the live job's receive did not complete")
	}
	if _, ok := b.W.jobs[2]; ok {
		t.Fatal("a late payload resurrected the torn-down job's namespace")
	}
	if fileExists(path) {
		t.Fatal("the torn-down job's spilled payload left its file behind")
	}
}

// A halt handled between a run's arrival and the run itself: the receive it
// was for is flushed, so the payload installs nothing and touches nothing of
// the flushed state; it waits as a buffered payload, and the next halt (or
// the job's end) removes its spill file.
func TestHaltBeforeRunIsHandledLeavesFlushedStateAlone(t *testing.T) {
	b := NewBenchLoop(1)
	defer b.Close()
	fs, err := datastore.NewSpillFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.Apply(recvBatch(1, 100, 11))
	js := b.Job(1)
	flushed := js.payWait[100]
	if flushed == nil || js.unfin != 1 {
		t.Fatalf("receive not waiting for its payload: unfin = %d", js.unfin)
	}
	ip, path := spilledPayload(t, fs, &proto.DataPayload{Job: 1, DstCommand: 100, Object: 11, Logical: 11, Version: 3}, []byte("body"))
	run := event{kind: evData, pays: []inPayload{ip}}
	done := b.W.Stats.CommandsDone.Load()
	b.Apply(&proto.Halt{Job: 1, Seq: 1})
	b.W.handle(&run)
	if js.store.Get(11) != nil {
		t.Fatal("a payload handled after the halt was installed")
	}
	if flushed.missing != 1 || flushed.state == psDone || js.unfin != 0 || b.W.Stats.CommandsDone.Load() != done {
		t.Fatalf("the run touched flushed state: missing %d state %d unfin %d", flushed.missing, flushed.state, js.unfin)
	}
	if len(js.payloads) != 1 || !fileExists(path) {
		t.Fatalf("the payload is not buffered: %d buffered, file exists = %v", len(js.payloads), fileExists(path))
	}
	b.Apply(&proto.Halt{Job: 1, Seq: 2})
	if len(js.payloads) != 0 || fileExists(path) {
		t.Fatal("halt left a buffered spilled payload behind")
	}
}

// The two arrivals that still go through js.payloads: a payload ahead of its
// CopyRecv, and one whose CopyRecv has another dependency unmet. Both install
// once the command can run; left waiting, their spill files go with halt and
// with the job.
func TestBufferedPayloadsInstallAndAreSweptWithTheirFiles(t *testing.T) {
	spill := func(t *testing.T, job ids.JobID, cmd ids.CommandID, body string) (inPayload, string) {
		fs, err := datastore.NewSpillFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return spilledPayload(t, fs, &proto.DataPayload{Job: job, DstCommand: cmd, Object: 11, Logical: 11, Version: 6}, []byte(body))
	}
	installed := func(t *testing.T, js *jstate, body string) {
		t.Helper()
		o := js.store.Get(11)
		if o == nil || o.Version != 6 || !bytes.Equal(o.Data, []byte(body)) {
			t.Fatalf("payload not installed from its spill file: %+v", o)
		}
		if len(js.payloads) != 0 || len(js.payWait) != 0 {
			t.Fatalf("payload bookkeeping leaked: %d buffered, %d waiting", len(js.payloads), len(js.payWait))
		}
	}
	// The command the receive must outwait: a task on a gate.
	gated := func(b *BenchLoop) (open func()) {
		gate := make(chan struct{})
		b.W.reg.MustRegister(fn.FirstAppFunc, "test/gated", func(*fn.Ctx) error { <-gate; return nil })
		b.Apply(&proto.SpawnCommands{Job: 1, Cmds: []*command.Command{{ID: 99, Kind: command.Task, Function: fn.FirstAppFunc}}})
		return func() { close(gate) }
	}

	t.Run("ahead of its command", func(t *testing.T) {
		b := NewBenchLoop(1)
		defer b.Close()
		ip, _ := spill(t, 1, 100, "early")
		b.W.handle(&event{kind: evData, pays: []inPayload{ip}})
		b.Apply(recvBatch(1, 100, 11))
		installed(t, b.Job(1), "early")
	})
	t.Run("another dependency unmet", func(t *testing.T) {
		b := NewBenchLoop(1)
		defer b.Close()
		open := gated(b)
		b.Apply(recvBatch(1, 100, 11, 99))
		ip, _ := spill(t, 1, 100, "held")
		b.W.handle(&event{kind: evData, pays: []inPayload{ip}})
		js := b.Job(1)
		if js.store.Get(11) != nil || len(js.payloads) != 1 {
			t.Fatalf("payload installed ahead of the receive's dependency (%d buffered)", len(js.payloads))
		}
		open()
		b.Drain()
		installed(t, js, "held")
	})
	t.Run("swept by halt", func(t *testing.T) {
		b := NewBenchLoop(1)
		defer b.Close()
		open := gated(b)
		defer open()
		b.Apply(recvBatch(1, 100, 11, 99))
		held, heldPath := spill(t, 1, 100, "held")
		early, earlyPath := spill(t, 1, 200, "early")
		b.W.handle(&event{kind: evData, pays: []inPayload{held, early}})
		b.Apply(&proto.Halt{Job: 1, Seq: 1})
		if fileExists(heldPath) || fileExists(earlyPath) {
			t.Fatal("halt left buffered spill files behind")
		}
	})
	t.Run("swept by the job's end", func(t *testing.T) {
		b := NewBenchLoop(1)
		defer b.Close()
		open := gated(b)
		defer open()
		b.Apply(recvBatch(1, 100, 11, 99))
		held, heldPath := spill(t, 1, 100, "held")
		early, earlyPath := spill(t, 1, 200, "early")
		b.W.handle(&event{kind: evData, pays: []inPayload{held, early}})
		b.Apply(&proto.JobEnd{Job: 1})
		if fileExists(heldPath) || fileExists(earlyPath) {
			t.Fatal("the job's end left buffered spill files behind")
		}
	})
}

// The receive side's allocation bill for a run of k empty payloads: the k
// decoded messages and the slice that carries them to the loop.
func TestReceivedRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates sync.Pool allocation counts")
	}
	const k = 20
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d"})
	a, b := transport.Pipe(0)
	defer a.Close()
	defer b.Close()
	rx := &rxConn{w: w, conn: a, xfers: make(map[uint64]*rxXfer)}
	msgs := make([]proto.Msg, k)
	for i := range msgs {
		msgs[i] = &proto.DataPayload{Job: 1, DstCommand: ids.CommandID(100 + i), Object: 7, Logical: 7, Version: 2}
	}
	frame := proto.AppendBatch(nil, msgs)
	handle := rx.handleMsg
	receive := func() {
		if err := proto.ForEachMsgAliasChunks(frame, handle); err != nil {
			t.Fatal(err)
		}
		rx.post()
		if ev, ok := w.nextEvent(false); !ok || len(ev.pays) != k {
			t.Fatalf("run arrived as %d payloads, want %d", len(ev.pays), k)
		}
	}
	receive() // size the scratch and the mailbox
	if allocs := testing.AllocsPerRun(100, receive); allocs > k+2 {
		t.Fatalf("a received run of %d empty payloads allocates %v objects, want <= %d", k, allocs, k+2)
	}
}
