package worker

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/datastore"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/stream"
	"nimbus/internal/transport"
)

// newLoopWorker builds a worker whose event loop is driven by the test
// itself (no Start, no controller): the test plays the event loop, so it
// may call event-loop-confined methods directly.
func newLoopWorker(t *testing.T, cfg Config) *Worker {
	t.Helper()
	if cfg.Transport == nil {
		cfg.Transport = transport.NewMem(0)
	}
	cfg.Registry = fn.NewRegistry()
	cfg.Logf = t.Logf
	w := New(cfg)
	w.id = 1
	w.ctrl, _ = transport.Pipe(0) // so finish can stop it
	return w
}

// awaitEvent returns the next event posted to a loop worker — one with no
// run goroutine, the test standing in for the loop — and fails the test if
// none arrives in time.
func awaitEvent(t *testing.T, w *Worker) event {
	t.Helper()
	timeout := time.AfterFunc(10*time.Second, w.mbox.Close)
	defer timeout.Stop()
	ev, ok := w.nextEvent(true)
	if !ok {
		t.Fatal("no event posted within 10 s")
	}
	return ev
}

// expectNoEvent fails the test if anything is waiting in the mailbox.
func expectNoEvent(t *testing.T, w *Worker, what string) {
	t.Helper()
	if ev, ok := w.nextEvent(false); ok {
		t.Fatalf("%s delivered an event: %+v", what, ev)
	}
}

// copySendCmd builds an in-flight CopySend pcmd against a fresh unit.
func copySendCmd(w *Worker, js *jstate, id ids.CommandID, obj ids.ObjectID, dst ids.WorkerID) *pcmd {
	u := w.getUnit(js, 1)
	pc := &u.pcs[0]
	pc.cmd = command.Command{
		ID:         id,
		Kind:       command.CopySend,
		Reads:      []ids.ObjectID{obj},
		DstWorker:  dst,
		DstCommand: id + 1000,
		Logical:    ids.LogicalID(obj),
	}
	pc.unit = u
	pc.epoch = js.haltEpoch
	pc.local = -1
	return pc
}

// TestPeerConnConcurrentRace hammers one peerConn from concurrent
// producers, a consumer, a credit granter and a closer under -race.
func TestPeerConnConcurrentRace(t *testing.T) {
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d", PeerQueueBytes: 1 << 16})
	pc := newPeerConn(w, 2, "peer")
	pc.stages = true // producers extend runs while the consumer pops them
	drained := make(chan struct{})
	go func() { // drain evPeerSpace posts so postSpace never blocks
		defer close(drained)
		for {
			if _, ok := w.nextEvent(true); !ok {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &proto.DataPayload{Job: 1, Data: make([]byte, 64)}
			for i := 0; i < 2000; i++ {
				pc.enqueuePayload(p)
			}
		}()
	}
	wg.Add(1)
	go func() { // consumer
		defer wg.Done()
		for {
			it, ok := pc.next(true)
			if !ok {
				return
			}
			proto.PutBuf(it.run)
			pc.release(it.size)
		}
	}()
	wg.Add(1)
	go func() { // credit traffic against the window state
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			pc.beginXfer(uint64(i))
			pc.grant(uint64(i), 3)
			pc.abortXfer(uint64(i), "test")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	pc.close()
	wg.Wait()
	pc.markDead()
	if got := pc.enqueuePayload(&proto.DataPayload{}); got != admitDead {
		t.Fatalf("enqueue after close/dead = %v, want admitDead", got)
	}
	w.finish(nil)
	<-drained
}

// TestPeerSendAfterWriterExit is the satellite bugfix check: a peerConn
// whose writer goroutine has exited must reject further sends (recycling
// their frames) and count them as drops, not accept frames into a queue
// nobody will ever drain.
func TestPeerSendAfterWriterExit(t *testing.T) {
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d"})
	pc := newPeerConn(w, 2, "peer")
	w.peers[2] = "peer"
	w.peerConns[2] = pc
	pc.markDead() // what the writer's defer does on exit

	js := w.job(1)
	js.store.Install(5, 5, 1, []byte("small"))
	snd := copySendCmd(w, js, 1, 5, 2)
	if !w.execSend(js, snd) {
		t.Fatal("send to dead conn should complete (as a drop), not park")
	}
	if got := w.Stats.PeerSendDrops.Load(); got != 1 {
		t.Fatalf("PeerSendDrops = %d, want 1", got)
	}
}

// TestPeerSendNoAddress: a CopySend with no data-plane address for the
// destination completes as a counted drop (the old path dropped the
// payload silently with nothing in Stats).
func TestPeerSendNoAddress(t *testing.T) {
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d"})
	js := w.job(1)
	js.store.Install(5, 5, 1, []byte("small"))
	if !w.execSend(js, copySendCmd(w, js, 1, 5, 7)) {
		t.Fatal("send with no peer address should complete as a drop")
	}
	if got := w.Stats.PeerSendDrops.Load(); got != 1 {
		t.Fatalf("PeerSendDrops = %d, want 1", got)
	}
}

// TestCreditOverflowClamped: hostile credit grants (uint32 max, repeated)
// cannot open the sender's window past MaxWindow.
func TestCreditOverflowClamped(t *testing.T) {
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d"})
	pc := newPeerConn(w, 2, "peer")
	pc.beginXfer(1)
	pc.grant(1, math.MaxUint32)
	pc.grant(1, math.MaxUint32)
	pc.mu.Lock()
	win := pc.window
	pc.mu.Unlock()
	if win != stream.MaxWindow {
		t.Fatalf("window = %d, want clamp at %d", win, stream.MaxWindow)
	}
	// Credit for a transfer that is not current is dropped entirely.
	pc.beginXfer(2)
	pc.grant(1, 50)
	pc.mu.Lock()
	win = pc.window
	pc.mu.Unlock()
	if win != stream.InitWindow {
		t.Fatalf("window after stale grant = %d, want %d", win, stream.InitWindow)
	}
}

// TestStalledReceiverBoundsSender is the flow-control acceptance check: a
// receiver that grants no credit stalls the sender at InitWindow chunks,
// a second large send parks instead of growing the queue, and granting
// credit drains everything.
func TestStalledReceiverBoundsSender(t *testing.T) {
	tr := transport.NewMem(0)
	lis, err := tr.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	const chunk = 4 << 10
	const chunks = 16
	w := newLoopWorker(t, Config{
		ControlAddr: "c", DataAddr: "d", Transport: tr,
		ChunkSize: chunk,
		// Budget fits one transfer, not two: the second send must park.
		PeerQueueBytes: chunk * chunks,
	})

	var chunksSeen atomic.Int64
	var crediting atomic.Bool
	var connMu sync.Mutex
	var peerSide transport.Conn
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		connMu.Lock()
		peerSide = conn
		connMu.Unlock()
		for {
			raw, err := conn.Recv()
			if err != nil {
				return
			}
			proto.ForEachMsg(raw, func(m proto.Msg) error {
				if c, ok := m.(*proto.DataChunk); ok {
					chunksSeen.Add(1)
					if crediting.Load() && !c.Last {
						conn.Send(proto.Marshal(&proto.DataCredit{Xfer: c.Xfer, Chunks: 1}))
					}
				}
				return nil
			})
			proto.PutBuf(raw)
		}
	}()

	js := w.job(1)
	data1 := bytes.Repeat([]byte{1}, chunk*chunks)
	data2 := bytes.Repeat([]byte{2}, chunk*chunks)
	js.store.Install(5, 5, 1, data1)
	js.store.Install(6, 6, 1, data2)
	w.peers[2] = "peer"

	snd1 := copySendCmd(w, js, 1, 5, 2)
	snd2 := copySendCmd(w, js, 2, 6, 2)
	if w.execSend(js, snd1) {
		t.Fatal("large send completed synchronously")
	}
	if w.execSend(js, snd2) {
		t.Fatal("second large send should park, not complete")
	}
	if got := w.Stats.ParkedSends.Load(); got != 1 {
		t.Fatalf("ParkedSends = %d, want 1", got)
	}

	// With no credit the sender must stop at the initial window.
	deadline := time.Now().Add(2 * time.Second)
	for chunksSeen.Load() < stream.InitWindow && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // would overrun here if uncontrolled
	if got := chunksSeen.Load(); got != stream.InitWindow {
		t.Fatalf("receiver saw %d chunks while stalled, want %d", got, stream.InitWindow)
	}

	// Open the window: everything drains, the parked send retries through
	// the evPeerSpace the writer posts, and both transfers complete.
	crediting.Store(true)
	connMu.Lock()
	conn := peerSide
	connMu.Unlock()
	if err := conn.Send(proto.Marshal(&proto.DataCredit{Xfer: snd1xfer(w), Chunks: chunks})); err != nil {
		t.Fatal(err)
	}

	done := map[ids.CommandID]bool{}
	for len(done) < 2 {
		switch ev := awaitEvent(t, w); ev.kind {
		case evDone:
			done[ev.cmd.cmd.ID] = true
		case evPeerSpace:
			w.retryParked(ev.peer)
		}
	}
	// evDone means the writer handed the last chunk to the transport; the
	// receiver counts asynchronously, so poll for the tail to land.
	deadline = time.Now().Add(2 * time.Second)
	for chunksSeen.Load() < 2*chunks && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := chunksSeen.Load(); got != 2*chunks {
		t.Fatalf("receiver saw %d chunks, want %d", got, 2*chunks)
	}
	if got := w.Stats.XfersSent.Load(); got != 2 {
		t.Fatalf("XfersSent = %d, want 2", got)
	}
	w.finish(nil) // unblock the writer goroutines for Cleanup
}

// snd1xfer returns the transfer ID the first execSend allocated (the
// event loop allocates sequentially from 1).
func snd1xfer(w *Worker) uint64 { return 1 }

// TestReceiverSpillsOverBudget drives the receive pump directly: chunks
// past the worker's receive budget switch the transfer to a spill file,
// and the delivered payload carries the spill handle with the body
// bit-identical on fault-in.
func TestReceiverSpillsOverBudget(t *testing.T) {
	const chunk = 1 << 10
	w := newLoopWorker(t, Config{
		ControlAddr: "c", DataAddr: "d",
		ChunkSize:  chunk,
		RecvBudget: 2 * chunk, // third chunk tips every transfer to disk
	})
	fs, err := datastore.NewSpillFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.spill = fs

	a, b := transport.Pipe(0)
	defer a.Close()
	defer b.Close()
	rx := &rxConn{w: w, conn: a, xfers: make(map[uint64]*rxXfer)}

	data := make([]byte, 8*chunk)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for off, seq := 0, uint32(0); off < len(data); seq++ {
		end := off + chunk
		rx.handleChunk(&proto.DataChunk{
			Job: 1, Xfer: 3, Seq: seq, Last: end == len(data),
			DstCommand: 42, Object: 9, Logical: 9, Version: 2,
			Total: uint64(len(data)), Raw: data[off:end],
		})
		off = end
	}
	rx.post()
	if got := w.Stats.Spills.Load(); got != 1 {
		t.Fatalf("Spills = %d, want 1", got)
	}
	expectDelivery(t, w, data, true)
	if got := w.rxBytes.Load(); got != 0 {
		t.Fatalf("rxBytes = %d after delivery, want 0", got)
	}
	// Credits for the receiver's window replenishment went out on the
	// reverse path.
	if raw, err := b.Recv(); err != nil {
		t.Fatal(err)
	} else {
		m, err := proto.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := m.(*proto.DataCredit); !ok || c.Xfer != 3 {
			t.Fatalf("reverse path sent %v, want DataCredit for xfer 3", m)
		}
	}
}

// TestReceiverHostileChunks covers the rx state machine against hostile
// input the stream package cannot see alone: a mid-stream chunk for an
// unknown transfer, and a sequence gap on a live transfer — both must
// abort with XferAbort and drop state, never deliver.
func TestReceiverHostileChunks(t *testing.T) {
	const chunk = 1 << 10
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d", ChunkSize: chunk})
	a, b := transport.Pipe(0)
	defer a.Close()
	defer b.Close()
	rx := &rxConn{w: w, conn: a, xfers: make(map[uint64]*rxXfer)}

	expectAbort := func(wantXfer uint64) {
		t.Helper()
		raw, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		m, err := proto.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		ab, ok := m.(*proto.XferAbort)
		if !ok || ab.Xfer != wantXfer {
			t.Fatalf("reverse path sent %v, want XferAbort for %d", m, wantXfer)
		}
	}

	// Unknown transfer mid-stream.
	rx.handleChunk(&proto.DataChunk{Xfer: 9, Seq: 3, Total: 4 * chunk, Raw: make([]byte, chunk)})
	expectAbort(9)
	if len(rx.xfers) != 0 {
		t.Fatal("unknown-transfer chunk created state")
	}

	// Live transfer, then a gap.
	rx.handleChunk(&proto.DataChunk{Xfer: 4, Seq: 0, Total: 4 * chunk, Raw: make([]byte, chunk)})
	rx.handleChunk(&proto.DataChunk{Xfer: 4, Seq: 2, Total: 4 * chunk, Raw: make([]byte, chunk)})
	expectAbort(4)
	if len(rx.xfers) != 0 {
		t.Fatal("gap did not drop transfer state")
	}
	if got := w.rxBytes.Load(); got != 0 {
		t.Fatalf("rxBytes = %d after aborts, want 0", got)
	}
	if got := w.Stats.RxAborts.Load(); got != 2 {
		t.Fatalf("RxAborts = %d, want 2", got)
	}
	rx.post()
	expectNoEvent(t, w, "hostile chunks")
}

// TestSmallSendAllocCeiling pins the small-object fast path's allocation
// bill at nothing: the payload is marshaled from the loop's scratch message
// into a pooled buffer, with no transfer or credit bookkeeping.
func TestSmallSendAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates sync.Pool allocation counts")
	}
	w, pc, js := writerlessPeer(t, Config{})
	js.store.Install(5, 5, 1, bytes.Repeat([]byte{3}, 512))
	snd := copySendCmd(w, js, 1, 5, 2)

	// Warm the buffer pool.
	for i := 0; i < 8; i++ {
		if !w.execSend(js, snd) {
			t.Fatal("small send did not complete synchronously")
		}
		it, _ := pc.next(true)
		proto.PutBuf(it.run)
		pc.release(it.size)
	}
	allocs := testing.AllocsPerRun(200, func() {
		w.execSend(js, snd)
		it, _ := pc.next(true)
		proto.PutBuf(it.run)
		pc.release(it.size)
	})
	if allocs > 0 {
		t.Fatalf("small-object send path allocs/op = %v, want 0", allocs)
	}
}

// TestWorkerChunkedCopyEndToEnd runs a single worker against the fake
// controller and a fake peer receiver: a CopySend of a multi-chunk object
// streams as DataChunk frames that reassemble bit-identically.
func TestWorkerChunkedCopyEndToEnd(t *testing.T) {
	fc := startWorkerHarness(t)
	w := fc.w

	// A second worker's data plane, played by the test.
	lis, err := w.cfg.Transport.Listen("data/2")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	type result struct {
		data []byte
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			resc <- result{err: err}
			return
		}
		var ra *stream.Reassembler
		var buf []byte
		for {
			raw, err := conn.Recv()
			if err != nil {
				resc <- result{err: err}
				return
			}
			done := false
			err = proto.ForEachMsg(raw, func(m proto.Msg) error {
				c, ok := m.(*proto.DataChunk)
				if !ok {
					return fmt.Errorf("unexpected %s on data plane", m.Kind())
				}
				if ra == nil {
					ra = &stream.Reassembler{Xfer: c.Xfer, Total: c.Total, ChunkSize: w.chunkSize}
				}
				piece, err := ra.Accept(c)
				if err != nil {
					return err
				}
				buf = append(buf, piece...)
				if !c.Last {
					conn.Send(proto.Marshal(&proto.DataCredit{Xfer: c.Xfer, Chunks: 1}))
				} else {
					done = true
				}
				return nil
			})
			proto.PutBuf(raw)
			if err != nil {
				resc <- result{err: err}
				return
			}
			if done {
				resc <- result{data: buf}
				return
			}
		}
	}()

	// Tell the worker about the peer, install the object, send it.
	fc.send(&proto.RegisterWorkerAck{Worker: 1, Peers: map[ids.WorkerID]string{2: "data/2"}})
	data := make([]byte, 3*w.chunkSize+123)
	for i := range data {
		data[i] = byte(i * 13)
	}
	fc.send(&proto.SpawnCommands{Job: 1, Cmds: []*command.Command{
		{ID: 1, Kind: command.Create, Writes: []ids.ObjectID{5}, Logical: 5, Params: data},
		{ID: 2, Kind: command.CopySend, Reads: []ids.ObjectID{5}, Logical: 5,
			DstWorker: 2, DstCommand: 77, Before: []ids.CommandID{1}},
	}})

	select {
	case res := <-resc:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if !bytes.Equal(res.data, data) {
			t.Fatal("reassembled object differs from source")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chunked copy never arrived")
	}
	// The CopySend completes only after the writer streamed the last
	// chunk (deferred completion).
	fc.recvUntil(5*time.Second, func(m proto.Msg) bool {
		c, ok := m.(*proto.Complete)
		if !ok {
			return false
		}
		for _, id := range c.IDs {
			if id == 2 {
				return true
			}
		}
		return false
	})
	if got := w.Stats.XfersSent.Load(); got != 1 {
		t.Fatalf("XfersSent = %d, want 1", got)
	}
}
