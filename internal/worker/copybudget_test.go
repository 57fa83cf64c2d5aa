package worker

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"nimbus/internal/chaos"
	"nimbus/internal/command"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/stream"
	"nimbus/internal/transport"
)

// These tests pin the data plane's copy budget (DESIGN.md "Copy budget"):
// a chunk's payload crosses user space zero times on a vectored sender and
// once on the receiver, and the shortcuts that buy this — sending slices of
// the stored object, decoding Raw as an alias of the frame — cannot corrupt
// what is delivered.

func patterned(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + i>>9 + salt)
	}
	return b
}

// sentFrame is what a recording connection saw of one frame.
type sentFrame struct {
	head []byte // copied: the sender reuses it
	body []byte // the very slice handed over, not a copy
}

// recConn records frames and never delivers anything; Recv blocks until
// Close so the worker's credit pump has something to wait on.
type recConn struct {
	mu     sync.Mutex
	frames []sentFrame
	closed chan struct{}
	once   sync.Once
}

func (c *recConn) Send(b []byte) error {
	c.mu.Lock()
	c.frames = append(c.frames, sentFrame{head: append([]byte(nil), b...)})
	c.mu.Unlock()
	return nil
}

func (c *recConn) Recv() ([]byte, error) {
	<-c.closed
	return nil, transport.ErrClosed
}

func (c *recConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// recVecConn adds the vectored capability to recConn.
type recVecConn struct{ *recConn }

func (c recVecConn) SendVec(head, body []byte) error {
	c.mu.Lock()
	c.frames = append(c.frames, sentFrame{head: append([]byte(nil), head...), body: body})
	c.mu.Unlock()
	return nil
}

// recTransport dials recording connections, vectored or plain.
type recTransport struct {
	vectored bool
	conn     *recConn
}

func (rt *recTransport) Dial(string) (transport.Conn, error) {
	if rt.vectored {
		return recVecConn{rt.conn}, nil
	}
	return rt.conn, nil
}

func (rt *recTransport) Listen(string) (transport.Listener, error) {
	return nil, fmt.Errorf("recTransport does not listen")
}

// streamOne pushes one object through a loop worker's send path to peer 2
// and waits for the deferred CopySend completion.
func streamOne(t *testing.T, w *Worker, addr string, data []byte) {
	t.Helper()
	js := w.job(1)
	js.store.Install(5, 5, 1, data)
	w.peers[2] = addr
	if w.execSend(js, copySendCmd(w, js, 1, 5, 2)) {
		t.Fatal("multi-chunk send completed synchronously")
	}
	awaitSent(t, w)
}

// awaitSent waits for a chunked CopySend's deferred completion.
func awaitSent(t *testing.T, w *Worker) {
	t.Helper()
	for awaitEvent(t, w).kind != evDone {
	}
}

// stopLoopWorker ends a loop worker's writer and pump goroutines.
func stopLoopWorker(w *Worker) {
	w.finish(nil)
	w.closePeers()
	w.wg.Wait()
}

// (a) Over a vectored connection every chunk's body IS a slice of the
// stored object — same address, no sender-side copy — and head‖body is the
// chunk's ordinary encoding.
func TestVectoredSendAliasesObject(t *testing.T) {
	const chunk = 4 << 10
	rt := &recTransport{vectored: true, conn: &recConn{closed: make(chan struct{})}}
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d", Transport: rt, ChunkSize: chunk})
	data := patterned(5*chunk+123, 1)
	streamOne(t, w, "peer", data)
	stopLoopWorker(w)

	frames := rt.conn.frames
	if len(frames) != 6 {
		t.Fatalf("recorded %d frames, want 6", len(frames))
	}
	for i, f := range frames {
		off := i * chunk
		if len(f.body) == 0 || &f.body[0] != &data[off] {
			t.Fatalf("chunk %d: body is not a slice of the object at offset %d — the sender copied it", i, off)
		}
		m, err := proto.Unmarshal(append(append([]byte(nil), f.head...), f.body...))
		if err != nil {
			t.Fatalf("chunk %d: head‖body does not decode: %v", i, err)
		}
		c := m.(*proto.DataChunk)
		if c.Seq != uint32(i) || c.Last != (i == 5) || c.Total != uint64(len(data)) || c.Flags != 0 {
			t.Fatalf("chunk %d decoded as %+v", i, c)
		}
		if !bytes.Equal(f.head, proto.AppendChunkHeader(nil, c)) || !bytes.Equal(c.Raw, f.body) {
			t.Fatalf("chunk %d: header or payload differs from the chunk's encoding", i)
		}
	}
}

// (e, sender half) A connection without the capability gets each chunk as
// one joined frame, byte for byte what marshaling the message produces.
func TestFallbackSendMarshalsWholeChunk(t *testing.T) {
	const chunk = 4 << 10
	rt := &recTransport{conn: &recConn{closed: make(chan struct{})}}
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d", Transport: rt, ChunkSize: chunk})
	data := patterned(3*chunk+7, 2)
	streamOne(t, w, "peer", data)
	stopLoopWorker(w)

	var got []byte
	for i, f := range rt.conn.frames {
		m, err := proto.Unmarshal(f.head)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(f.head, proto.Marshal(m)) {
			t.Fatalf("frame %d is not the chunk's canonical encoding", i)
		}
		got = append(got, m.(*proto.DataChunk).Raw...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("chunks do not concatenate to the object")
	}
}

// pumpPair wires a sending loop worker to a receiving one over tr: the
// receiver runs the real dataPump on whatever the listener accepts, so
// chunks take the production path end to end (send helper, transport,
// aliasing decode, reassembly, credit on the reverse path).
func pumpPair(t *testing.T, tr transport.Transport, listen string, cfg Config) (snd, rcv *Worker, addr string) {
	t.Helper()
	cfg.ControlAddr, cfg.DataAddr, cfg.Transport = "c", "d", tr
	snd, rcv = newLoopWorker(t, cfg), newLoopWorker(t, cfg)
	lis, err := tr.Listen(listen)
	if err != nil {
		t.Fatal(err)
	}
	var conns []transport.Conn
	var mu sync.Mutex
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			rcv.wg.Add(1)
			go rcv.dataPump(conn)
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		stopLoopWorker(snd)
		rcv.finish(nil)
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		rcv.wg.Wait()
	})
	return snd, rcv, lis.Addr()
}

// unread holds, per loop worker, the payloads of the last evData event that
// delivered has not handed out yet: a received frame is one event however
// many payloads it carried.
var unread = map[*Worker][]inPayload{}

// delivered waits for the receiver's next payload — the next one of the
// current run event, or the first of the next event — and returns its body.
func delivered(t *testing.T, rcv *Worker) []byte {
	t.Helper()
	if len(unread[rcv]) == 0 {
		ev := awaitEvent(t, rcv)
		if ev.kind != evData || len(ev.pays) == 0 {
			t.Fatalf("receiver got event %+v, want payloads", ev)
		}
		unread[rcv] = ev.pays
		t.Cleanup(func() { delete(unread, rcv) })
	}
	ip := unread[rcv][0]
	unread[rcv] = unread[rcv][1:]
	if ip.spill != nil {
		t.Fatalf("receiver got a spilled payload for command %s, want it in memory", ip.msg.DstCommand)
	}
	return ip.msg.Data
}

// (e) The chaos wrapper implements only Conn, so it exercises the fallback;
// loopback TCP exercises the gathered write and the pooled Recv. Either way
// the object arrives bit-identical, through more chunks than the initial
// window so credits flow too.
func TestChunkedCopyBitIdenticalAcrossTransports(t *testing.T) {
	const chunk = 8 << 10
	cases := []struct {
		name     string
		tr       transport.Transport
		listen   string
		vectored bool
	}{
		{"chaos-wrapped mem (fallback)", chaos.New(transport.NewMem(0), 7), "peer", false},
		{"mem (fallback, owned)", transport.NewMem(0), "peer", false},
		{"tcp (vectored)", transport.TCP{}, "127.0.0.1:0", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snd, rcv, addr := pumpPair(t, tc.tr, tc.listen, Config{ChunkSize: chunk})
			probe, err := tc.tr.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			_, vec := probe.(transport.VecSender)
			probe.Close()
			if vec != tc.vectored {
				t.Fatalf("dialed conn implements VecSender = %v, want %v", vec, tc.vectored)
			}
			data := patterned(3*stream.InitWindow*chunk+99, 3)
			streamOne(t, snd, addr, data)
			if got := delivered(t, rcv); !bytes.Equal(got, data) {
				t.Fatalf("delivered object differs from source (%d vs %d bytes)", len(got), len(data))
			}
			if got := rcv.rxBytes.Load(); got != 0 {
				t.Fatalf("rxBytes = %d after delivery, want 0", got)
			}
		})
	}
}

// (c) The reassembly buffer is allocated once, at the declared total, and
// every chunk lands in it in place.
func TestReassemblyBufferAllocatedOnce(t *testing.T) {
	const chunk = 1 << 10
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d", ChunkSize: chunk})
	a, b := transport.Pipe(0)
	defer a.Close()
	defer b.Close()
	rx := &rxConn{w: w, conn: a, xfers: make(map[uint64]*rxXfer)}
	data := patterned(4*chunk, 4)
	var base *byte
	for seq := 0; seq < 4; seq++ {
		rx.handleChunk(&proto.DataChunk{Job: 1, Xfer: 3, Seq: uint32(seq), Last: seq == 3,
			DstCommand: 42, Total: uint64(len(data)), Raw: data[seq*chunk : (seq+1)*chunk]})
		if seq == 3 {
			rx.post()
			break // delivered; the transfer's state is gone
		}
		x := rx.xfers[3]
		if cap(x.buf) != len(data) {
			t.Fatalf("after chunk %d cap(buf) = %d, want the declared total %d", seq, cap(x.buf), len(data))
		}
		if seq == 0 {
			base = &x.buf[0]
		} else if &x.buf[0] != base {
			t.Fatalf("chunk %d moved the reassembly buffer", seq)
		}
	}
	got := delivered(t, w)
	if &got[0] != base || !bytes.Equal(got, data) {
		t.Fatal("delivered payload is not the buffer the first chunk allocated, or differs from the source")
	}
}

// (c, hostile) A first chunk declaring an absurd total reserves at most the
// receive budget, and only what landed is charged against it.
func TestHostileTotalPreallocatesAtMostBudget(t *testing.T) {
	const chunk, budget = 1 << 10, 64 << 10
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d", ChunkSize: chunk, RecvBudget: budget})
	a, b := transport.Pipe(0)
	defer a.Close()
	defer b.Close()
	rx := &rxConn{w: w, conn: a, xfers: make(map[uint64]*rxXfer)}
	rx.handleChunk(&proto.DataChunk{Xfer: 8, Total: 1 << 40, Raw: make([]byte, chunk)})
	x := rx.xfers[8]
	if x == nil {
		t.Fatal("first chunk of a large transfer was refused")
	}
	if cap(x.buf) > budget {
		t.Fatalf("hostile total preallocated %d bytes, budget is %d", cap(x.buf), budget)
	}
	if got := w.rxBytes.Load(); got != chunk {
		t.Fatalf("rxBytes = %d, want the %d bytes landed", got, chunk)
	}
	rx.teardown()
	if got := w.rxBytes.Load(); got != 0 {
		t.Fatalf("rxBytes = %d after teardown, want 0", got)
	}
}

// (d) The data pump decodes Raw as a window into the received frame. Each
// chunk must be out of the frame by the time handleChunk returns: scribble
// over every frame right after and the delivered object is still intact.
func TestAliasedChunkSurvivesFrameReuse(t *testing.T) {
	const chunk = 1 << 10
	w := newLoopWorker(t, Config{ControlAddr: "c", DataAddr: "d", ChunkSize: chunk})
	a, b := transport.Pipe(0)
	defer a.Close()
	defer b.Close()
	rx := &rxConn{w: w, conn: a, xfers: make(map[uint64]*rxXfer)}
	data := patterned(4*chunk+5, 5)
	for off, seq := 0, uint32(0); off < len(data); seq++ {
		end := min(off+chunk, len(data))
		frame := proto.Marshal(&proto.DataChunk{Job: 1, Xfer: 2, Seq: seq, Last: end == len(data),
			DstCommand: 42, Total: uint64(len(data)), Raw: data[off:end]})
		err := proto.ForEachMsgAliasChunks(frame, func(m proto.Msg) error {
			c := m.(*proto.DataChunk)
			if &c.Raw[0] != &frame[len(frame)-len(c.Raw)] {
				t.Error("Raw was decoded as a copy; this test no longer covers the aliasing path")
			}
			return rx.handleMsg(c)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			frame[i] = 0xEE
		}
		off = end
	}
	rx.post()
	if got := delivered(t, w); !bytes.Equal(got, data) {
		t.Fatal("delivered object was corrupted by reuse of its frames")
	}
}

// (f) The allocation bill of a TCP shuffle. 64 MiB cross a loopback socket
// as 32 transfers of eight 256 KiB chunks; everything the process allocates
// meanwhile must stay within twice the bytes moved. The one allocation the
// design needs is the receiver's reassembly buffer (1.0x; measured 1.01x,
// up to 1.3x under -race, whose sync.Pool drops puts at random). At the
// parent commit 2d50af8 — marshal into a buffer grown from 1 KiB, make per
// Recv, BytesCopy, reassembly regrown by doubling — this same loop measured
// 6.4x.
func TestTCPShuffleAllocBudget(t *testing.T) {
	const xfers, size = 32, 2 << 20
	snd, rcv, addr := pumpPair(t, transport.TCP{}, "127.0.0.1:0", Config{})
	js := snd.job(1)
	snd.peers[2] = addr
	for i := 0; i < xfers; i++ {
		js.store.Install(ids.ObjectID(i+1), ids.LogicalID(i+1), 1, patterned(size, i))
	}
	send := func(i int) {
		if snd.execSend(js, copySendCmd(snd, js, ids.CommandID(i+1), ids.ObjectID(i+1), 2)) {
			t.Fatal("multi-chunk send completed synchronously")
		}
		got := delivered(t, rcv)
		if want := js.store.Get(ids.ObjectID(i + 1)).Data; !bytes.Equal(got, want) {
			t.Fatalf("transfer %d corrupted", i)
		}
		awaitSent(t, snd)
	}
	send(0) // dial, warm the pools
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i < xfers; i++ {
		send(i)
	}
	runtime.ReadMemStats(&m1)
	moved := uint64((xfers - 1) * size)
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("moved %d MiB, allocated %d MiB (%.2fx)", moved>>20, alloc>>20, float64(alloc)/float64(moved))
	if alloc > 2*moved {
		t.Fatalf("allocated %d bytes moving %d (%.2fx), budget is 2x", alloc, moved, float64(alloc)/float64(moved))
	}
}

// Two real workers on TCP port 0: each must announce the port its listener
// actually bound, or its peer has nowhere to dial. A chunked copy between
// them, then a chunked fetch of the result over the control connection
// (the other vectored sender), both bit-identical.
func TestTCPWorkersOnPortZeroCopyChunked(t *testing.T) {
	tr := transport.TCP{}
	lis, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	const chunk = 16 << 10
	var workers [2]*Worker
	started := make(chan error, len(workers))
	for i := range workers {
		workers[i] = New(Config{
			ControlAddr: lis.Addr(), DataAddr: "127.0.0.1:0", Transport: tr,
			Slots: 2, Registry: fn.NewRegistry(), Logf: t.Logf, ChunkSize: chunk,
		})
		go func(w *Worker) { started <- w.Start() }(workers[i])
	}
	// Play the controller: collect both registrations, then ack each with
	// the full peer map.
	var conns [2]transport.Conn
	peers := map[ids.WorkerID]string{}
	for i := range conns {
		if conns[i], err = lis.Accept(); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
		raw, err := conns[i].Recv()
		if err != nil {
			t.Fatal(err)
		}
		m, err := proto.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		reg, ok := m.(*proto.RegisterWorker)
		if !ok {
			t.Fatalf("first message = %s", m.Kind())
		}
		host, port, err := net.SplitHostPort(reg.DataAddr)
		if err != nil || host != "127.0.0.1" || port == "0" {
			t.Fatalf("worker announced data address %q, want 127.0.0.1 and the bound port", reg.DataAddr)
		}
		peers[ids.WorkerID(i+1)] = reg.DataAddr
	}
	send := func(i int, m proto.Msg) {
		t.Helper()
		if err := conns[i].Send(proto.Marshal(m)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range conns {
		send(i, &proto.RegisterWorkerAck{Worker: ids.WorkerID(i + 1), Peers: peers})
		if err := <-started; err != nil {
			t.Fatalf("worker start: %v", err)
		}
	}
	defer workers[0].Stop()
	defer workers[1].Stop()

	data := patterned(5*chunk+321, 6)
	send(0, &proto.SpawnCommands{Job: 1, Cmds: []*command.Command{
		{ID: 1, Kind: command.Create, Writes: []ids.ObjectID{5}, Logical: 5, Params: data},
		{ID: 2, Kind: command.CopySend, Reads: []ids.ObjectID{5}, Logical: 5,
			DstWorker: 2, DstCommand: 77, Before: []ids.CommandID{1}},
	}})
	send(1, &proto.SpawnCommands{Job: 1, Cmds: []*command.Command{
		{ID: 77, Kind: command.CopyRecv, Writes: []ids.ObjectID{6}, Logical: 5},
	}})
	// Everything worker 2 says from here on: the copy's completion, then
	// the fetched object as a ChunkFetch run.
	recv := func() proto.Msg {
		t.Helper()
		type res struct {
			m   proto.Msg
			err error
		}
		ch := make(chan res, 1)
		go func() {
			raw, err := conns[1].Recv()
			if err != nil {
				ch <- res{err: err}
				return
			}
			m, err := proto.Unmarshal(raw)
			ch <- res{m, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatal(r.err)
			}
			return r.m
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for worker 2")
			return nil
		}
	}
	for done := false; !done; {
		if c, ok := recv().(*proto.Complete); ok {
			for _, id := range c.IDs {
				done = done || id == 77
			}
		}
	}
	send(1, &proto.FetchObject{Job: 1, Seq: 9, Object: 6})
	ra := stream.Reassembler{Total: uint64(len(data)), ChunkSize: chunk}
	var got []byte
	for last := false; !last; {
		c, ok := recv().(*proto.DataChunk)
		if !ok {
			continue
		}
		if c.Flags != proto.ChunkFetch || c.Fetch != 9 {
			t.Fatalf("fetch reply chunk %+v, want ChunkFetch for seq 9", c)
		}
		ra.Xfer = c.Xfer
		piece, err := ra.Accept(c)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, piece...)
		last = c.Last
	}
	if !bytes.Equal(got, data) {
		t.Fatal("object fetched from the receiving worker differs from what the sender created")
	}
	// Connections were accepted in no particular order, so which Worker
	// value is worker 2 is unknown; exactly one of them received.
	if n := workers[0].Stats.XfersRecv.Load() + workers[1].Stats.XfersRecv.Load(); n != 1 {
		t.Fatalf("XfersRecv = %d, want 1: the object did not arrive as a chunked transfer", n)
	}
}

// The small-object path asks the pool for len(Data)+payloadHeadroom bytes so
// the marshal never regrows the buffer; the headroom must cover the largest
// header a DataPayload can have.
func TestPayloadHeadroomCoversLargestHeader(t *testing.T) {
	data := make([]byte, 1<<20)
	p := &proto.DataPayload{
		Job: ^ids.JobID(0), DstCommand: ^ids.CommandID(0), Object: ^ids.ObjectID(0),
		Logical: ^ids.LogicalID(0), Version: ^uint64(0), Data: data,
	}
	if over := len(proto.Marshal(p)) - len(data); over > payloadHeadroom {
		t.Fatalf("a DataPayload header can take %d bytes, payloadHeadroom is %d", over, payloadHeadroom)
	}
}
