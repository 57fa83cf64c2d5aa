package worker

import (
	"sync"

	"nimbus/internal/bufpool"
	"nimbus/internal/datastore"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/stream"
	"nimbus/internal/transport"
)

// This file is the sender side of the streaming data plane. Workers
// exchange data directly — the controller is never on the data path
// (control-plane requirement 2, paper §3.1) — and copy commands use
// asynchronous I/O so they never block a worker thread (§3.4). Three
// disciplines keep that asynchrony bounded:
//
//   - The per-peer queue is byte-accounted and bounded. A send into a full
//     queue does not block the event loop and does not copy anything: the
//     CopySend command parks, holding only its pcmd, and is retried when
//     the writer drains below the low-water mark (evPeerSpace).
//
//   - Objects larger than one chunk stream as DataChunk runs under a
//     credit window granted by the receiver (DataCredit on the reverse
//     path of the same connection), so a slow receiver stalls the writer
//     goroutine, not the event loop, and sender memory stays bounded by
//     the queue cap — the queue holds a reference to the object's buffer,
//     never a second copy.
//
//   - A chunked CopySend completes only after its last chunk is handed to
//     the transport (the writer posts evDone). Until then the object's
//     buffer is shared with the store, which is safe because before sets
//     order any writer of the object after the copy's completion.
//
// Small copies travel in runs. On a connection with a stage
// (transport.BufferedSender: TCP, and Mem, whose stage holds nothing) a small
// CopySend is marshaled straight onto the run at the queue's tail — one
// pooled buffer of back-to-back messages — and the writer is woken only if
// it sleeps. The run closes when it reaches runCap bytes, when a chunked
// transfer queues behind it, or when the writer pops it; the writer frames
// it (proto.FrameRun: a batch, or the bare message when it is alone) and
// hands it to the connection as one frame. A copy into an idle queue
// therefore leaves at once, alone, and copies queued faster than the writer
// drains them — the LR block's 435 per iteration — leave a run at a time.
// There is no timer and no size knob: a run is whatever was admitted while
// the writer was busy. A connection without a stage (chaos, counting and
// tracing wrappers) gets one frame per copy: their fault schedules and frame
// counts are pinned per copy.
//
// Frames leave by one rule: write while the queue has more, flush before
// anything that can block. The writer stages each frame on the connection
// (transport.SendBuffered) and flushes when it finds the queue empty, before
// it starts a chunked transfer (which waits on credit), and before it exits;
// a redial writes off whatever the dead connection still held.

// peerItem is one queue entry: a run of small payloads (each at most one
// chunk), or a chunked transfer descriptor.
type peerItem struct {
	run   []byte // count DataPayloads marshaled back to back, in a pooled buffer
	count uint64
	xfer  *txXfer
	size  int64
}

// runCap closes a run: a copy that would take it past this many bytes opens
// the next one. It keeps a run inside a TCP connection's 64 KiB stage and its
// buffer in the pool's small class.
const runCap = 16 << 10

// txXfer describes one outbound chunked transfer. hdr carries the routing
// fields every chunk repeats; data is shared with the datastore object.
type txXfer struct {
	hdr  proto.DataChunk
	data []byte
	done *pcmd // CopySend to complete once the last chunk is sent
}

// payloadHeadroom bounds a DataPayload's encoding beyond its Data: the kind
// byte, five varint routing fields and the length prefix.
const payloadHeadroom = 64

// admission results of peerConn.enqueue.
type admit uint8

const (
	admitOK   admit = iota
	admitFull       // queue over its byte budget; park the sender
	admitDead       // writer exited or queue closed; count a drop
)

// awaitCredit results.
const (
	creditOK      = iota
	creditAborted // receiver aborted the transfer; skip its remaining chunks
	creditClosed  // worker stopping
)

// peerConn is the asynchronous outbound data-plane connection to one peer
// worker: a bounded queue drained by a writer goroutine.
//
// The queue is consumed head-index-first with slot clearing (same
// discipline as the scheduler's runnable ring), so drained entries pin
// nothing; when it empties, head and length reset to reuse the backing
// array.
type peerConn struct {
	w    *Worker
	dst  ids.WorkerID
	addr string

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []peerItem
	head    int
	pending int64 // bytes admitted and not yet released by the writer
	closed  bool
	dead    bool // writer goroutine exited; sends are rejected
	notify  bool // a parked sender wants an evPeerSpace when space frees
	asleep  bool // the writer is in next's Wait and nobody has signalled it yet
	// stages says the current connection has a stage
	// (transport.BufferedSender), which is what lets copies share a frame.
	// The writer sets it under mu when it dials and is the only goroutine
	// that reads it without.
	stages bool

	// Credit window for the transfer the writer is currently streaming.
	// The writer sets it (beginXfer) and consumes it (awaitCredit); the
	// creditPump goroutine refills it from the receiver's DataCredit
	// frames and flags XferAbort.
	curXfer uint64
	window  int64
	aborted bool

	// Writer-goroutine confined: the current connection, how many payloads
	// it holds staged — what a failure now would lose — and the chunk-header
	// scratch sendXfer re-encodes into (a header is under 100 bytes).
	conn      transport.Conn
	staged    uint64
	chunkHead []byte

	// parked holds CopySend commands waiting for queue space. Event-loop
	// confined: only sendPeer appends and retryParked drains.
	parked []*pcmd
}

func newPeerConn(w *Worker, dst ids.WorkerID, addr string) *peerConn {
	pc := &peerConn{w: w, dst: dst, addr: addr}
	pc.cond = sync.NewCond(&pc.mu)
	return pc
}

// admitLocked checks n more bytes against the byte budget. An over-budget
// queue rejects with admitFull — unless it is empty, so a single item larger
// than the whole budget still moves.
func (pc *peerConn) admitLocked(n int64) admit {
	if pc.closed || pc.dead {
		return admitDead
	}
	if pc.pending > 0 && pc.pending+n > pc.w.peerQueueBytes {
		pc.notify = true
		return admitFull
	}
	return admitOK
}

// wakeLocked wakes the writer if it sleeps on an empty queue. A writer that
// is busy finds what was queued when it comes back, without a signal.
func (pc *peerConn) wakeLocked() {
	if pc.asleep {
		pc.asleep = false
		pc.cond.Broadcast()
	}
}

// enqueueXfer admits one chunked transfer, which also closes the run ahead
// of it. A rejected caller keeps the transfer.
func (pc *peerConn) enqueueXfer(t *txXfer) admit {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	size := int64(len(t.data))
	a := pc.admitLocked(size)
	if a == admitOK {
		pc.pending += size
		pc.queue = append(pc.queue, peerItem{xfer: t, size: size})
		pc.wakeLocked()
	}
	return a
}

// enqueuePayload admits one small payload, marshaling it onto the open run at
// the queue's tail or, when there is none — no stage, an empty queue, a
// transfer at the tail, a run at its cap — into a run of its own. Nothing is
// marshaled that is not admitted: the budget check uses the payload's size
// bound, the budget is charged what the encoding took.
func (pc *peerConn) enqueuePayload(p *proto.DataPayload) admit {
	need := len(p.Data) + payloadHeadroom
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if a := pc.admitLocked(int64(need)); a != admitOK {
		return a
	}
	n := len(pc.queue)
	if !pc.stages || n == pc.head || pc.queue[n-1].xfer != nil || len(pc.queue[n-1].run)+need > runCap {
		pc.queue = append(pc.queue, peerItem{run: bufpool.GetLen(need)[:0]})
		n++
	}
	it := &pc.queue[n-1]
	before := len(it.run)
	it.run = proto.MarshalAppend(it.run, p)
	it.count++
	grew := int64(len(it.run) - before)
	it.size += grew
	pc.pending += grew
	pc.wakeLocked()
	return admitOK
}

// next pops the head of the queue. With wait it blocks until there is an
// item or the queue closes; without, an empty queue returns false at once —
// the writer's cue to flush before it sleeps.
func (pc *peerConn) next(wait bool) (peerItem, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for wait && pc.head == len(pc.queue) && !pc.closed {
		pc.asleep = true
		pc.cond.Wait()
	}
	pc.asleep = false
	if pc.head == len(pc.queue) {
		return peerItem{}, false
	}
	it := pc.queue[pc.head]
	pc.queue[pc.head] = peerItem{} // do not pin the item once popped
	pc.head++
	if pc.head == len(pc.queue) {
		// Drained: reuse the backing array from the start.
		pc.queue = pc.queue[:0]
		pc.head = 0
	}
	return it, true
}

// release returns an item's bytes to the budget once the writer is done
// with it, waking parked senders through the event loop when the queue
// drains below the low-water mark.
func (pc *peerConn) release(n int64) {
	pc.mu.Lock()
	pc.pending -= n
	post := pc.notify && pc.pending <= pc.w.peerQueueBytes/2
	if post {
		pc.notify = false
	}
	pc.mu.Unlock()
	if post {
		pc.postSpace()
	}
}

func (pc *peerConn) postSpace() {
	pc.w.mbox.Put(event{kind: evPeerSpace, peer: pc})
}

// close shuts the queue to new sends. What it has admitted still leaves:
// a small CopySend completes at admission, so the controller can count a
// draining worker's copies done — and decommission it — while their frames
// wait here. The writer sends them and then exits (next reports false only
// on an empty queue); markDead recycles what a failed connection strands.
func (pc *peerConn) close() {
	pc.mu.Lock()
	pc.closed = true
	pc.cond.Broadcast()
	pc.mu.Unlock()
}

// markDead rejects all sends after the writer goroutine exits and flushes
// what it left behind. The evPeerSpace nudge makes parked senders retry
// immediately, resolving them as counted drops instead of waiting forever
// on a queue nobody drains.
func (pc *peerConn) markDead() {
	pc.mu.Lock()
	pc.dead = true
	pc.drainLocked()
	pc.cond.Broadcast()
	pc.mu.Unlock()
	pc.postSpace()
}

func (pc *peerConn) drainLocked() {
	for i := pc.head; i < len(pc.queue); i++ {
		if r := pc.queue[i].run; r != nil {
			proto.PutBuf(r)
		}
		pc.queue[i] = peerItem{}
	}
	pc.queue = pc.queue[:0]
	pc.head = 0
	pc.pending = 0
}

// beginXfer resets the credit window for a transfer (also after a redial
// restart, discarding credit granted by the previous connection's
// receiver state).
func (pc *peerConn) beginXfer(x uint64) {
	pc.mu.Lock()
	pc.curXfer = x
	pc.window = stream.InitWindow
	pc.aborted = false
	pc.mu.Unlock()
}

// awaitCredit blocks the writer until the receiver's window admits the
// next chunk.
func (pc *peerConn) awaitCredit() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for pc.window <= 0 && !pc.closed && !pc.aborted {
		pc.cond.Wait()
	}
	if pc.closed {
		return creditClosed
	}
	if pc.aborted {
		return creditAborted
	}
	pc.window--
	return creditOK
}

// grant applies a DataCredit. Credit for a transfer that is not current
// (already finished, or not yet started after a redial) is dropped, and
// the accumulated window is clamped so a hostile receiver granting absurd
// credit cannot unbound the sender.
func (pc *peerConn) grant(x uint64, n uint32) {
	pc.mu.Lock()
	if x == pc.curXfer && !pc.aborted {
		pc.window += int64(n)
		if pc.window > stream.MaxWindow {
			pc.window = stream.MaxWindow
		}
		pc.cond.Broadcast()
	}
	pc.mu.Unlock()
}

func (pc *peerConn) abortXfer(x uint64, reason string) {
	pc.mu.Lock()
	hit := x == pc.curXfer && !pc.aborted
	if hit {
		pc.aborted = true
		pc.cond.Broadcast()
	}
	pc.mu.Unlock()
	if hit {
		pc.w.cfg.Logf("worker %s: peer %s aborted transfer %d: %s", pc.w.id, pc.dst, x, reason)
	}
}

// sendPeer routes one CopySend's object to a peer worker, dialing its
// data-plane address on first use. It reports whether the command
// completed synchronously: a payload of at most one chunk completes at
// admission (it is snapshotted into the queue), a chunked transfer
// completes when the writer finishes streaming it (evDone), and a send
// into a full queue parks the command until space frees (evPeerSpace).
func (w *Worker) sendPeer(dst ids.WorkerID, snd *pcmd, obj *datastore.Object) bool {
	c := &snd.cmd
	pc, ok := w.peerConns[dst]
	if !ok {
		addr, have := w.peers[dst]
		if !have {
			w.cfg.Logf("worker %s: no data-plane address for peer %s, dropping copy-send %s", w.id, dst, c.ID)
			w.Stats.PeerSendDrops.Add(1)
			return true
		}
		pc = newPeerConn(w, dst, addr)
		w.peerConns[dst] = pc
		w.wg.Add(1)
		go w.peerWriter(pc)
	}
	js := snd.unit.js
	if len(obj.Data) <= w.chunkSize {
		// Small-object fast path: one DataPayload, no transfer or credit
		// bookkeeping, marshaled from the loop's scratch message into the
		// queue's buffer — the object's only copy on this side.
		w.dpMsg = proto.DataPayload{
			Job:        js.id,
			DstCommand: c.DstCommand,
			Object:     c.Reads[0],
			Logical:    c.Logical,
			Version:    obj.Version,
			Data:       obj.Data,
		}
		a := pc.enqueuePayload(&w.dpMsg)
		w.dpMsg.Data = nil // the scratch must not pin the object
		switch a {
		case admitOK:
			w.Stats.CopiesSent.Add(1)
			return true
		case admitFull:
			pc.parked = append(pc.parked, snd)
			w.Stats.ParkedSends.Add(1)
			return false
		default:
			w.Stats.PeerSendDrops.Add(1)
			return true
		}
	}
	w.xferSeq++
	t := &txXfer{
		hdr: proto.DataChunk{
			Job:        js.id,
			Xfer:       w.xferSeq,
			DstCommand: c.DstCommand,
			Object:     c.Reads[0],
			Logical:    c.Logical,
			Version:    obj.Version,
			Total:      uint64(len(obj.Data)),
		},
		data: obj.Data,
		done: snd,
	}
	switch pc.enqueueXfer(t) {
	case admitOK:
		w.Stats.CopiesSent.Add(1)
		return false
	case admitFull:
		pc.parked = append(pc.parked, snd)
		w.Stats.ParkedSends.Add(1)
		return false
	default:
		w.Stats.PeerSendDrops.Add(1)
		return true
	}
}

// retryParked re-attempts CopySends that parked on a full queue, in
// arrival order, once the writer signals space (or permanent death — then
// they resolve as drops). Runs on the event loop.
func (w *Worker) retryParked(pc *peerConn) {
	parked := pc.parked
	pc.parked = nil
	for _, snd := range parked {
		js := snd.unit.js
		if snd.epoch != js.haltEpoch {
			// The job was halted while the send waited; the epoch path in
			// handleDone discards it without touching flushed state.
			w.handleDone(snd)
			continue
		}
		if w.execSend(js, snd) {
			w.handleDone(snd)
		}
	}
	w.dispatch()
}

// peerWriter drains one peer's queue. It dials with unbounded retry —
// giving up only at worker shutdown — so a peer that is slow to come up
// (or mid-restart) costs latency, not data.
func (w *Worker) peerWriter(pc *peerConn) {
	defer w.wg.Done()
	defer pc.markDead()
	if !w.dialPeer(pc) {
		return // worker stopping
	}
	defer func() { pc.conn.Close() }()
	for {
		// Wait for the next item only with nothing staged; otherwise an
		// empty queue means flush first, then come back and wait.
		it, ok := pc.next(pc.staged == 0)
		if !ok {
			if pc.staged == 0 {
				return // queue closed
			}
			if !w.flushPeer(pc) {
				return
			}
			continue
		}
		if it.xfer == nil {
			alive := w.sendRun(pc, it.run, it.count)
			pc.release(it.size)
			if !alive {
				return
			}
			continue
		}
		alive := w.sendXfer(pc, it.xfer)
		pc.release(it.size)
		if it.xfer.done != nil {
			// Deferred CopySend completion: the object's buffer was shared
			// with the store for the duration of the stream; only now may
			// the command complete and unblock writers of the object.
			w.postDone(it.xfer.done)
		}
		if !alive {
			return
		}
	}
}

// dialPeer connects the writer to its peer, retrying until the worker
// stops (false). Each connection gets its own creditPump, which exits with
// it.
func (w *Worker) dialPeer(pc *peerConn) bool {
	conn, err := transport.DialRetry(w.cfg.Transport, pc.addr, transport.Backoff{}, 0, 0, w.stopped)
	if err != nil {
		return false
	}
	pc.conn = conn
	_, stages := conn.(transport.BufferedSender)
	pc.mu.Lock()
	pc.stages = stages
	pc.mu.Unlock()
	w.wg.Add(1)
	go w.creditPump(conn, pc)
	return true
}

// redialPeer replaces a failed connection. Payloads the old one held staged
// are gone with it — their buffers were recycled at hand-over — so they are
// counted lost here, the one place a connection is given up. The count is
// an upper bound: a stage that filled wrote some of them out already, and
// Mem's holds nothing.
func (w *Worker) redialPeer(pc *peerConn) bool {
	if pc.staged > 0 {
		w.Stats.PeerSendDrops.Add(pc.staged)
		w.cfg.Logf("worker %s: %d staged payloads to peer %s lost with the connection", w.id, pc.staged, pc.dst)
		pc.staged = 0
	}
	pc.conn.Close()
	if !w.dialPeer(pc) {
		return false
	}
	w.Stats.PeerRedials.Add(1)
	return true
}

// flushPeer writes out the payloads staged since the last flush, redialing if
// the connection fails under them. Returns false when the worker is
// stopping.
func (w *Worker) flushPeer(pc *peerConn) bool {
	if pc.staged == 0 {
		return true
	}
	w.Stats.PeerFlushes.Add(1)
	if err := transport.Flush(pc.conn); err != nil {
		return w.redialPeer(pc)
	}
	pc.staged = 0
	return true
}

// sendRun hands one run of n payloads to the connection as one frame, without
// flushing it (the writer loop decides when), redialing on failure. A frame a
// failing transport consumed (owned) cannot be resent — its payloads are
// dropped and counted, but the connection still recovers for subsequent
// traffic. Returns false when the worker is stopping.
func (w *Worker) sendRun(pc *peerConn, run []byte, n uint64) bool {
	b := proto.FrameRun(run, int(n))
	for {
		owned, err := transport.SendBuffered(pc.conn, b)
		if err == nil {
			if !owned {
				proto.PutBuf(b)
			}
			w.Stats.PeerFrames.Add(1)
			if pc.stages {
				pc.staged += n
			}
			return true
		}
		if owned {
			w.Stats.PeerSendDrops.Add(n)
			w.cfg.Logf("worker %s: frame of %d payloads to peer %s lost: %v", w.id, n, pc.dst, err)
		}
		if !w.redialPeer(pc) {
			if !owned {
				proto.PutBuf(b)
			}
			return false
		}
		if owned {
			return true
		}
	}
}

// sendXfer streams one object as a run of DataChunk frames under the
// receiver's credit window. Each chunk goes out as its encoded header plus
// a slice of the object's own buffer (transport.SendVec): the payload is
// never copied into an encode buffer, and over TCP not copied at all. A
// connection failure mid-transfer redials and restarts from Seq 0: the
// fresh connection starts with fresh receiver state (the partial
// reassembly died with the old connection), so the replay lands cleanly.
// Returns false when the worker is stopping.
func (w *Worker) sendXfer(pc *peerConn, t *txXfer) bool {
	// awaitCredit can block; small frames staged ahead of this transfer
	// leave first. Chunks are never staged, so once is enough.
	if !w.flushPeer(pc) {
		return false
	}
	m := t.hdr
	for {
		pc.beginXfer(t.hdr.Xfer)
		off := 0
		for seq := uint32(0); ; seq++ {
			switch pc.awaitCredit() {
			case creditClosed:
				return false
			case creditAborted:
				return true // receiver refused the rest; the command still completes
			}
			end := off + w.chunkSize
			if end > len(t.data) {
				end = len(t.data)
			}
			m.Seq = seq
			m.Last = end == len(t.data)
			m.Raw = t.data[off:end]
			pc.chunkHead = proto.AppendChunkHeader(pc.chunkHead[:0], &m)
			if err := transport.SendVec(pc.conn, pc.chunkHead, m.Raw); err != nil {
				if !w.redialPeer(pc) {
					return false
				}
				break // restart the transfer from Seq 0 on the fresh connection
			}
			w.Stats.ChunksSent.Add(1)
			if m.Last {
				w.Stats.XfersSent.Add(1)
				return true
			}
			off = end
		}
	}
}

// creditPump drains the receiver's flow-control frames (DataCredit,
// XferAbort) from the reverse direction of the outbound connection and
// applies them to the writer's window. One pump runs per dialed
// connection and exits with it.
func (w *Worker) creditPump(conn transport.Conn, pc *peerConn) {
	defer w.wg.Done()
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		err = proto.ForEachMsg(raw, func(msg proto.Msg) error {
			switch m := msg.(type) {
			case *proto.DataCredit:
				pc.grant(m.Xfer, m.Chunks)
			case *proto.XferAbort:
				pc.abortXfer(m.Xfer, m.Reason)
			}
			return nil
		})
		proto.PutBuf(raw)
		if err != nil {
			w.cfg.Logf("worker %s: bad flow-control frame from peer %s: %v", w.id, pc.dst, err)
		}
	}
}
