package worker

import (
	"errors"

	"nimbus/internal/datastore"
	"nimbus/internal/proto"
	"nimbus/internal/stream"
	"nimbus/internal/transport"
)

// This file is the receive side of the streaming data plane. Each
// accepted data-plane connection gets a pump goroutine that decodes
// frames itself and posts the event loop one event per frame: the frame's
// DataPayloads — a run of them when the sender batched — and the transfers
// its chunks completed, in frame order. DataChunk runs reassemble here, off
// the event loop, under two bounds:
//
//   - Flow control: credit is granted back to the sender as chunks land,
//     so the sender's window — not receiver goodwill — limits what is in
//     flight per transfer.
//
//   - Memory: all in-flight reassembly buffers share one worker-wide byte
//     budget. A transfer that pushes past it switches to a spill file and
//     releases its RAM; the completed object installs disk-backed and is
//     faulted in on first read. Receiver memory stays bounded no matter
//     how large the shuffle.
//
// Protocol violations (sequence gaps, total mismatches, oversized or
// corrupt chunks) abort the transfer with an XferAbort on the reverse
// path; transfer state is per-connection, so a connection's death cleans
// up everything it was reassembling.

// rxXfer is one inbound transfer being reassembled.
type rxXfer struct {
	ra   stream.Reassembler
	hdr  proto.DataChunk // routing fields, copied from the first chunk
	buf  []byte          // in-memory accumulation (nil once spilled)
	sw   *datastore.SpillWriter
	held int64  // bytes charged against the worker's receive budget
	owed uint32 // chunks landed since the last credit grant
}

// rxConn is the receive state of one accepted data-plane connection.
type rxConn struct {
	w     *Worker
	conn  transport.Conn
	xfers map[uint64]*rxXfer
	// run collects the payloads of the frame being decoded; post hands the
	// loop a copy and keeps the backing array.
	run []inPayload
}

// dataPump drains one inbound data-plane connection: chunks reassemble
// here, and each frame's payloads go to the event loop as one event. It is
// the one decoder that lets a message alias its frame: a chunk's Raw points
// into raw, and handleChunk copies it into the reassembly buffer (or the
// spill file) before raw is recycled — the payload's only copy on the
// receive side.
func (w *Worker) dataPump(conn transport.Conn) {
	defer w.wg.Done()
	rx := &rxConn{w: w, conn: conn, xfers: make(map[uint64]*rxXfer)}
	defer rx.teardown()
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		err = proto.ForEachMsgAliasChunks(raw, rx.handleMsg)
		proto.PutBuf(raw)
		if err != nil {
			w.cfg.Logf("worker %s: bad data message: %v", w.id, err)
		}
		if !rx.post() {
			return
		}
	}
}

// handleMsg takes one message of a data-plane frame. Only payloads and chunks
// belong there; anything else is ignored.
func (rx *rxConn) handleMsg(msg proto.Msg) error {
	switch m := msg.(type) {
	case *proto.DataChunk:
		rx.handleChunk(m)
	case *proto.DataPayload:
		rx.run = append(rx.run, inPayload{msg: m})
	}
	return nil
}

// post hands the event loop what the frame just decoded delivered, as one
// event, and reports whether the worker is still running.
func (rx *rxConn) post() bool {
	if len(rx.run) == 0 {
		return true
	}
	pays := make([]inPayload, len(rx.run))
	copy(pays, rx.run)
	clear(rx.run)
	rx.run = rx.run[:0]
	if rx.w.mbox.Put(event{kind: evData, pays: pays}) {
		return true
	}
	for _, ip := range pays {
		if ip.spill != nil {
			ip.spill.Remove()
		}
	}
	return false
}

func (rx *rxConn) handleChunk(c *proto.DataChunk) {
	w := rx.w
	x, ok := rx.xfers[c.Xfer]
	if !ok {
		if c.Seq != 0 {
			// Mid-stream chunk for a transfer we know nothing about —
			// hostile input or the stale tail of state this connection
			// never had. Tell the sender to stop wasting the link.
			rx.abort(c.Xfer, "unknown transfer")
			return
		}
		x = &rxXfer{
			ra:  stream.Reassembler{Xfer: c.Xfer, Total: c.Total, ChunkSize: w.chunkSize},
			hdr: *c,
		}
		x.hdr.Raw = nil // the header copy must not pin the first frame
		rx.xfers[c.Xfer] = x
	}
	raw, err := x.ra.Accept(c)
	if err != nil {
		if errors.Is(err, stream.ErrDup) {
			return // a redialed sender replayed a landed prefix
		}
		rx.drop(c.Xfer, x)
		rx.abort(c.Xfer, err.Error())
		return
	}
	w.Stats.ChunksRecv.Add(1)
	if err := x.land(w, raw); err != nil {
		w.cfg.Logf("worker %s: transfer %d: %v", w.id, c.Xfer, err)
		rx.drop(c.Xfer, x)
		rx.abort(c.Xfer, "spill failure")
		return
	}
	if !c.Last {
		// Replenish the sender's window as chunks land, batched so the
		// reverse path is not one frame per chunk.
		x.owed++
		if x.owed >= stream.InitWindow/2 {
			rx.credit(c.Xfer, x.owed)
			x.owed = 0
		}
		return
	}
	delete(rx.xfers, c.Xfer)
	rx.deliver(x)
}

// land copies a chunk's bytes into the transfer, spilling it to disk when
// total in-flight reassembly exceeds the worker's receive budget. The RAM
// buffer is allocated once, on the first chunk, at the transfer's declared
// size — clamped to the receive budget, past which it would have spilled
// anyway, so a hostile Total reserves no more than that — and every later
// append lands in place. Only bytes actually landed are charged.
func (x *rxXfer) land(w *Worker, raw []byte) error {
	if x.sw != nil {
		if err := x.sw.Write(raw); err != nil {
			return err
		}
		w.Stats.SpilledBytes.Add(uint64(len(raw)))
		return nil
	}
	if w.rxBytes.Add(int64(len(raw))) <= w.recvBudget {
		x.held += int64(len(raw))
		if x.buf == nil {
			x.buf = make([]byte, 0, min(x.ra.Total, uint64(w.recvBudget)))
		}
		x.buf = append(x.buf, raw...)
		return nil
	}
	sw, err := w.spill.NewWriter()
	if err != nil {
		// Disk refused; keep buffering in RAM — the budget is a target,
		// not a reason to lose data.
		w.cfg.Logf("worker %s: spill unavailable, buffering in memory: %v", w.id, err)
		x.held += int64(len(raw))
		x.buf = append(x.buf, raw...)
		return nil
	}
	x.sw = sw
	if len(x.buf) > 0 {
		if err := sw.Write(x.buf); err != nil {
			// The tipping chunk was charged by the budget check above but
			// never reached x.held; discard() only releases held, so it
			// must be uncharged here or the abort leaks receive budget.
			w.rxBytes.Add(-int64(len(raw)))
			return err
		}
	}
	if err := sw.Write(raw); err != nil {
		w.rxBytes.Add(-int64(len(raw)))
		return err
	}
	// The transfer's RAM charge (and the chunk that tipped it over) moves
	// to disk.
	w.rxBytes.Add(-(x.held + int64(len(raw))))
	x.held = 0
	x.buf = nil
	w.Stats.Spills.Add(1)
	w.Stats.SpilledBytes.Add(uint64(sw.Size()))
	return nil
}

// deliver adds a completed transfer to the frame's run as a payload —
// in-memory, or a finalized spill handle the CopyRecv will install
// disk-backed.
func (rx *rxConn) deliver(x *rxXfer) {
	w := rx.w
	var sp *datastore.Spilled
	if x.sw != nil {
		var err error
		sp, err = x.sw.Finalize()
		x.sw = nil
		if err != nil {
			w.cfg.Logf("worker %s: spill finalize: %v", w.id, err)
			return
		}
	} else {
		// The event loop owns the buffer now; it stops counting as
		// in-flight reassembly.
		w.rxBytes.Add(-x.held)
		x.held = 0
	}
	w.Stats.XfersRecv.Add(1)
	rx.run = append(rx.run, inPayload{spill: sp, msg: &proto.DataPayload{
		Job:        x.hdr.Job,
		DstCommand: x.hdr.DstCommand,
		Object:     x.hdr.Object,
		Logical:    x.hdr.Logical,
		Version:    x.hdr.Version,
		Data:       x.buf,
	}})
}

// credit grants the sender more window on the reverse path. Send failures
// are ignored: a dying connection tears the whole pump down moments
// later, and the sender restarts the transfer on redial.
func (rx *rxConn) credit(xfer uint64, n uint32) {
	buf := proto.MarshalAppend(proto.GetBuf(), &proto.DataCredit{Xfer: xfer, Chunks: n})
	if owned, _ := transport.SendOwned(rx.conn, buf); !owned {
		proto.PutBuf(buf)
	}
}

func (rx *rxConn) abort(xfer uint64, reason string) {
	rx.w.Stats.RxAborts.Add(1)
	buf := proto.MarshalAppend(proto.GetBuf(), &proto.XferAbort{Xfer: xfer, Reason: reason})
	if owned, _ := transport.SendOwned(rx.conn, buf); !owned {
		proto.PutBuf(buf)
	}
}

// drop discards a transfer's partial state after a protocol violation.
func (rx *rxConn) drop(xfer uint64, x *rxXfer) {
	delete(rx.xfers, xfer)
	x.discard(rx.w)
}

func (x *rxXfer) discard(w *Worker) {
	if x.sw != nil {
		x.sw.Abort()
		x.sw = nil
	}
	w.rxBytes.Add(-x.held)
	x.held = 0
	x.buf = nil
}

// teardown releases every incomplete transfer when the connection dies:
// budget uncharged, partial spill files removed. (run is empty: the pump
// posts after every frame.)
func (rx *rxConn) teardown() {
	for _, x := range rx.xfers {
		x.discard(rx.w)
	}
	rx.xfers = nil
}
