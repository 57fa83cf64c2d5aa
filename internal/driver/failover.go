package driver

import (
	"errors"
	"fmt"

	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// This file implements driver-side controller-failover continuity. The
// driver keeps a journal of every logged fire-and-forget operation it has
// issued (send in driver.go) and remembers the request message behind
// every in-flight future (request in future.go). When the connection to
// the controller dies, recover walks the session's endpoint list — the
// primary first, then the endpoints in Opts.Failover — reattaches to
// whichever controller answers for the job, reconciles the journal
// against the applied-operation count that controller reports,
// and re-issues the unresolved futures under their original seqs. The
// controller dedupes re-issued request seqs, so a request that survived
// on a live controller (a transient driver-side disconnect) is answered
// once, not twice.

// journalEntry is one logged fire-and-forget operation, retained as a
// marshaled copy so it can be resent verbatim after a reattach. index is
// the operation's 1-based position in the session's history — the same
// counter the controller's per-job applied count mirrors.
type journalEntry struct {
	index uint64
	buf   []byte
}

// ErrLoopInterrupted deterministically fails an InstantiateWhile future
// interrupted by a failover: controller-evaluated loop state (iteration
// count, pending predicate fetch) is not replicated, so re-issuing the
// loop could re-run iterations the old controller already executed and
// logged. The application re-issues the loop itself if it wants to
// continue; already-run iterations persist on the workers.
var ErrLoopInterrupted = errors.New(
	"driver: controller-evaluated loop interrupted by controller failover; completed iterations persist, re-issue to continue")

// ErrCheckpointFailed resolves a Checkpoint future whose commit the
// controller aborted because a worker's durable Save errored (disk full,
// torn write). The previous checkpoint and the operation log stay
// authoritative — recovery is unaffected — and the caller may retry.
var ErrCheckpointFailed = errors.New("driver: checkpoint failed")

// errRecovered is recvMsg's signal that the connection was lost and
// reattached mid-receive with no message to show for it yet. Recovery
// resolves some pending entries locally, so receive loops must recheck
// what they are blocked on before reading again.
var errRecovered = errors.New("driver: session recovered mid-receive")

// reattachRounds bounds how many passes over the endpoint list recover
// makes before declaring the session dead. Each dial within a pass is
// itself retried with backoff, and its hello answered, within
// transport.HelloTimeout.
const reattachRounds = 3

// recover reattaches the session after a connection failure. It returns
// nil when the session is live again on a (possibly different) controller
// with its journal reconciled and its futures re-issued, and the sticky
// session error when every endpoint was exhausted — in which case fail()
// has already resolved all pending futures with it.
func (d *Driver) recover(cause error) error {
	if d.dead != nil {
		return d.dead
	}
	d.conn.Close()
	for round := 0; round < reattachRounds; round++ {
		for _, addr := range d.addrs {
			ack, conn, rest, err := d.reattach(addr)
			if err != nil {
				continue
			}
			d.conn = conn
			// Messages decoded before the failure are consumed first, then
			// anything that rode in the reattach handshake frame.
			live := d.inbox[d.inboxHead:]
			merged := make([]proto.Msg, 0, len(live)+len(rest))
			merged = append(append(merged, live...), rest...)
			d.inbox, d.inboxHead = merged, 0
			if err := d.resendJournal(ack.Applied); err != nil {
				d.conn.Close()
				continue
			}
			d.reissuePending()
			return nil
		}
	}
	d.fail(fmt.Errorf("driver: reattach failed after %d rounds over %v: %w",
		reattachRounds, d.addrs, cause))
	return d.dead
}

// reattach dials one endpoint and performs the DriverReattach handshake.
// On success it returns the controller's ack, the new connection, and any
// further messages decoded from the handshake frame.
func (d *Driver) reattach(addr string) (*proto.ReattachAck, transport.Conn, []proto.Msg, error) {
	conn, err := transport.DialRetry(d.tr, addr, transport.Backoff{}, 0, transport.HelloTimeout, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	hello := &proto.DriverReattach{Job: d.job, Name: d.name, Weight: d.weight}
	msgs, err := transport.Exchange(conn, hello, transport.HelloTimeout, nil)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("driver: reattach %s: %w", addr, err)
	}
	ack, ok := msgs[0].(*proto.ReattachAck)
	switch {
	case !ok:
		err = fmt.Errorf("driver: reattach %s: unexpected %s", addr, msgs[0].Kind())
	case !ack.Ok:
		err = fmt.Errorf("driver: reattach %s: %s", addr, ack.Err)
	default:
		return ack, conn, msgs[1:], nil
	}
	conn.Close()
	return nil, nil, nil, err
}

// resendJournal reconciles the journal against the applied count the
// reattached controller reported: entries at or below it were applied
// (directly, or via oplog replay during the standby's takeover) and are
// dropped; everything past it is resent in order. Copies are sent — the
// journal must keep its buffers for a possible later failover.
func (d *Driver) resendJournal(applied uint64) error {
	i := 0
	for i < len(d.journal) && d.journal[i].index <= applied {
		i++
	}
	d.journal = d.journal[i:]
	for _, e := range d.journal {
		buf := append(proto.GetBuf(), e.buf...)
		owned, err := transport.SendOwned(d.conn, buf)
		if !owned {
			proto.PutBuf(buf)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// truncateJournal releases journal entries at or below applied — the
// count the controller reports as guaranteed on every possible reattach
// target (BarrierDone.Applied). Without it the journal grows for the
// session's lifetime, one marshaled copy per logged op. The suffix is
// copied into a fresh slice so the dropped entries' buffers are really
// released instead of staying pinned by the old backing array.
func (d *Driver) truncateJournal(applied uint64) {
	i := 0
	for i < len(d.journal) && d.journal[i].index <= applied {
		i++
	}
	if i == 0 {
		return
	}
	if i == len(d.journal) {
		d.journal = nil
		return
	}
	d.journal = append([]journalEntry(nil), d.journal[i:]...)
}

// reissuePending re-sends every unresolved expect-reply request under its
// original seq. The controller dedupes seqs it already holds (a surviving
// controller may still be working on the original), so at most one reply
// arrives per seq. InstantiateWhile is the exception: its loop state died
// with the old controller, so its future fails deterministically instead
// of silently restarting the loop from iteration zero.
func (d *Driver) reissuePending() {
	for seq, p := range d.pending {
		if p.resolved || p.req == nil {
			continue
		}
		if _, isLoop := p.req.(*proto.InstantiateWhile); isLoop {
			delete(d.pending, seq)
			d.resolve(p, ErrLoopInterrupted)
			continue
		}
		if err := d.rawSend(p.req); err != nil {
			// The fresh connection died under us; the next recvMsg or send
			// runs recover again and retries the remainder.
			return
		}
	}
}
