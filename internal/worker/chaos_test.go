package worker

import (
	"bytes"
	"errors"
	"testing"

	"nimbus/internal/datastore"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// Receiver-side disk-fault tests: the spill filesystem refuses service at
// each of its three touch points (create, write, sync) while chunked
// transfers reassemble. ENOSPC at create degrades to RAM buffering; a
// mid-spill write failure aborts the one transfer with XferAbort and
// releases its budget; a sync failure at finalize drops the one delivery.
// In every case the connection stays usable and rxBytes returns to zero —
// a disk fault must never poison the data plane.

// chaosRxHarness builds a loop worker with a faultable spill FS and a
// piped rxConn driven directly by the test.
func chaosRxHarness(t *testing.T, budgetChunks int) (*Worker, *datastore.SpillFS, *rxConn, transport.Conn) {
	t.Helper()
	const chunk = 1 << 10
	w := newLoopWorker(t, Config{
		ControlAddr: "c", DataAddr: "d",
		ChunkSize:  chunk,
		RecvBudget: int64(budgetChunks) * chunk,
	})
	fs, err := datastore.NewSpillFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.spill = fs
	a, b := transport.Pipe(0)
	t.Cleanup(func() { a.Close(); b.Close() })
	return w, fs, &rxConn{w: w, conn: a, xfers: make(map[uint64]*rxXfer)}, b
}

// sendXfer streams one complete transfer of n chunks into rx.
func sendXfer(t *testing.T, rx *rxConn, xfer uint64, n int) []byte {
	t.Helper()
	const chunk = 1 << 10
	data := make([]byte, n*chunk)
	for i := range data {
		data[i] = byte(i*13 + int(xfer))
	}
	for off, seq := 0, uint32(0); off < len(data); seq++ {
		end := off + chunk
		rx.handleChunk(&proto.DataChunk{
			Job: 1, Xfer: xfer, Seq: seq, Last: end == len(data),
			DstCommand: 42, Object: 9, Logical: 9, Version: 2,
			Total: uint64(len(data)), Raw: data[off:end],
		})
		off = end
	}
	rx.post()
	return data
}

// expectDelivery asserts exactly one payload event with body equal to
// want, spilled or in RAM according to wantSpill.
func expectDelivery(t *testing.T, w *Worker, want []byte, wantSpill bool) {
	t.Helper()
	ev, ok := w.nextEvent(false)
	if !ok {
		t.Fatal("no payload delivered")
	}
	if ev.kind != evData || len(ev.pays) != 1 {
		t.Fatalf("event kind = %d with %d payloads, want evData with one", ev.kind, len(ev.pays))
	}
	ip := ev.pays[0]
	if (ip.spill != nil) != wantSpill {
		t.Fatalf("spill handle = %v, want spilled=%v", ip.spill, wantSpill)
	}
	got := ip.msg.Data
	if ip.spill != nil {
		var err error
		got, err = ip.spill.Read()
		if err != nil {
			t.Fatal(err)
		}
		ip.spill.Remove()
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered body differs from sent bytes (%d vs %d)", len(got), len(want))
	}
}

// TestChaosSpillCreateFaultFallsBackToRAM: ENOSPC at spill-file creation
// must not lose the transfer — the receiver keeps buffering in RAM past
// its budget and delivers bit-identically.
func TestChaosSpillCreateFaultFallsBackToRAM(t *testing.T) {
	w, fs, rx, _ := chaosRxHarness(t, 2)
	enospc := errors.New("no space left on device")
	fs.SetFault(func(op string) error {
		if op == "create" {
			return enospc
		}
		return nil
	})
	data := sendXfer(t, rx, 3, 8)
	expectDelivery(t, w, data, false)
	if got := w.Stats.Spills.Load(); got != 0 {
		t.Fatalf("Spills = %d with creation failing", got)
	}
	if got := w.rxBytes.Load(); got != 0 {
		t.Fatalf("rxBytes = %d after delivery, want 0", got)
	}
}

// TestChaosSpillWriteFaultAbortsWithoutPoison: a spill write failing
// mid-reassembly (disk filled under us) aborts that transfer — XferAbort
// on the reverse path, budget released, no delivery — and the very next
// transfer on the same connection streams through untouched.
func TestChaosSpillWriteFaultAbortsWithoutPoison(t *testing.T) {
	w, fs, rx, rev := chaosRxHarness(t, 2)
	fs.SetFault(func(op string) error {
		if op == "write" {
			return errors.New("no space left on device")
		}
		return nil
	})
	// Stream chunks until the receiver gives up: the third chunk tips the
	// budget, opens the spill file, and hits the write fault. A real
	// sender stops on the XferAbort, so the stream ends there.
	const chunk = 1 << 10
	for seq := uint32(0); seq < 3; seq++ {
		rx.handleChunk(&proto.DataChunk{
			Job: 1, Xfer: 5, Seq: seq, Total: 8 * chunk, Raw: make([]byte, chunk),
		})
	}
	rx.post()
	expectNoEvent(t, w, "faulted transfer")
	if got := w.Stats.RxAborts.Load(); got != 1 {
		t.Fatalf("RxAborts = %d, want 1", got)
	}
	if got := w.rxBytes.Load(); got != 0 {
		t.Fatalf("rxBytes = %d after abort, want 0: the aborted transfer leaked budget", got)
	}
	raw, err := rev.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m, err := proto.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ab, ok := m.(*proto.XferAbort); !ok || ab.Xfer != 5 {
		t.Fatalf("reverse path sent %v, want XferAbort for xfer 5", m)
	}
	if len(rx.xfers) != 0 {
		t.Fatal("aborted transfer left reassembly state behind")
	}

	// The disk recovers; the same connection carries the next transfer to
	// a spilled delivery.
	fs.SetFault(nil)
	data := sendXfer(t, rx, 6, 8)
	expectDelivery(t, w, data, true)
	if got := w.rxBytes.Load(); got != 0 {
		t.Fatalf("rxBytes = %d after recovery transfer, want 0", got)
	}
}

// TestChaosSpillSyncFaultDropsOnlyThatDelivery: fsync failing at
// finalize loses that one transfer (logged, no event — the sender's
// redial path re-requests it) without corrupting budget accounting or
// the connection.
func TestChaosSpillSyncFaultDropsOnlyThatDelivery(t *testing.T) {
	w, fs, rx, _ := chaosRxHarness(t, 2)
	fs.SetFault(func(op string) error {
		if op == "sync" {
			return errors.New("fsync: input/output error")
		}
		return nil
	})
	sendXfer(t, rx, 7, 8)
	expectNoEvent(t, w, "failed finalize")
	if got := w.rxBytes.Load(); got != 0 {
		t.Fatalf("rxBytes = %d after finalize failure, want 0", got)
	}

	fs.SetFault(nil)
	data := sendXfer(t, rx, 8, 8)
	expectDelivery(t, w, data, true)
}
