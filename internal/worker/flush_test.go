package worker

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"nimbus/internal/ids"
	"nimbus/internal/stream"
	"nimbus/internal/transport"
)

// These tests pin the peer writer's flush rule (DESIGN.md "Wire budget"):
// write while the queue has more, flush before anything that can block. A
// run of queued frames costs one flush, and no frame is ever left staged
// with the writer asleep.

// heldDial is a Transport whose Dial waits for release to close, so a test
// can fill a peer queue before the writer has a connection — what the
// writer then drains is one run of known length. wrap, if set, wraps each
// dialed connection.
type heldDial struct {
	transport.Transport
	release chan struct{}
	wrap    func(transport.Conn) transport.Conn
}

func (h *heldDial) Dial(addr string) (transport.Conn, error) {
	<-h.release
	c, err := h.Transport.Dial(addr)
	if err == nil && h.wrap != nil {
		c = h.wrap(c)
	}
	return c, err
}

// sendSmall queues one small CopySend whose payload is its sequence number.
func sendSmall(t *testing.T, snd *Worker, seq int) {
	t.Helper()
	js := snd.job(1)
	js.store.Install(5, 5, uint64(seq), binary.BigEndian.AppendUint64(nil, uint64(seq)))
	if !snd.execSend(js, copySendCmd(snd, js, ids.CommandID(seq), 5, 2)) {
		t.Fatal("small send did not complete at admission")
	}
}

// expectSmall waits for the receiver's next payload and checks it is seq.
func expectSmall(t *testing.T, rcv *Worker, seq int) {
	t.Helper()
	got := delivered(t, rcv)
	if len(got) != 8 || binary.BigEndian.Uint64(got) != uint64(seq) {
		t.Fatalf("received payload %x, want sequence number %d", got, seq)
	}
}

func TestPeerWriterFlushesOncePerDrainedRun(t *testing.T) {
	const n = 1000
	tr := &heldDial{Transport: transport.TCP{}, release: make(chan struct{})}
	snd, rcv, addr := pumpPair(t, tr, "127.0.0.1:0", Config{})
	snd.peers[2] = addr

	// Queued while the writer is still dialing: one run, one flush (1000
	// 25-byte frames fit the connection's stage with room to spare).
	for i := 0; i < n; i++ {
		sendSmall(t, snd, i)
	}
	close(tr.release)
	for i := 0; i < n; i++ {
		expectSmall(t, rcv, i)
	}
	if got := snd.Stats.PeerFlushes.Load(); got != 1 {
		t.Fatalf("PeerFlushes = %d for one run of %d queued frames, want 1", got, n)
	}

	// Queued back-to-back against a live, idle writer: how the run splits
	// depends on scheduling, but the writer must find frames waiting far
	// more often than not.
	for i := n; i < 2*n; i++ {
		sendSmall(t, snd, i)
	}
	for i := n; i < 2*n; i++ {
		expectSmall(t, rcv, i)
	}
	live := snd.Stats.PeerFlushes.Load() - 1
	t.Logf("%d frames against a live writer left in %d flushes", n, live)
	if live > n/2 {
		t.Fatalf("PeerFlushes = %d for %d back-to-back frames: the writer is flushing per frame", live, n)
	}
	if got := snd.Stats.CopiesSent.Load(); got != 2*n {
		t.Fatalf("CopiesSent = %d, want %d", got, 2*n)
	}
	if got := snd.Stats.PeerSendDrops.Load(); got != 0 {
		t.Fatalf("PeerSendDrops = %d, want 0", got)
	}
}

// A single frame into an idle queue is received with nothing sent after it:
// the writer flushes before it sleeps, on a fresh connection and on one
// that has been idle.
func TestPeerWriterIdleSendLeavesAtOnce(t *testing.T) {
	snd, rcv, addr := pumpPair(t, transport.TCP{}, "127.0.0.1:0", Config{})
	snd.peers[2] = addr
	for i := 0; i < 3; i++ {
		sendSmall(t, snd, i)
		expectSmall(t, rcv, i) // fails after 10 s if the frame is stranded
		if got := snd.Stats.PeerFlushes.Load(); got != uint64(i+1) {
			t.Fatalf("PeerFlushes = %d after %d lone sends", got, i+1)
		}
	}
}

// small → chunked transfer → small on one peer. The transfer is longer than
// the initial credit window, so the writer blocks on credit mid-way; the
// small frame staged ahead of it must already be out (it arrives first),
// and the one behind it must not be stranded.
func TestPeerWriterOrdersSmallFramesAroundTransfer(t *testing.T) {
	const chunk = 4 << 10
	tr := &heldDial{Transport: transport.TCP{}, release: make(chan struct{})}
	snd, rcv, addr := pumpPair(t, tr, "127.0.0.1:0", Config{ChunkSize: chunk})
	snd.peers[2] = addr
	js := snd.job(1)
	big := patterned((stream.InitWindow+4)*chunk, 9)
	js.store.Install(6, 6, 1, big)

	sendSmall(t, snd, 1)
	if snd.execSend(js, copySendCmd(snd, js, 2, 6, 2)) {
		t.Fatal("multi-chunk send completed synchronously")
	}
	sendSmall(t, snd, 3)
	close(tr.release) // the writer finds all three queued

	expectSmall(t, rcv, 1)
	if got := delivered(t, rcv); !bytes.Equal(got, big) {
		t.Fatalf("transfer arrived as %d bytes, differing from the %d sent", len(got), len(big))
	}
	expectSmall(t, rcv, 3)
	awaitSent(t, snd)
	if got := snd.Stats.ChunksSent.Load(); got != stream.InitWindow+4 {
		t.Fatalf("ChunksSent = %d, want %d", got, stream.InitWindow+4)
	}
	if got := snd.Stats.PeerFlushes.Load(); got != 2 {
		t.Fatalf("PeerFlushes = %d, want 2: one ahead of the transfer, one when the queue emptied", got)
	}
}

// A connection that dies under staged frames costs exactly the payloads they
// carried — a run is as many drops as it has payloads — counted; the writer
// redials and later traffic flows.
func TestPeerWriterCountsStagedFramesLostWithConnection(t *testing.T) {
	const k = 7
	rec := newStagedRec()
	snd, rcv, addr := pumpPair(t, rec.dialer(transport.TCP{}), "127.0.0.1:0", Config{})
	snd.peers[2] = addr
	sendSmall(t, snd, 0)
	<-rec.entered
	for i := 1; i <= k; i++ {
		sendSmall(t, snd, i)
	}
	// The socket dies under the writer: frame 0 and the run behind it are
	// staged, and the flush that would have written them fails.
	rec.Conn.Close()
	close(rec.gate)
	deadline := time.Now().Add(10 * time.Second)
	for snd.Stats.PeerRedials.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never redialed after its connection died")
		}
		time.Sleep(time.Millisecond)
	}
	const lost = k + 1
	if got := snd.Stats.PeerSendDrops.Load(); got != lost {
		t.Fatalf("PeerSendDrops = %d, want the %d payloads staged when the connection died", got, lost)
	}
	for i := lost; i < lost+3; i++ {
		sendSmall(t, snd, i)
	}
	// The lost payloads never reached the wire, so the first arrival is the
	// first one sent on the new connection.
	for i := lost; i < lost+3; i++ {
		expectSmall(t, rcv, i)
	}
	if got := snd.Stats.PeerSendDrops.Load(); got != lost {
		t.Fatalf("PeerSendDrops = %d after recovery, want %d", got, lost)
	}
}

// gatedConn blocks its first Send until gate closes, so a test can queue
// frames behind one the writer is busy with. It implements only Conn: the
// writer sends each frame as it pops it.
type gatedConn struct {
	transport.Conn
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (c *gatedConn) Send(b []byte) error {
	c.once.Do(func() {
		close(c.entered)
		<-c.gate
	})
	return c.Conn.Send(b)
}

// A small CopySend completes when its frame is admitted to the peer queue,
// so the controller may see a draining worker's last copies done and
// decommission it while their frames are still queued. Closing the queues
// must not discard them: the writer sends what was admitted, then exits.
// (Dropping them was the drain/loop hang: a receiver waited forever on a
// payload its CopyRecv was owed.)
func TestPeerQueueAdmittedFramesSurviveClose(t *testing.T) {
	const n = 20
	gc := &gatedConn{entered: make(chan struct{}), gate: make(chan struct{})}
	tr := &heldDial{
		Transport: transport.TCP{},
		release:   make(chan struct{}),
		wrap: func(c transport.Conn) transport.Conn {
			gc.Conn = c
			return gc
		},
	}
	close(tr.release)
	snd, rcv, addr := pumpPair(t, tr, "127.0.0.1:0", Config{})
	snd.peers[2] = addr
	sendSmall(t, snd, 0)
	<-gc.entered // the writer is inside frame 0's send
	for i := 1; i < n; i++ {
		sendSmall(t, snd, i) // admitted, waiting in the queue
	}
	snd.closePeers() // what the event loop does as the worker stops
	close(gc.gate)
	for i := 0; i < n; i++ {
		expectSmall(t, rcv, i)
	}
	if got := snd.Stats.PeerSendDrops.Load(); got != 0 {
		t.Fatalf("PeerSendDrops = %d, want 0", got)
	}
	sendSmall(t, snd, n) // into a closed queue: refused and counted
	if got := snd.Stats.PeerSendDrops.Load(); got != 1 {
		t.Fatalf("PeerSendDrops = %d after a send into a closed queue, want 1", got)
	}
}
