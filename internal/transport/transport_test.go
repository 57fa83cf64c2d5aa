package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"nimbus/internal/bufpool"
)

func testConnPair(t *testing.T, tr Transport, addr string) (Conn, Conn) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	var server Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, _ = l.Accept()
	}()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	<-done
	if server == nil {
		t.Fatal("accept failed")
	}
	return client, server
}

func exerciseConn(t *testing.T, a, b Conn) {
	t.Helper()
	const n = 100
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Send([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("msg-%d", i); string(got) != want {
			t.Fatalf("message %d = %q, want %q (ordering broken)", i, got, want)
		}
	}
	wg.Wait()
	a.Close()
	if _, err := b.Recv(); err == nil {
		t.Fatal("recv after close should fail")
	}
}

// Mem at zero latency stamps no due time and never reads the clock; FIFO
// order and Recv-after-Close are the same on that path and on the timed one.
func TestMemOrderingAndClose(t *testing.T) {
	for _, lat := range []time.Duration{0, time.Millisecond} {
		t.Run(lat.String(), func(t *testing.T) {
			a, b := testConnPair(t, NewMem(lat), "t1")
			exerciseConn(t, a, b)
		})
	}
}

// Frames queued before the sender closed are still delivered, in order, and
// only then does Recv report ErrClosed — at either latency.
func TestMemRecvDrainsQueuedFramesBeforeClosed(t *testing.T) {
	for _, lat := range []time.Duration{0, time.Millisecond} {
		t.Run(lat.String(), func(t *testing.T) {
			a, b := Pipe(lat)
			for i := 0; i < 3; i++ {
				if err := a.Send([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			a.Close()
			for i := 0; i < 3; i++ {
				got, err := b.Recv()
				if err != nil || len(got) != 1 || got[0] != byte(i) {
					t.Fatalf("recv %d after close = %v, %v; want the queued frame", i, got, err)
				}
			}
			if _, err := b.Recv(); err != ErrClosed {
				t.Fatalf("recv on a drained closed conn = %v, want ErrClosed", err)
			}
			if err := a.Send([]byte{9}); err != ErrClosed {
				t.Fatalf("send after close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestTCPOrderingAndClose(t *testing.T) {
	a, b := testConnPair(t, TCP{}, "127.0.0.1:0")
	exerciseConn(t, a, b)
}

func TestMemLatency(t *testing.T) {
	// One hop is never delivered early.
	const lat = 5 * time.Millisecond
	a, b := Pipe(lat)
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if err := a.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < lat {
		t.Fatalf("delivered in %v, want >= %v", d, lat)
	}

	// Serial round trips cost what the model says: 100 of them at 100µs a
	// hop take 20ms, not the ~1ms-per-hop floor a plain time.Sleep pays.
	// The fastest of three attempts is judged, since the OS can deschedule
	// the receiver for milliseconds on a loaded box.
	const hop, trips = 100 * time.Microsecond, 100
	c, d := Pipe(hop)
	defer c.Close()
	defer d.Close()
	var best time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		start = time.Now()
		for i := 0; i < trips; i++ {
			if err := c.Send([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Recv(); err != nil {
				t.Fatal(err)
			}
			if err := d.Send([]byte("pong")); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		if took := time.Since(start); attempt == 0 || took < best {
			best = took
		}
	}
	if best < 2*trips*hop || best > 40*time.Millisecond {
		t.Fatalf("%d round trips over Pipe(%v) took %v at best, want %v to 40ms", trips, hop, best, 2*trips*hop)
	}
}

func TestMemSendDoesNotRetainBuffer(t *testing.T) {
	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()
	buf := []byte{1, 2, 3}
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("transport aliases the sender's buffer")
	}
}

// Mem's stage holds nothing: a SendBuffered frame is received with no Flush,
// the caller's slice is not retained, and Flush sends nothing.
func TestMemSendBufferedDeliversAtOnce(t *testing.T) {
	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()
	buf := []byte{1, 2, 3}
	if owned, err := SendBuffered(a, buf); err != nil || owned {
		t.Fatalf("SendBuffered over Mem: owned=%v err=%v, want a staged copy", owned, err)
	}
	buf[0] = 99
	got, err := b.Recv() // would block forever if the frame waited for a Flush
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("received %v: the transport aliases the sender's buffer", got)
	}
	if err := Flush(a); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte{4}); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Recv(); err != nil || !bytes.Equal(got, []byte{4}) {
		t.Fatalf("after Flush the next frame is %v (err %v): Flush sent something", got, err)
	}
	a.Close()
	if _, err := SendBuffered(a, buf); err == nil {
		t.Fatal("SendBuffered on a closed connection succeeded")
	}
}

func TestMemDuplicateListen(t *testing.T) {
	m := NewMem(0)
	if _, err := m.Listen("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Listen("dup"); err == nil {
		t.Fatal("duplicate listen should fail")
	}
}

func TestMemDialUnknown(t *testing.T) {
	m := NewMem(0)
	if _, err := m.Dial("nowhere"); err == nil {
		t.Fatal("dial to unknown address should fail")
	}
}

func TestTCPLargeFrame(t *testing.T) {
	a, b := testConnPair(t, TCP{}, "127.0.0.1:0")
	defer a.Close()
	defer b.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.Send(big); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big) || got[12345] != big[12345] {
		t.Fatal("large frame corrupted")
	}
}

// TestSendOwnedMem verifies the zero-copy hand-off: Mem takes ownership of
// the buffer and delivers the identical slice to the receiver, interleaved
// in order with copied Sends.
func TestSendOwnedMem(t *testing.T) {
	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()

	owned := []byte("owned-frame")
	taken, err := SendOwned(a, owned)
	if err != nil {
		t.Fatalf("SendOwned: %v", err)
	}
	if !taken {
		t.Fatal("Mem conn did not take ownership")
	}
	if err := a.Send([]byte("copied-frame")); err != nil {
		t.Fatal(err)
	}

	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &owned[0] {
		t.Error("owned frame was copied in transit")
	}
	got2, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != "copied-frame" {
		t.Fatalf("second frame = %q; ordering broken", got2)
	}
}

// TestSendOwnedFallback verifies the helper's contract on conns without
// OwnedSender support: the caller keeps ownership (owned=false) and the
// receiver sees an independent copy.
func TestSendOwnedFallback(t *testing.T) {
	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()
	// sendOnlyConn (not embedding) hides memConn's SendOwned method.
	c := sendOnlyConn{a}
	buf := []byte("frame")
	taken, err := SendOwned(c, buf)
	if err != nil {
		t.Fatal(err)
	}
	if taken {
		t.Fatal("non-OwnedSender reported ownership transfer")
	}
	buf[0] = 'X' // caller still owns the buffer; receiver must be unaffected
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "frame" {
		t.Fatalf("got %q, want %q (copy-on-send violated)", got, "frame")
	}
}

// sendOnlyConn narrows a Conn to hide any OwnedSender implementation.
type sendOnlyConn struct{ c Conn }

func (s sendOnlyConn) Send(b []byte) error   { return s.c.Send(b) }
func (s sendOnlyConn) Recv() ([]byte, error) { return s.c.Recv() }
func (s sendOnlyConn) Close() error          { return s.c.Close() }

// BenchmarkMemSend quantifies what SendOwned saves: Send pays a defensive
// copy of every frame to honor the must-not-retain contract; SendOwned
// moves the slice.
func BenchmarkMemSend(b *testing.B) {
	frame := make([]byte, 512)
	run := func(b *testing.B, send func(Conn, []byte) error) {
		a, peer := Pipe(0)
		defer a.Close()
		defer peer.Close()
		go func() {
			for {
				if _, err := peer.Recv(); err != nil {
					return
				}
			}
		}()
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := send(a, frame); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("copy", func(b *testing.B) {
		run(b, func(c Conn, buf []byte) error { return c.Send(buf) })
	})
	b.Run("owned", func(b *testing.B) {
		run(b, func(c Conn, buf []byte) error {
			_, err := SendOwned(c, buf)
			return err
		})
	})
}

// rawTCPPeer dials a TCP conn to a bare socket, so a test can read exactly
// the bytes the framing layer wrote.
func rawTCPPeer(t *testing.T) (Conn, net.Conn) {
	t.Helper()
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	c, err := TCP{}.Dial(nl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := nl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); peer.Close() })
	return c, peer
}

// TestTCPSendPathsShareOneByteStream interleaves the three ways a frame
// leaves a TCP conn — staged small Send, gathered large Send, SendVec — and
// checks the socket carries them in order, each as length ‖ bytes.
func TestTCPSendPathsShareOneByteStream(t *testing.T) {
	c, peer := rawTCPPeer(t)
	small := []byte("control frame")
	large := bytes.Repeat([]byte{0xA5}, 200<<10) // past the staging buffer
	head, body := []byte("chunk header"), bytes.Repeat([]byte{0x5A}, 300<<10)
	var want []byte
	frame := func(parts ...[]byte) {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		want = binary.BigEndian.AppendUint32(want, uint32(n))
		for _, p := range parts {
			want = append(want, p...)
		}
	}
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			for _, send := range []func() error{
				func() error { return c.Send(small) },
				func() error { return SendVec(c, head, body) },
				func() error { return c.Send(large) },
				func() error { return SendVec(c, head, nil) },
			} {
				if err := send(); err != nil {
					sent <- err
					return
				}
			}
		}
		sent <- nil
	}()
	for i := 0; i < 3; i++ {
		frame(small)
		frame(head, body)
		frame(large)
		frame(head)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("socket bytes differ from the frames sent, in order, as length‖bytes")
	}
}

// TestSendVecFallback: on conns without VecSender the helper joins the two
// parts into one pooled frame — handed over to an OwnedSender, copied by a
// plain Conn — and the caller's slices stay the caller's.
func TestSendVecFallback(t *testing.T) {
	for name, wrap := range map[string]func(Conn) Conn{
		"owned": func(c Conn) Conn { return c },
		"plain": func(c Conn) Conn { return sendOnlyConn{c} },
	} {
		a, b := Pipe(0)
		head, body := []byte("head|"), bytes.Repeat([]byte{'b'}, 100<<10)
		if err := SendVec(wrap(a), head, body); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := append(append([]byte(nil), head...), body...)
		head[0], body[0] = 'X', 'X' // the receiver must not see this
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: received frame is not head‖body as sent", name)
		}
		a.Close()
		b.Close()
	}
}

// TestTCPRecvIsPooled: Recv hands out pool buffers and takes them back, so
// a thousand tiny round trips leave the pool holding full-size encode
// buffers, not a thousand exact-length 6-byte ones the next marshal would
// have to regrow.
func TestTCPRecvIsPooled(t *testing.T) {
	a, b := testConnPair(t, TCP{}, "127.0.0.1:0")
	defer a.Close()
	defer b.Close()
	ping := []byte{1, 2, 3, 4, 5, 6}
	for i := 0; i < 1000; i++ {
		if err := a.Send(ping); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ping) {
			t.Fatalf("round trip %d: got %x", i, got)
		}
		if cap(got) < 1<<10 {
			t.Fatalf("round trip %d: Recv returned a cap-%d buffer; not from the pool", i, cap(got))
		}
		bufpool.Put(got)
	}
	if buf := bufpool.Get(); cap(buf) < 1<<10 {
		t.Fatalf("after 1000 small round trips Get returned cap %d, want >= 1 KiB", cap(buf))
	}
	// An exact-length buffer (what a copying Mem Send delivers) is refused.
	bufpool.Put(make([]byte, 6))
	if buf := bufpool.Get(); cap(buf) < 1<<10 {
		t.Fatalf("Put accepted an undersized buffer: Get returned cap %d", cap(buf))
	}
}
