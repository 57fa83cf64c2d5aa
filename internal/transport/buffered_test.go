package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// recNetConn is a net.Conn that records what is written to it and counts
// the Write calls, standing in for the socket under a tcpConn.
type recNetConn struct {
	buf    bytes.Buffer
	writes int
}

func (c *recNetConn) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

func (c *recNetConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *recNetConn) Close() error                     { return nil }
func (c *recNetConn) LocalAddr() net.Addr              { return nil }
func (c *recNetConn) RemoteAddr() net.Addr             { return nil }
func (c *recNetConn) SetDeadline(time.Time) error      { return nil }
func (c *recNetConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recNetConn) SetWriteDeadline(time.Time) error { return nil }

// sendOp is one step of a send script: a frame through one of the three
// paths, or (frame nil) a Flush.
type sendOp struct {
	path  byte // 's' Send, 'v' SendVec, 'b' SendBuffered, 'f' Flush
	frame []byte
}

// mixedScript interleaves the three send paths the way one goroutine may:
// runs of staged frames, a Send and a SendVec issued while frames are
// staged, a staged frame larger than the stage, and a run long enough to
// overflow the stage on its own.
func mixedScript() []sendOp {
	frame := func(tag byte, n int) []byte { return bytes.Repeat([]byte{tag}, n) }
	ops := []sendOp{
		{'b', frame(1, 13)}, {'b', frame(2, 13)}, {'b', frame(3, 700)},
		{'s', frame(4, 40)}, // Send with three frames staged
		{'b', frame(5, 13)},
		{'v', frame(6, 300<<10)}, // gathered write with one frame staged
		{'b', frame(7, 13)},
		{'b', frame(8, 200<<10)}, // larger than the 64 KiB stage
		{'b', frame(9, 0)},
		{'f', nil},
		{'s', frame(10, 100<<10)}, // large Send, nothing staged
	}
	for i := 0; i < 40; i++ { // 160 KiB of 4 KiB frames: the stage overflows twice
		ops = append(ops, sendOp{'b', frame(byte(20+i), 4<<10)})
	}
	return append(ops, sendOp{'f', nil})
}

func runScript(c Conn, ops []sendOp) error {
	for i, op := range ops {
		var err error
		switch op.path {
		case 's':
			err = c.Send(op.frame)
		case 'v':
			// Split anywhere: head‖body is the frame.
			err = SendVec(c, op.frame[:len(op.frame)/3], op.frame[len(op.frame)/3:])
		case 'b':
			_, err = SendBuffered(c, op.frame)
		case 'f':
			err = Flush(c)
		}
		if err != nil {
			return fmt.Errorf("op %d (%c): %w", i, op.path, err)
		}
	}
	return nil
}

// TestTCPBufferedWireIdenticalToSend is the wire-compatibility check: the
// bytes a TCP link carries for a sequence of frames do not depend on which
// send path each frame took. The reference is the same frames through Send
// alone, which is all the parent commit had for small frames.
func TestTCPBufferedWireIdenticalToSend(t *testing.T) {
	ops := mixedScript()
	var mixed, ref recNetConn
	if err := runScript(newTCPConn(&mixed), ops); err != nil {
		t.Fatal(err)
	}
	refConn := newTCPConn(&ref)
	for _, op := range ops {
		if op.path == 'f' {
			continue
		}
		if err := refConn.Send(op.frame); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(mixed.buf.Bytes(), ref.buf.Bytes()) {
		t.Fatalf("mixed send paths wrote %d bytes that differ from the %d bytes Send alone writes",
			mixed.buf.Len(), ref.buf.Len())
	}
}

// TestTCPBufferedStreamInOrder runs the same script over a loopback socket
// and reads it back through Recv: every frame arrives, whole, in the order
// it was sent.
func TestTCPBufferedStreamInOrder(t *testing.T) {
	a, b := testConnPair(t, TCP{}, "127.0.0.1:0")
	defer a.Close()
	defer b.Close()
	if _, ok := a.(BufferedSender); !ok {
		t.Fatal("a TCP conn does not implement BufferedSender")
	}
	ops := mixedScript()
	sent := make(chan error, 1)
	go func() { sent <- runScript(a, ops) }()
	for i, op := range ops {
		if op.path == 'f' {
			continue
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !bytes.Equal(got, op.frame) {
			t.Fatalf("op %d (%c): received a %d-byte frame that is not the %d-byte frame sent", i, op.path, len(got), len(op.frame))
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestTCPStagedRunCostsOneWritePerStageful: N small frames and one Flush
// reach the socket in ⌈bytes/64 KiB⌉ writes — one for a run that fits the
// stage — and nothing is written before the Flush unless the stage filled.
func TestTCPStagedRunCostsOneWritePerStageful(t *testing.T) {
	const stage = 64 << 10
	for _, tc := range []struct{ frames, size int }{
		{1, 13},     // a lone frame: one write
		{435, 13},   // the LR block's copy frames to all peers, as one run
		{1000, 200}, // 204000 bytes: four stagefuls
	} {
		var rec recNetConn
		c := newTCPConn(&rec)
		frame := make([]byte, tc.size)
		for i := 0; i < tc.frames; i++ {
			if err := c.SendBuffered(frame); err != nil {
				t.Fatal(err)
			}
		}
		total := tc.frames * (4 + tc.size)
		if early := rec.writes; early != total/stage {
			t.Fatalf("%d×%d B: %d writes before Flush, want %d (full stages only)", tc.frames, tc.size, early, total/stage)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := (total + stage - 1) / stage; rec.writes > want {
			t.Fatalf("%d×%d B: %d writes for %d bytes, want at most %d", tc.frames, tc.size, rec.writes, total, want)
		}
		if rec.buf.Len() != total {
			t.Fatalf("%d×%d B: socket got %d bytes, want %d", tc.frames, tc.size, rec.buf.Len(), total)
		}
		// An empty stage flushes for free.
		before := rec.writes
		if err := c.Flush(); err != nil || rec.writes != before {
			t.Fatalf("Flush of an empty stage wrote (writes %d → %d, err %v)", before, rec.writes, err)
		}
	}
}
