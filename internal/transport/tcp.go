package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"nimbus/internal/bufpool"
)

// maxFrame bounds a single framed message. Data-plane payloads in this
// reproduction are partition-sized (megabytes at most); anything larger
// indicates a corrupted stream.
const maxFrame = 1 << 28 // 256 MiB

// TCP is a Transport over real sockets using 4-byte big-endian length
// framing. It serves the standalone daemons (cmd/nimbus-controller,
// cmd/nimbus-worker) and the TCP integration tests.
type TCP struct{}

// Dial implements Transport.
func (TCP) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(nc), nil
}

// Listen implements Transport.
func (TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{nl: nl}, nil
}

type tcpListener struct {
	nl net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return newTCPConn(nc), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }
func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

// tcpConn frames messages over a net.Conn: a 4-byte big-endian length, then
// the frame. All sends are serialized by one mutex and form one byte stream
// in call order, whichever of the three paths a frame takes:
//
//   - Send stages length‖frame in the 64 KiB bufio writer and flushes, so a
//     control message leaves at once in one write.
//   - SendBuffered stages the same bytes and does not flush: a caller with a
//     run of small frames (the worker's peer writer) pays one write for the
//     run, at its Flush. The stage writes itself out when it fills, so a run
//     of any length costs ⌈bytes/64 KiB⌉ writes. Frame boundaries on the
//     wire are unchanged; a receiver cannot tell the paths apart.
//   - SendVec, and a Send or SendBuffered of a frame too big for the stage,
//     is a gathered write (writev) straight from the caller's slices — no
//     staging copy, one syscall — after flushing whatever is staged, which
//     is what keeps the stream ordered.
//
// tcpConn implements VecSender and BufferedSender but not OwnedSender: no
// send path retains the caller's bytes past its return, so a pooled caller
// buffer is reusable at once and taking ownership would only move the
// recycle from the sender (which has the pool warm) to nobody. Recv draws
// its result from bufpool; the caller owns it and recycles it with
// bufpool.Put (proto.PutBuf).
type tcpConn struct {
	nc net.Conn

	sendMu sync.Mutex
	bw     *bufio.Writer
	vhead  []byte      // gathered-write scratch: length prefix ‖ head
	vparts [2][]byte   // the two slices of one gathered write
	vec    net.Buffers // vparts[:], rebuilt per send because WriteTo consumes it

	recvMu sync.Mutex
	br     *bufio.Reader
	hdr    [4]byte
}

func newTCPConn(nc net.Conn) *tcpConn {
	if tc, ok := nc.(*net.TCPConn); ok {
		// Control messages are small; Nagle would add tens of ms.
		_ = tc.SetNoDelay(true)
	}
	return &tcpConn{
		nc: nc,
		bw: bufio.NewWriterSize(nc, 64<<10),
		br: bufio.NewReaderSize(nc, 64<<10),
	}
}

func (c *tcpConn) Send(b []byte) error {
	if 4+len(b) > c.bw.Size() {
		return c.SendVec(nil, b)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if err := c.stage(b); err != nil {
		return err
	}
	return c.flushStage()
}

// SendBuffered implements BufferedSender.
func (c *tcpConn) SendBuffered(b []byte) error {
	if 4+len(b) > c.bw.Size() {
		return c.SendVec(nil, b)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.stage(b)
}

// Flush implements BufferedSender.
func (c *tcpConn) Flush() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.flushStage()
}

// stage appends length‖b to the bufio writer, which writes itself out when
// full. Caller holds sendMu.
func (c *tcpConn) stage(b []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return c.sendErr(err)
	}
	if _, err := c.bw.Write(b); err != nil {
		return c.sendErr(err)
	}
	return nil
}

// flushStage writes out the bufio writer. Caller holds sendMu.
func (c *tcpConn) flushStage() error {
	if err := c.bw.Flush(); err != nil {
		return c.sendErr(err)
	}
	return nil
}

// SendVec implements VecSender. Staged frames were sent first, so they
// leave first.
func (c *tcpConn) SendVec(head, body []byte) error {
	n := len(head) + len(body)
	if n > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if err := c.flushStage(); err != nil {
		return err
	}
	c.vhead = append(binary.BigEndian.AppendUint32(c.vhead[:0], uint32(n)), head...)
	c.vparts = [2][]byte{c.vhead, body}
	c.vec = c.vparts[:]
	_, err := c.vec.WriteTo(c.nc)
	c.vparts[1] = nil // do not pin the caller's body until the next send
	if err != nil {
		return c.sendErr(err)
	}
	return nil
}

func (c *tcpConn) sendErr(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		return ErrClosed
	}
	return err
}

func (c *tcpConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return nil, c.recvErr(err)
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := bufpool.GetLen(int(n))
	if _, err := io.ReadFull(c.br, buf); err != nil {
		bufpool.Put(buf)
		return nil, c.recvErr(err)
	}
	return buf, nil
}

func (c *tcpConn) recvErr(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrClosed
	}
	return err
}

func (c *tcpConn) Close() error { return c.nc.Close() }
