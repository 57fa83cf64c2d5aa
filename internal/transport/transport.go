// Package transport abstracts the message transport connecting Nimbus
// nodes: driver ↔ controller, controller ↔ workers, and worker ↔ worker
// (the data plane).
//
// Two implementations are provided:
//
//   - Mem: an in-process transport with configurable one-way latency. This
//     is the cluster substitute used by the scaling experiments — the
//     control-plane code paths (encoding, queueing, dispatch, the peer
//     writer's framing) are identical to a real deployment; only the wire
//     is a queue plus a latency model.
//   - TCP: a length-prefixed framing layer over net.TCPConn for real
//     multi-process deployments (cmd/nimbus-controller, cmd/nimbus-worker).
//
// Both present the same Conn interface: ordered, reliable, message-oriented
// byte frames. Frame buffers circulate through internal/bufpool: whoever
// ends up holding one — the sender after a copying Send, the receiver after
// Recv or an owned hand-off — returns it there.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nimbus/internal/bufpool"
	"nimbus/internal/simclock"
)

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// Conn is an ordered, reliable, message-oriented connection.
type Conn interface {
	// Send enqueues one message. It must not retain b after returning.
	Send(b []byte) error
	// Recv blocks until a message arrives or the connection closes. The
	// caller owns the result and may recycle it with bufpool.Put
	// (proto.PutBuf) once nothing refers to it.
	Recv() ([]byte, error)
	// Close releases the connection. Pending Recv calls return ErrClosed.
	Close() error
}

// OwnedSender is implemented by Conns that can take ownership of a send
// buffer instead of copying it. Mem implements it: Send's must-not-retain
// contract forces a defensive copy of every frame, which is pure overhead
// when the caller hands over a pooled buffer it will never touch again.
type OwnedSender interface {
	// SendOwned enqueues b, taking ownership. The caller must not use b
	// afterwards, even on error. Delivery hands the same slice to the
	// receiver's Recv.
	SendOwned(b []byte) error
}

// SendOwned sends b over c, transferring buffer ownership when c supports
// it. It reports whether ownership moved: true means the receiver now owns
// b (recycle it there); false means the Conn copied (or flushed) b and the
// caller still owns it — typically to return it to a pool.
func SendOwned(c Conn, b []byte) (owned bool, err error) {
	if os, ok := c.(OwnedSender); ok {
		return true, os.SendOwned(b)
	}
	return false, c.Send(b)
}

// VecSender is implemented by Conns that can send one frame given as two
// slices without joining them first. TCP implements it with a gathered
// write, so a data-plane chunk travels from the object's own storage to the
// socket without crossing user space.
type VecSender interface {
	// SendVec sends the single frame head‖body. It must not retain either
	// slice after returning.
	SendVec(head, body []byte) error
}

// SendVec sends the frame head‖body over c: gathered when c supports it,
// otherwise joined in a pooled buffer and sent by SendOwned — one copy, as
// marshaling the whole message would have made. The caller keeps head and
// body either way.
func SendVec(c Conn, head, body []byte) error {
	if vs, ok := c.(VecSender); ok {
		return vs.SendVec(head, body)
	}
	buf := append(append(bufpool.GetLen(len(head) + len(body))[:0], head...), body...)
	owned, err := SendOwned(c, buf)
	if !owned {
		bufpool.Put(buf)
	}
	return err
}

// BufferedSender is implemented by Conns that can stage a frame and write it
// out later, so a sender with a run of small frames pays one write for the
// run instead of one per frame. TCP implements it on its 64 KiB write
// buffer. Staged frames keep their place in the Conn's one ordered byte
// stream: the Conn's other send methods write out whatever is staged before
// their own frame, and the stage writes itself out when it fills. Nothing
// else writes it out: a caller that stages must Flush before it waits on
// anything, or the peer never sees the frames.
//
// Mem implements it too, with a stage that holds nothing: SendBuffered
// delivers at once and Flush has nothing to do. That is within the contract
// — a stage may write itself out whenever it likes — and it means a sender
// that chooses its framing by whether the Conn has a stage (the worker's
// peer writer puts a run of copies in one frame only on one that does)
// behaves over Mem as it does over TCP. Wrappers that only forward Conn
// (chaos, Counting, the benchmark's tracer) have no stage.
type BufferedSender interface {
	// SendBuffered stages one frame. It must not retain b after returning.
	SendBuffered(b []byte) error
	// Flush writes out every staged frame. An error means any of them may
	// be lost.
	Flush() error
}

// SendBuffered stages b on c when c has a stage (the caller keeps b) and is
// SendOwned otherwise: a Conn without one sends each frame at once, as its
// own frame. owned is SendOwned's.
func SendBuffered(c Conn, b []byte) (owned bool, err error) {
	if bs, ok := c.(BufferedSender); ok {
		return false, bs.SendBuffered(b)
	}
	return SendOwned(c, b)
}

// Flush writes out what SendBuffered staged on c; on a Conn without a stage
// there is nothing to write.
func Flush(c Conn) error {
	if bs, ok := c.(BufferedSender); ok {
		return bs.Flush()
	}
	return nil
}

// Listener accepts inbound connections at an address.
type Listener interface {
	// Accept blocks until an inbound connection arrives.
	Accept() (Conn, error)
	// Close stops the listener.
	Close() error
	// Addr returns the listen address.
	Addr() string
}

// Transport creates and accepts connections.
type Transport interface {
	// Dial connects to the listener at addr.
	Dial(addr string) (Conn, error)
	// Listen starts accepting connections at addr.
	Listen(addr string) (Listener, error)
}

// Mem is an in-process Transport. Connections deliver messages after the
// configured one-way Latency while preserving per-connection FIFO order.
// The zero value is usable with zero latency; use NewMem to set one.
type Mem struct {
	// Latency is the one-way message delay. The default of zero delivers
	// immediately. 100µs approximates an EC2 placement-group hop (the
	// paper's testbed).
	Latency time.Duration

	mu        sync.Mutex
	listeners map[string]*memListener
}

// NewMem returns an in-process transport with the given one-way latency.
func NewMem(latency time.Duration) *Mem {
	return &Mem{Latency: latency}
}

// Listen implements Transport.
func (m *Mem) Listen(addr string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.listeners == nil {
		m.listeners = make(map[string]*memListener)
	}
	if _, ok := m.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	l := &memListener{
		mem:    m,
		addr:   addr,
		accept: make(chan Conn, 16),
		done:   make(chan struct{}),
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (m *Mem) Dial(addr string) (Conn, error) {
	m.mu.Lock()
	l := m.listeners[addr]
	m.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	a, b := Pipe(m.Latency)
	select {
	case l.accept <- b:
		return a, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

type memListener struct {
	mem    *Mem
	addr   string
	accept chan Conn
	done   chan struct{}
	once   sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.mem.mu.Lock()
		delete(l.mem.listeners, l.addr)
		l.mem.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

// Pipe returns a connected pair of in-process connections with the given
// one-way latency. It is exported for tests and for wiring single-process
// clusters without going through Listen/Dial.
func Pipe(latency time.Duration) (Conn, Conn) {
	ab := newMemQueue(latency)
	ba := newMemQueue(latency)
	a := &memConn{in: ba, out: ab}
	b := &memConn{in: ab, out: ba}
	return a, b
}

// memQueue is an unbounded FIFO that releases messages after a latency.
// Senders never block (matching the asynchronous push model of the Nimbus
// data plane) and delivery order is preserved because due times are
// monotone in enqueue order. With zero latency every message is due at once:
// items carry no due time and neither side reads the clock.
type memQueue struct {
	latency time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []memItem
	closed bool
}

type memItem struct {
	due     time.Time
	payload []byte
}

func newMemQueue(latency time.Duration) *memQueue {
	q := &memQueue{latency: latency}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *memQueue) push(b []byte) error {
	buf := make([]byte, len(b))
	copy(buf, b)
	return q.pushOwned(buf)
}

// pushOwned enqueues b without copying; the queue owns it from here and
// delivery hands the same slice to the reader.
func (q *memQueue) pushOwned(b []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	it := memItem{payload: b}
	if q.latency > 0 {
		it.due = time.Now().Add(q.latency)
	}
	q.queue = append(q.queue, it)
	q.cond.Signal()
	return nil
}

func (q *memQueue) pop() ([]byte, error) {
	q.mu.Lock()
	for {
		if len(q.queue) > 0 {
			item := q.queue[0]
			if q.latency > 0 {
				now := time.Now()
				if wait := item.due.Sub(now); wait > 0 {
					// Wait outside the lock, then re-check; only this reader
					// pops, so the head cannot change out from under us except
					// by growing.
					q.mu.Unlock()
					simclock.Wait(wait)
					q.mu.Lock()
					continue
				}
			}
			q.queue = q.queue[1:]
			q.mu.Unlock()
			return item.payload, nil
		}
		if q.closed {
			q.mu.Unlock()
			return nil, ErrClosed
		}
		q.cond.Wait()
	}
}

func (q *memQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

type memConn struct {
	in  *memQueue
	out *memQueue
}

func (c *memConn) Send(b []byte) error      { return c.out.push(b) }
func (c *memConn) SendOwned(b []byte) error { return c.out.pushOwned(b) }
func (c *memConn) Recv() ([]byte, error)    { return c.in.pop() }

// SendBuffered implements BufferedSender with a stage that holds nothing: the
// frame is copied into a pooled buffer (b stays the caller's) and is in the
// peer's queue when the call returns.
func (c *memConn) SendBuffered(b []byte) error {
	return c.out.pushOwned(append(bufpool.GetLen(len(b))[:0], b...))
}

// Flush implements BufferedSender; nothing is ever staged.
func (c *memConn) Flush() error { return nil }
func (c *memConn) Close() error {
	c.in.close()
	c.out.close()
	return nil
}
