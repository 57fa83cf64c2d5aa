// Package chaos is a seeded, deterministic fault-injection layer for
// Nimbus tests. It wraps any transport.Transport and perturbs traffic on
// selected listen addresses according to per-link fault schedules — drop,
// delay, duplicate, reorder, byte-truncate — plus runtime-controlled
// half-open partitions, blackholes and connection severing.
//
// Determinism contract: whether fault f fires for the n-th frame sent on
// a link is a pure function of (seed, listen address, direction, fault
// tag, n). It does not depend on wall-clock time, goroutine scheduling or
// the frame's bytes, so a test that replays the same message sequence
// under the same seed sees the identical fault schedule every run.
// ScheduleDigest folds a prefix of every rule's schedule into one value
// so tests can assert two runs (or two engines) share a schedule before
// trusting a reproduction.
//
// Wrapped connections deliberately implement none of transport.OwnedSender,
// transport.VecSender and transport.BufferedSender: transport.SendOwned,
// transport.SendVec and transport.SendBuffered fall back to the copying Send
// path, so pooled buffers stay owned by the caller even when chaos drops or
// duplicates a frame, every fault sees a frame as one contiguous slice, and
// a frame's ordinal never depends on how a sender's queue happened to drain.
package chaos

import (
	"sync"
	"time"

	"nimbus/internal/transport"
)

// Direction labels one flow of a link relative to its listener.
type Direction byte

const (
	// ToListener covers frames sent by the dialing side (worker/driver →
	// controller, or data sender → receiving worker).
	ToListener Direction = 'd'
	// FromListener covers frames sent by the accepting side.
	FromListener Direction = 'l'
)

// Rule programs the fault schedule for every link dialed to one listen
// address. Probabilities are in [0,1] and evaluated per frame, in the
// order drop, duplicate, reorder, truncate, delay; the first that fires
// wins (a frame suffers at most one fault).
type Rule struct {
	// Addr is the listen address the rule governs.
	Addr string
	// Drop silently discards the frame.
	Drop float64
	// Dup delivers the frame twice.
	Dup float64
	// Reorder holds the frame back and emits it after the next one.
	Reorder float64
	// Truncate cuts a schedule-derived suffix off the frame, modelling a
	// torn write on the wire.
	Truncate float64
	// DelayProb stalls the link for Delay before the frame is sent.
	DelayProb float64
	Delay     time.Duration
}

type action int

const (
	actNone action = iota
	actDrop
	actDup
	actReorder
	actTruncate
	actDelay
)

// Transport wraps an inner transport with fault injection. All methods
// are safe for concurrent use.
type Transport struct {
	inner transport.Transport
	seed  uint64
	rules map[string]Rule
	order []string // rule addresses in insertion order, for the digest

	mu      sync.Mutex
	blocked map[string]blockState
	conns   map[string][]*faultConn
}

type blockState struct {
	toListener   bool
	fromListener bool
}

// New wraps inner with the given seed and per-address rules. Addresses
// without a rule pass traffic through untouched (but still honour
// partitions and Sever).
func New(inner transport.Transport, seed uint64, rules ...Rule) *Transport {
	t := &Transport{
		inner:   inner,
		seed:    seed,
		rules:   make(map[string]Rule, len(rules)),
		blocked: make(map[string]blockState),
		conns:   make(map[string][]*faultConn),
	}
	for _, r := range rules {
		if _, dup := t.rules[r.Addr]; !dup {
			t.order = append(t.order, r.Addr)
		}
		t.rules[r.Addr] = r
	}
	return t
}

// Seed returns the schedule seed.
func (t *Transport) Seed() uint64 { return t.seed }

// Dial implements transport.Transport.
func (t *Transport) Dial(addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(c, addr, ToListener), nil
}

// Listen implements transport.Transport.
func (t *Transport) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &faultListener{t: t, inner: l, addr: addr}, nil
}

func (t *Transport) wrap(c transport.Conn, addr string, dir Direction) *faultConn {
	fc := &faultConn{t: t, inner: c, addr: addr, dir: dir}
	t.mu.Lock()
	t.conns[addr] = append(t.conns[addr], fc)
	t.mu.Unlock()
	return fc
}

func (t *Transport) untrack(fc *faultConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.conns[fc.addr]
	for i, c := range live {
		if c == fc {
			live[i] = live[len(live)-1]
			t.conns[fc.addr] = live[:len(live)-1]
			return
		}
	}
}

// Partition blackholes traffic on links to addr: frames in a blocked
// direction are silently discarded (the sender sees success — a half-open
// network partition, not a connection error). Blocking one direction
// models a half-open partition; blocking both is a full blackhole.
func (t *Transport) Partition(addr string, dirs ...Direction) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.blocked[addr]
	if len(dirs) == 0 {
		b.toListener, b.fromListener = true, true
	}
	for _, d := range dirs {
		switch d {
		case ToListener:
			b.toListener = true
		case FromListener:
			b.fromListener = true
		}
	}
	t.blocked[addr] = b
}

// Heal lifts any partition on addr.
func (t *Transport) Heal(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.blocked, addr)
}

// Sever closes every live connection on addr (both sides observe a
// connection error, like a reset link). New dials proceed normally, so
// reconnect/reattach loops recover through the ordinary retry paths.
func (t *Transport) Sever(addr string) {
	t.mu.Lock()
	live := append([]*faultConn(nil), t.conns[addr]...)
	t.mu.Unlock()
	for _, c := range live {
		_ = c.Close()
	}
}

func (t *Transport) isBlocked(addr string, dir Direction) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.blocked[addr]
	if !ok {
		return false
	}
	if dir == ToListener {
		return b.toListener
	}
	return b.fromListener
}

// prob derives the schedule coin for fault `tag` on frame n of a link:
// an FNV-1a fold of (seed, addr, direction, tag, n) mapped into [0,1).
func (t *Transport) prob(addr string, dir Direction, tag byte, n uint64) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(t.seed >> (8 * i)))
	}
	for i := 0; i < len(addr); i++ {
		mix(addr[i])
	}
	mix(byte(dir))
	mix(tag)
	for i := 0; i < 8; i++ {
		mix(byte(n >> (8 * i)))
	}
	return float64(h>>11) / float64(1<<53)
}

// decide returns the scheduled action for frame n on (addr, dir).
func (t *Transport) decide(addr string, dir Direction, n uint64) (action, time.Duration) {
	r, ok := t.rules[addr]
	if !ok {
		return actNone, 0
	}
	switch {
	case r.Drop > 0 && t.prob(addr, dir, 'D', n) < r.Drop:
		return actDrop, 0
	case r.Dup > 0 && t.prob(addr, dir, 'U', n) < r.Dup:
		return actDup, 0
	case r.Reorder > 0 && t.prob(addr, dir, 'R', n) < r.Reorder:
		return actReorder, 0
	case r.Truncate > 0 && t.prob(addr, dir, 'T', n) < r.Truncate:
		return actTruncate, 0
	case r.DelayProb > 0 && t.prob(addr, dir, 'L', n) < r.DelayProb:
		return actDelay, r.Delay
	}
	return actNone, 0
}

// digestWindow is how many per-link frame slots ScheduleDigest folds.
const digestWindow = 64

// ScheduleDigest folds the first digestWindow scheduled actions of every
// rule, in both directions, into a single value. Two Transports with the
// same seed and rules produce the same digest; tests assert it to prove a
// reproduction runs under the identical fault schedule.
func (t *Transport) ScheduleDigest() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, addr := range t.order {
		for _, dir := range []Direction{ToListener, FromListener} {
			for n := uint64(0); n < digestWindow; n++ {
				act, _ := t.decide(addr, dir, n)
				h ^= uint64(act) + 1
				h *= prime64
			}
		}
	}
	return h
}

// truncCut picks how many trailing bytes a truncate fault removes from a
// frame of size sz — at least 1, never the whole frame's first byte.
func (t *Transport) truncCut(addr string, dir Direction, n uint64, sz int) int {
	if sz <= 1 {
		return 0
	}
	max := sz - 1
	if max > 16 {
		max = 16
	}
	return 1 + int(uint64(t.prob(addr, dir, 'C', n)*float64(1<<20)))%max
}

// faultListener wraps accepted connections.
type faultListener struct {
	t     *Transport
	inner transport.Listener
	addr  string
}

func (l *faultListener) Accept() (transport.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c, l.addr, FromListener), nil
}

func (l *faultListener) Close() error { return l.inner.Close() }

func (l *faultListener) Addr() string { return l.inner.Addr() }

// faultConn applies the schedule to outbound frames. It intentionally
// implements only transport.Conn, none of the transport's optional send
// capabilities — see the package comment.
type faultConn struct {
	t     *Transport
	inner transport.Conn
	addr  string
	dir   Direction

	mu   sync.Mutex
	n    uint64 // frames offered to Send on this side
	held []byte // frame parked by a reorder fault
}

func (c *faultConn) Send(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n++
	if c.t.isBlocked(c.addr, c.dir) {
		// Half-open partition: the sender sees success, the frame is gone.
		return nil
	}
	act, delay := c.t.decide(c.addr, c.dir, n)
	switch act {
	case actDrop:
		return nil
	case actDup:
		if err := c.inner.Send(b); err != nil {
			return err
		}
		if err := c.inner.Send(b); err != nil {
			return err
		}
		return c.flushHeld()
	case actReorder:
		if c.held != nil {
			// Already holding one frame; emit oldest-first rather than
			// parking unboundedly.
			if err := c.flushHeld(); err != nil {
				return err
			}
		}
		c.held = append([]byte(nil), b...)
		return nil
	case actTruncate:
		cut := c.t.truncCut(c.addr, c.dir, n, len(b))
		if err := c.inner.Send(b[:len(b)-cut]); err != nil {
			return err
		}
		return c.flushHeld()
	case actDelay:
		time.Sleep(delay)
	}
	if err := c.inner.Send(b); err != nil {
		return err
	}
	return c.flushHeld()
}

// flushHeld emits a reorder-parked frame after its successor has gone out
// (a one-frame transposition). Caller holds c.mu.
func (c *faultConn) flushHeld() error {
	if c.held == nil {
		return nil
	}
	b := c.held
	c.held = nil
	return c.inner.Send(b)
}

func (c *faultConn) Recv() ([]byte, error) { return c.inner.Recv() }

func (c *faultConn) Close() error {
	c.t.untrack(c)
	return c.inner.Close()
}
