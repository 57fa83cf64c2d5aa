package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"nimbus/internal/proto"
)

// This file is how a client opens a control connection: a dial retried
// with capped exponential backoff and jitter, then one hello exchange
// under a deadline. A refused connection is an expected, transient
// condition in this system — a worker may start before the controller
// listens, and during a controller failover every worker and driver races
// the standby's promotion to the listen endpoint — so the dial paths retry
// instead of failing hard. Jitter desynchronizes the reconnect stampede
// after an outage (every worker notices the dead controller within
// microseconds of each other). A hello that gets no answer — lost in a
// partition, or sent to a peer that stopped reading — is the same kind of
// fault: the exchange gives up at its deadline and the caller dials again.

// HelloTimeout bounds both halves of opening a control connection: the
// window in which a client's dial retries an endpoint that refuses it, and
// how long either side waits for the other's hello — the client for its
// reply, the controller for a fresh connection's first frame.
const HelloTimeout = 2000 * time.Millisecond

// Backoff computes capped exponential backoff delays with jitter. The
// zero value uses the defaults noted on each field.
type Backoff struct {
	// Base is the first delay (default 2ms).
	Base time.Duration
	// Max caps the delay growth (default 250ms).
	Max time.Duration
	// Factor is the per-attempt growth multiplier (default 2).
	Factor float64
	// Jitter is the fraction of each delay that is randomized: the delay
	// for attempt n is uniform in [d*(1-Jitter), d] where d is the capped
	// exponential value (default 0.5).
	Jitter float64
}

func (b Backoff) base() time.Duration { return defDur(b.Base, 2*time.Millisecond) }
func (b Backoff) max() time.Duration  { return defDur(b.Max, 250*time.Millisecond) }
func (b Backoff) factor() float64 {
	if b.Factor <= 1 {
		return 2
	}
	return b.Factor
}
func (b Backoff) jitter() float64 {
	if b.Jitter < 0 || b.Jitter > 1 {
		return 0.5
	}
	if b.Jitter == 0 {
		return 0.5
	}
	return b.Jitter
}

func defDur(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// Delay returns the backoff delay for the given zero-based attempt,
// drawing jitter from rng (which may be nil for an unseeded source).
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(b.base())
	cap := float64(b.max())
	for i := 0; i < attempt && d < cap; i++ {
		d *= b.factor()
	}
	if d > cap {
		d = cap
	}
	j := b.jitter()
	var u float64
	if rng != nil {
		u = rng.Float64()
	} else {
		u = rand.Float64()
	}
	d *= 1 - j*u
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// DialRetry dials addr through tr, retrying transient failures with
// backoff until it succeeds, attempts dials have failed (attempts <= 0
// means no attempt limit), deadline passes (zero means no deadline), or
// cancel is closed. It returns the last dial error wrapped with the
// attempt count.
func DialRetry(tr Transport, addr string, b Backoff, attempts int, deadline time.Duration, cancel <-chan struct{}) (Conn, error) {
	var (
		last  error
		timer <-chan time.Time
	)
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timer = t.C
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 0; ; attempt++ {
		conn, err := tr.Dial(addr)
		if err == nil {
			return conn, nil
		}
		last = err
		if attempts > 0 && attempt+1 >= attempts {
			return nil, fmt.Errorf("transport: dial %s failed after %d attempts: %w", addr, attempt+1, last)
		}
		select {
		case <-time.After(b.Delay(attempt, rng)):
		case <-timer:
			return nil, fmt.Errorf("transport: dial %s deadline exceeded: %w", addr, last)
		case <-cancel:
			return nil, fmt.Errorf("transport: dial %s canceled: %w", addr, last)
		}
	}
}

// Exchange sends hello on conn and returns the messages of the first frame
// the peer answers with. deadline (zero means none) bounds the wait and a
// closed cancel (nil means never) ends it; either closes conn, and a reply
// that races the deadline counts as a timeout. On any error conn is closed.
func Exchange(conn Conn, hello proto.Msg, deadline time.Duration, cancel <-chan struct{}) (reply []proto.Msg, err error) {
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	if cancel != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-cancel:
				conn.Close()
			case <-done:
			}
		}()
	}
	var timer *time.Timer
	if deadline > 0 {
		timer = time.AfterFunc(deadline, func() { conn.Close() })
	}
	buf := proto.MarshalAppend(proto.GetBuf(), hello)
	owned, err := SendOwned(conn, buf)
	if !owned {
		proto.PutBuf(buf)
	}
	var raw []byte
	if err == nil {
		raw, err = conn.Recv()
	}
	if timer != nil && !timer.Stop() {
		if err == nil {
			proto.PutBuf(raw)
		}
		return nil, fmt.Errorf("transport: no reply to %s within %v", hello.Kind(), deadline)
	}
	if err != nil {
		return nil, err
	}
	err = proto.ForEachMsg(raw, func(m proto.Msg) error {
		reply = append(reply, m)
		return nil
	})
	proto.PutBuf(raw)
	if err == nil && len(reply) == 0 {
		err = errors.New("empty frame")
	}
	if err != nil {
		return nil, fmt.Errorf("transport: reply to %s: %w", hello.Kind(), err)
	}
	return reply, nil
}

// ListenRetry binds addr through tr, retrying with backoff while the
// address is still held (a deposed controller's listener being torn down,
// or a TCP port in TIME_WAIT). Zero deadline means a single attempt's
// default budget of one second.
func ListenRetry(tr Transport, addr string, b Backoff, deadline time.Duration, cancel <-chan struct{}) (Listener, error) {
	if deadline <= 0 {
		deadline = time.Second
	}
	var last error
	t := time.NewTimer(deadline)
	defer t.Stop()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 0; ; attempt++ {
		lis, err := tr.Listen(addr)
		if err == nil {
			return lis, nil
		}
		last = err
		select {
		case <-time.After(b.Delay(attempt, rng)):
		case <-t.C:
			return nil, fmt.Errorf("transport: listen %s deadline exceeded: %w", addr, last)
		case <-cancel:
			return nil, fmt.Errorf("transport: listen %s canceled: %w", addr, last)
		}
	}
}
