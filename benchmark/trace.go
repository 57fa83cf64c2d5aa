package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// role says which node a wrapped transport was handed to.
type role uint8

const (
	roleDriver role = iota
	roleController
	roleWorker
)

// link is a class of connection, told apart from outside the nodes: by who
// dialed, which address, and (for connections the controller accepted) the
// kind byte of the first frame received.
type link uint32

const (
	linkUnknown link = iota
	drvCtl
	ctlWkr
	wkrWkr
	numLinks
)

var linkNames = [numLinks]string{linkUnknown: "unknown", drvCtl: "drv_ctl", ctlWkr: "ctl_wkr", wkrWkr: "wkr_wkr"}

// linkStats counts one link class in one direction. up is dialer to
// listener (driver and worker requests, data chunks), down the reverse
// (controller fan-out, credits).
type linkStats struct {
	frames, bytes, nanos atomic.Int64
}

// span is one timed interval. Driver spans are recorded by the run loop,
// send spans by the wrapper.
type span struct {
	name  string
	iter  int64
	start time.Duration // since the measured phase began
	dur   time.Duration
	bytes int
}

// sendSpanStride samples which iterations keep one span per Send. Every
// Send is counted and timed; keeping a span for each would hold ~450 spans
// per LR iteration, 8 million per run, in memory. The stride is coprime to
// churn_mem's periods so steady, edit and resize iterations all appear.
const sendSpanStride = 97

// tracer wraps the transports of a traced run. It records only while on is
// set (the measured phase), and tags what it sees with the iteration in
// flight, which is exact because the loop keeps one iteration outstanding.
type tracer struct {
	ctlAddr string
	epoch   time.Time
	on      atomic.Bool
	iter    atomic.Int64
	stats   [numLinks][2]linkStats

	// captureIter is the measured iteration whose frames are copied for
	// the codec probes.
	captureIter int64

	mu       sync.Mutex
	spans    []span
	captured []capturedFrame
}

type capturedFrame struct {
	link link
	raw  []byte
}

type tracedTransport struct {
	t     *tracer
	role  role
	inner transport.Transport
}

func (tt *tracedTransport) Dial(addr string) (transport.Conn, error) {
	c, err := tt.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	l := wkrWkr
	switch {
	case tt.role == roleDriver:
		l = drvCtl
	case addr == tt.t.ctlAddr:
		l = ctlWkr
	}
	return tt.t.conn(c, l, 0), nil
}

func (tt *tracedTransport) Listen(addr string) (transport.Listener, error) {
	lis, err := tt.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	// A worker only listens on its data address; what the controller
	// accepts is classified by the first frame.
	l := linkUnknown
	if tt.role == roleWorker {
		l = wkrWkr
	}
	return &tracedListener{Listener: lis, t: tt.t, link: l}, nil
}

type tracedListener struct {
	transport.Listener
	t    *tracer
	link link
}

func (tl *tracedListener) Accept() (transport.Conn, error) {
	c, err := tl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tl.t.conn(c, tl.link, 1), nil
}

// conn wraps c. Only a Conn that can take ownership of a send buffer gets
// a SendOwned method: the wrapper must neither drop Mem's zero-copy
// hand-off nor claim buffers TCP would have left with the caller's pool.
func (t *tracer) conn(c transport.Conn, l link, dir int) transport.Conn {
	tc := &tracedConn{Conn: c, t: t, dir: dir}
	tc.link.Store(uint32(l))
	if os, ok := c.(transport.OwnedSender); ok {
		return &tracedOwnedConn{tracedConn: tc, owned: os}
	}
	return tc
}

type tracedConn struct {
	transport.Conn
	t    *tracer
	dir  int
	link atomic.Uint32
}

func (c *tracedConn) Recv() ([]byte, error) {
	b, err := c.Conn.Recv()
	if err == nil && len(b) > 0 && link(c.link.Load()) == linkUnknown {
		l := ctlWkr
		if proto.MsgKind(b[0]) == proto.KindRegisterDriver {
			l = drvCtl
		}
		c.link.Store(uint32(l))
	}
	return b, err
}

func (c *tracedConn) Send(b []byte) error {
	return c.send(b, c.Conn.Send)
}

type tracedOwnedConn struct {
	*tracedConn
	owned transport.OwnedSender
}

func (c *tracedOwnedConn) SendOwned(b []byte) error {
	return c.send(b, c.owned.SendOwned)
}

func (c *tracedConn) send(b []byte, forward func([]byte) error) error {
	t := c.t
	if !t.on.Load() {
		return forward(b)
	}
	l, n, it := link(c.link.Load()), len(b), t.iter.Load()
	if it == t.captureIter {
		// Copy before forwarding: an owned buffer is gone afterwards.
		raw := append([]byte(nil), b...)
		t.mu.Lock()
		t.captured = append(t.captured, capturedFrame{link: l, raw: raw})
		t.mu.Unlock()
	}
	start := time.Now()
	err := forward(b)
	d := time.Since(start)
	st := &t.stats[l][c.dir]
	st.frames.Add(1)
	st.bytes.Add(int64(n))
	st.nanos.Add(int64(d))
	if it%sendSpanStride == 0 {
		t.mu.Lock()
		t.spans = append(t.spans, span{name: "send." + linkNames[l], iter: it, start: start.Sub(t.epoch), dur: d, bytes: n})
		t.mu.Unlock()
	}
	return err
}

// total sums a link class over both directions.
func (t *tracer) total(l link) (frames, bytes, nanos int64) {
	for dir := range t.stats[l] {
		st := &t.stats[l][dir]
		frames += st.frames.Load()
		bytes += st.bytes.Load()
		nanos += st.nanos.Load()
	}
	return
}

// writeSpans writes the span file: one JSON object per line, driver spans
// for every iteration, then the sampled send spans. parent names the
// enclosing span of the same iteration.
func writeSpans(path string, driverSpans, sendSpans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, group := range [][]span{driverSpans, sendSpans} {
		for _, s := range group {
			parent := "iter"
			if s.name == "iter" {
				parent = ""
			}
			fmt.Fprintf(w, `{"name":%q,"parent":%q,"iter":%d,"start_us":%.3f,"dur_us":%.3f,"bytes":%d}`+"\n",
				s.name, parent, s.iter, float64(s.start)/1e3, float64(s.dur)/1e3, s.bytes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
