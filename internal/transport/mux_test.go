package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/proto"
)

// frameCounter counts the frames sent over a Conn.
type frameCounter struct {
	Conn
	frames atomic.Uint64
}

func (c *frameCounter) Send(b []byte) error {
	c.frames.Add(1)
	return c.Conn.Send(b)
}

func (c *frameCounter) SendOwned(b []byte) error {
	c.frames.Add(1)
	_, err := SendOwned(c.Conn, b)
	return err
}

// served is one session the gateway accepted, with the shared connection
// it rides.
type served struct {
	srv  *MuxServer
	conn Conn
}

// gateway serves shared connections on a Mem listener with no controller
// behind it: it reads each connection's GatewayHello, wraps the connection
// in a frameCounter and hands every new session to the accepted channel.
type gateway struct {
	mem      *Mem
	addr     string
	accepted chan served
	shared   chan *frameCounter

	mu      sync.Mutex
	servers []*MuxServer
}

func startGateway(t *testing.T) *gateway {
	t.Helper()
	// The buffers hold more sessions and shared connections than any test
	// opens, so the accept callback and the accept loop never block.
	g := &gateway{
		mem:      NewMem(0),
		addr:     "gw",
		accepted: make(chan served, 64),
		shared:   make(chan *frameCounter, 8),
	}
	l, err := g.mem.Listen(g.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		l.Close()
		g.mu.Lock()
		defer g.mu.Unlock()
		for _, srv := range g.servers {
			srv.Close()
		}
	})
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			hello, err := conn.Recv()
			if err != nil {
				continue
			}
			if m, err := proto.Unmarshal(hello); err != nil || m.Kind() != proto.KindGatewayHello {
				t.Errorf("first frame on a shared connection = %v, %v; want GatewayHello", m, err)
				conn.Close()
				continue
			}
			fc := &frameCounter{Conn: conn}
			var srv *MuxServer
			srv = NewMuxServer(fc, func(s Conn) { g.accepted <- served{srv, s} })
			g.mu.Lock()
			g.servers = append(g.servers, srv)
			g.mu.Unlock()
			g.shared <- fc
			go srv.Serve()
		}
	}()
	return g
}

// accept returns the next session the gateway opened.
func (g *gateway) accept(t *testing.T) served {
	t.Helper()
	select {
	case s := <-g.accepted:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("no session opened within 5s")
		return served{}
	}
}

// noAccept checks that the gateway opened no further session.
func (g *gateway) noAccept(t *testing.T) {
	t.Helper()
	select {
	case s := <-g.accepted:
		t.Fatalf("unexpected session opened on %p", s.srv)
	default:
	}
}

// rawShared dials a shared connection without a Mux, so a test can write
// envelopes by hand. It sends the GatewayHello and waits for the gateway to
// serve the connection.
func (g *gateway) rawShared(t *testing.T) Conn {
	t.Helper()
	conn, err := g.mem.Dial(g.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sendMsgs(t, conn, &proto.GatewayHello{})
	<-g.shared
	return conn
}

// sendMsgs writes msgs as one batch frame.
func sendMsgs(t *testing.T, conn Conn, msgs ...proto.Msg) {
	t.Helper()
	if err := conn.Send(proto.AppendBatch(nil, msgs)); err != nil {
		t.Fatal(err)
	}
}

// recvMsgs reads one frame and decodes every message in it.
func recvMsgs(t *testing.T, conn Conn) []proto.Msg {
	t.Helper()
	raw, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var out []proto.Msg
	if err := proto.ForEachMsg(raw, func(m proto.Msg) error {
		out = append(out, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func recvString(t *testing.T, c Conn) string {
	t.Helper()
	b, err := c.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return string(b)
}

// openSessions dials n sessions through m, each introducing itself with its
// index, and returns the client sessions and their gateway sides in order.
func openSessions(t *testing.T, g *gateway, m *Mux, n int) ([]Conn, []served) {
	t.Helper()
	clients := make([]Conn, n)
	servers := make([]served, n)
	for i := range clients {
		c, err := m.Dial(g.addr)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		if err := c.Send([]byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		servers[i] = g.accept(t)
		if got := recvString(t, servers[i].conn); got != fmt.Sprint(i) {
			t.Fatalf("session %d opened with %q", i, got)
		}
	}
	return clients, servers
}

// roundTrip checks that one session still carries traffic both ways.
func roundTrip(t *testing.T, client Conn, srv Conn, tag string) {
	t.Helper()
	if err := client.Send([]byte("ping-" + tag)); err != nil {
		t.Fatalf("%s: client send: %v", tag, err)
	}
	if got := recvString(t, srv); got != "ping-"+tag {
		t.Fatalf("%s: gateway got %q", tag, got)
	}
	if err := srv.Send([]byte("pong-" + tag)); err != nil {
		t.Fatalf("%s: gateway send: %v", tag, err)
	}
	if got := recvString(t, client); got != "pong-"+tag {
		t.Fatalf("%s: client got %q", tag, got)
	}
}

// TestSessionFlushOneFramePerSharedConn: messages staged on K sessions of
// one shared connection leave in exactly one transport frame at Flush, and
// each reaches its own session.
func TestSessionFlushOneFramePerSharedConn(t *testing.T) {
	const k = 8
	g := startGateway(t)
	m := NewMux(g.mem, 1)
	defer m.Close()
	clients, servers := openSessions(t, g, m, k)
	fc := <-g.shared

	before := fc.frames.Load()
	for i, s := range servers {
		owned, err := SendBuffered(s.conn, []byte(fmt.Sprintf("reply-%d", i)))
		if owned || err != nil {
			t.Fatalf("session %d: SendBuffered owned=%v err=%v, want a stage", i, owned, err)
		}
	}
	if n := fc.frames.Load() - before; n != 0 {
		t.Fatalf("%d frames sent before Flush, want 0", n)
	}
	if err := Flush(servers[k-1].conn); err != nil {
		t.Fatal(err)
	}
	if n := fc.frames.Load() - before; n != 1 {
		t.Fatalf("Flush of %d staged sessions sent %d frames, want 1", k, n)
	}
	for i, c := range clients {
		if got, want := recvString(t, c), fmt.Sprintf("reply-%d", i); got != want {
			t.Errorf("session %d got %q, want %q", i, got, want)
		}
	}
	if err := Flush(servers[0].conn); err != nil {
		t.Fatal(err)
	}
	if n := fc.frames.Load() - before; n != 1 {
		t.Fatalf("a Flush with nothing staged sent a frame (%d in all)", n)
	}
	if got := servers[0].srv.Sessions(); got != k {
		t.Errorf("gateway counts %d sessions, want %d", got, k)
	}
}

// TestSessionSeqGapFailsOnlyItsSharedConn: an envelope sequence gap fails
// every session on the shared connection that carried it, on whichever
// half detects it, and no session on another shared connection.
func TestSessionSeqGapFailsOnlyItsSharedConn(t *testing.T) {
	t.Run("serving half detects", func(t *testing.T) {
		g := startGateway(t)
		raw := g.rawShared(t)
		sendMsgs(t, raw,
			&proto.MuxData{Session: 1, Seq: 1, Raw: []byte("a")},
			&proto.MuxData{Session: 2, Seq: 2, Raw: []byte("b")})
		victims := []served{g.accept(t), g.accept(t)}
		neighbor := NewMux(g.mem, 1)
		defer neighbor.Close()
		nclients, nservers := openSessions(t, g, neighbor, 2)

		sendMsgs(t, raw, &proto.MuxData{Session: 1, Seq: 4, Raw: []byte("after a lost frame")})
		for i, v := range victims {
			if got := recvString(t, v.conn); got != string("ab"[i]) {
				t.Fatalf("victim %d read %q before failing", i, got)
			}
			if _, err := v.conn.Recv(); err == nil || !strings.Contains(err.Error(), "seq") {
				t.Fatalf("victim %d: Recv err = %v, want the sequence error", i, err)
			}
		}
		if _, err := raw.Recv(); err == nil {
			t.Fatal("the faulted shared connection is still open")
		}
		for i := range nclients {
			roundTrip(t, nclients[i], nservers[i].conn, fmt.Sprint("neighbor-", i))
		}
	})

	t.Run("dialing half detects", func(t *testing.T) {
		mem := NewMem(0)
		l, err := mem.Listen("gw")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		victim := NewMux(mem, 1)
		defer victim.Close()
		neighbor := NewMux(mem, 1)
		defer neighbor.Close()
		dial := func(m *Mux) (Conn, Conn) {
			c, err := m.Dial("gw")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Send([]byte("hi")); err != nil {
				t.Fatal(err)
			}
			s, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			recvMsgs(t, s) // GatewayHello
			recvMsgs(t, s) // the session's first envelope
			return c, s
		}
		v1, vs := dial(victim)
		v2, err := victim.Dial("gw")
		if err != nil {
			t.Fatal(err)
		}
		n1, ns := dial(neighbor)

		sendMsgs(t, vs, &proto.MuxData{Session: 1, Seq: 2, Raw: []byte("gap")})
		sendMsgs(t, ns, &proto.MuxData{Session: 1, Seq: 1, Raw: []byte("fine")})
		for i, v := range []Conn{v1, v2} {
			if _, err := v.Recv(); err == nil || !strings.Contains(err.Error(), "seq") {
				t.Fatalf("victim %d: Recv err = %v, want the sequence error", i, err)
			}
		}
		if got := recvString(t, n1); got != "fine" {
			t.Fatalf("neighbor got %q", got)
		}
	})
}

// TestSessionCloseFromEitherSide: a SessionClose from either half ends
// exactly that session, Recv returns ErrClosed after what was delivered,
// and neighbor sessions on the same shared connection carry on.
func TestSessionCloseFromEitherSide(t *testing.T) {
	g := startGateway(t)
	m := NewMux(g.mem, 1)
	defer m.Close()
	clients, servers := openSessions(t, g, m, 3)
	fc := <-g.shared

	// The dialing half closes session 0 right behind one last frame.
	if err := clients[0].Send([]byte("last")); err != nil {
		t.Fatal(err)
	}
	clients[0].Close()
	if got := recvString(t, servers[0].conn); got != "last" {
		t.Fatalf("gateway read %q before the close", got)
	}
	if _, err := servers[0].conn.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("gateway Recv after the peer's close: %v, want ErrClosed", err)
	}
	// The peer closed first, so the gateway's Close owes nothing.
	before := fc.frames.Load()
	servers[0].conn.Close()
	if err := Flush(servers[0].conn); err != nil {
		t.Fatal(err)
	}
	if n := fc.frames.Load() - before; n != 0 {
		t.Fatalf("closing a peer-closed session sent %d frames", n)
	}

	// The serving half closes session 1; the close leaves with the flush.
	servers[1].conn.Close()
	if err := Flush(servers[1].conn); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[1].Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("client Recv after the gateway's close: %v, want ErrClosed", err)
	}
	if err := clients[1].Send([]byte("too late")); err == nil {
		t.Fatal("send on a session the gateway closed succeeded")
	}
	// The dialing half answers the close, so the gateway forgets it.
	waitFor(t, "the gateway to forget the closed session", func() bool {
		sh := servers[1].srv.sh
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return len(sh.closing) == 0
	})
	if got := servers[2].srv.Sessions(); got != 1 {
		t.Errorf("gateway counts %d sessions, want 1", got)
	}
	if got := m.Sessions(); got != 1 {
		t.Errorf("mux counts %d sessions, want 1", got)
	}
	roundTrip(t, clients[2], servers[2].conn, "neighbor")
}

// TestSessionLateEnvelopeAfterServerClose: an envelope that crosses the
// gateway's SessionClose in flight is dropped. It opens no new session, so
// nothing behind the gateway ever sees it as a session's first frame, and
// the neighbor session on the same shared connection is undisturbed.
func TestSessionLateEnvelopeAfterServerClose(t *testing.T) {
	g := startGateway(t)
	raw := g.rawShared(t)
	sendMsgs(t, raw,
		&proto.MuxData{Session: 1, Seq: 1, Raw: []byte("open-1")},
		&proto.MuxData{Session: 2, Seq: 2, Raw: []byte("open-2")})
	closed, neighbor := g.accept(t), g.accept(t)
	recvString(t, closed.conn)
	recvString(t, neighbor.conn)

	closed.conn.Close()
	if err := Flush(closed.conn); err != nil {
		t.Fatal(err)
	}
	got := recvMsgs(t, raw)
	if sc, ok := got[0].(*proto.SessionClose); len(got) != 1 || !ok || sc.Session != 1 {
		t.Fatalf("gateway sent %v, want SessionClose for session 1", got)
	}

	sendMsgs(t, raw,
		&proto.MuxData{Session: 1, Seq: 3, Raw: []byte("late")},
		&proto.MuxData{Session: 2, Seq: 4, Raw: []byte("after")})
	if got := recvString(t, neighbor.conn); got != "after" {
		t.Fatalf("neighbor got %q", got)
	}
	g.noAccept(t)
	if _, err := closed.conn.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed session Recv = %v, want ErrClosed", err)
	}
	if err := neighbor.conn.Send([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	if got := recvMsgs(t, raw); len(got) != 1 || string(got[0].(*proto.MuxData).Raw) != "still here" {
		t.Fatalf("neighbor reply = %v", got)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
