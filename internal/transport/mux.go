package transport

// This file is the gateway session mux, both halves: many driver sessions
// multiplexed over a few shared connections, each session an ordinary Conn.
//
// The dialing half is Mux, itself a Transport whose Dial returns a session
// instead of a dedicated wire: the first DefaultMaxConns sessions each open
// a shared connection (introduced by a GatewayHello frame), later ones ride
// the least-loaded live one. The serving half is MuxServer: it demuxes one
// accepted shared connection on its reader, which delivers each session's
// frames and end to the session's SessionSink: a served session costs no
// goroutine. Between them every frame is a batch of MuxData{Session, Seq, Raw}
// envelopes, where Raw is one session frame, plus top-level SessionClose
// notices. Neither half reads Raw, so the protocol inside a session is
// byte-identical to a dedicated connection's.
//
// Sending. A session stages each frame as an envelope on its shared
// connection; one flush writes everything staged there, from every
// session, as one batch frame. The dialing half flushes from a writer
// goroutine, so a burst from many sessions coalesces into the next frame.
// The serving half flushes in the caller: its sessions are BufferedSenders,
// and one Flush on any of them writes the whole shared connection's stage.
//
// Sequencing. MuxData.Seq counts envelopes per shared connection and
// direction from 1. A gap, replay or reorder means the shared stream is
// corrupt; the receiving half closes the shared connection and fails every
// session on it with the sequence error, and no session anywhere else.
//
// Closing. A session closes from either side. Close sends SessionClose
// unless the peer closed the session first. A dialing-half session then
// fails its Recv with ErrClosed once the frames already delivered are read;
// a served session's sink is told, after its last frame.
// The serving half remembers a session it closed until the dialing half
// answers with its own SessionClose, so an envelope that crossed the close
// in flight is dropped rather than taken for a new session.

import (
	"fmt"
	"sync"

	"nimbus/internal/bufpool"
	"nimbus/internal/proto"
)

// DefaultMaxConns is the shared-connection bound of a Mux built with
// maxConns <= 0: the front-door benchmark drives 10k sessions over this
// many wires.
const DefaultMaxConns = 16

// shared is one shared connection, either half.
type shared struct {
	conn Conn
	// accept is the serving half's callback for a new session ID. The
	// dialing half has none: it opens sessions itself and never on the
	// peer's word.
	accept func(Conn) SessionSink
	// wake signals the dialing half's writer goroutine. The serving half
	// has none; its Flush writes in the caller.
	wake *sync.Cond

	mu       sync.Mutex
	sessions map[uint64]*session
	// closing holds sessions the serving half closed whose answering
	// SessionClose has not arrived yet.
	closing map[uint64]struct{}
	// staged holds outbound messages in send order: MuxData envelopes,
	// whose Raw buffers the stage owns, and SessionClose notices.
	staged []proto.Msg
	dead   error

	// wmu serializes flushes, so Seq order is wire order.
	wmu     sync.Mutex
	sendSeq uint64
	// recvSeq belongs to the reader.
	recvSeq uint64
}

func newShared(conn Conn, accept func(Conn) SessionSink) *shared {
	sh := &shared{conn: conn, accept: accept, sessions: make(map[uint64]*session)}
	if accept != nil {
		sh.closing = make(map[uint64]struct{})
	} else {
		sh.wake = sync.NewCond(&sh.mu)
	}
	return sh
}

// load reports the live sessions on the connection.
func (sh *shared) load() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.sessions)
}

func (sh *shared) isDead() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dead != nil
}

// open registers a new session. Caller holds sh.mu.
func (sh *shared) open(id uint64) *session {
	s := &session{sh: sh, id: id}
	s.cond = sync.NewCond(&s.mu)
	sh.sessions[id] = s
	return s
}

// stage appends one outbound message. It takes ownership of a MuxData's
// Raw, releasing it here if the connection is dead.
func (sh *shared) stage(m proto.Msg) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.dead != nil {
		if md, ok := m.(*proto.MuxData); ok {
			bufpool.Put(md.Raw)
		}
		return sh.dead
	}
	sh.staged = append(sh.staged, m)
	return nil
}

// kick writes out the stage: in the caller on the serving half, by waking
// the writer on the dialing half.
func (sh *shared) kick() error {
	if sh.wake == nil {
		return sh.flush()
	}
	sh.mu.Lock()
	sh.wake.Signal()
	sh.mu.Unlock()
	return nil
}

// flush writes everything staged as one batch frame, numbering the
// envelopes as it goes.
func (sh *shared) flush() error {
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	sh.mu.Lock()
	batch, dead := sh.staged, sh.dead
	sh.staged = nil
	sh.mu.Unlock()
	if dead != nil {
		return dead
	}
	if len(batch) == 0 {
		return nil
	}
	for _, m := range batch {
		if md, ok := m.(*proto.MuxData); ok {
			sh.sendSeq++
			md.Seq = sh.sendSeq
		}
	}
	buf := proto.AppendBatch(proto.GetBuf(), batch)
	for _, m := range batch {
		if md, ok := m.(*proto.MuxData); ok {
			bufpool.Put(md.Raw)
		}
	}
	owned, err := SendOwned(sh.conn, buf)
	if !owned {
		bufpool.Put(buf)
	}
	if err != nil {
		sh.fail(err)
	}
	return err
}

// writeLoop is the dialing half's writer: one batch frame per wakeup.
func (sh *shared) writeLoop() {
	for {
		sh.mu.Lock()
		for len(sh.staged) == 0 && sh.dead == nil {
			sh.wake.Wait()
		}
		dead := sh.dead
		sh.mu.Unlock()
		if dead != nil || sh.flush() != nil {
			return
		}
	}
}

// readLoop demuxes inbound frames until the connection fails, then ends
// every session still open on it with the error that failed it.
func (sh *shared) readLoop() error {
	for {
		raw, err := sh.conn.Recv()
		if err != nil {
			err = fmt.Errorf("transport: shared connection lost: %w", err)
		} else {
			err = proto.ForEachMsg(raw, sh.demux)
			bufpool.Put(raw)
		}
		if err == nil {
			continue
		}
		sh.fail(err)
		sh.mu.Lock()
		err, sessions := sh.dead, sh.sessions
		sh.sessions = make(map[uint64]*session)
		sh.mu.Unlock()
		for _, s := range sessions {
			s.end(err)
		}
		return err
	}
}

// demux routes one inbound message. An envelope for an unknown session
// opens it on the serving half and is dropped on the dialing half; an
// envelope for a session the serving half closed is dropped.
func (sh *shared) demux(m proto.Msg) error {
	switch m := m.(type) {
	case *proto.MuxData:
		sh.recvSeq++
		if m.Seq != sh.recvSeq {
			return fmt.Errorf("transport: envelope seq %d, want %d: frame lost or reordered on shared connection", m.Seq, sh.recvSeq)
		}
		sh.mu.Lock()
		s := sh.sessions[m.Session]
		_, closing := sh.closing[m.Session]
		opened := s == nil && sh.accept != nil && !closing && sh.dead == nil
		if opened {
			s = sh.open(m.Session)
		}
		sh.mu.Unlock()
		if s == nil {
			return nil
		}
		if opened {
			s.sink = sh.accept(s)
		}
		s.push(m.Raw)
	case *proto.SessionClose:
		sh.mu.Lock()
		s := sh.sessions[m.Session]
		delete(sh.sessions, m.Session)
		delete(sh.closing, m.Session)
		sh.mu.Unlock()
		if s == nil {
			return nil
		}
		s.end(ErrClosed)
		if sh.accept == nil {
			// Answer, so the serving half forgets the session.
			if sh.stage(&proto.SessionClose{Session: m.Session}) == nil {
				sh.kick()
			}
		}
	default:
		return fmt.Errorf("transport: unexpected top-level %s on shared connection", m.Kind())
	}
	return nil
}

// fail marks the connection dead and closes the wire. Idempotent. The
// dialing half fails its sessions with err at once; the serving half's end
// on the reader, which the closed wire stops.
func (sh *shared) fail(err error) {
	sh.mu.Lock()
	if sh.dead != nil {
		sh.mu.Unlock()
		return
	}
	sh.dead = err
	staged := sh.staged
	sh.staged = nil
	var sessions map[uint64]*session
	if sh.wake != nil {
		sessions, sh.sessions = sh.sessions, make(map[uint64]*session)
		sh.wake.Broadcast()
	}
	sh.mu.Unlock()
	for _, m := range staged {
		if md, ok := m.(*proto.MuxData); ok {
			bufpool.Put(md.Raw)
		}
	}
	sh.conn.Close()
	for _, s := range sessions {
		s.end(err)
	}
}

// session is one session's Conn over a shared connection. It implements
// OwnedSender, so a driver's pooled send path stages without a copy, and
// BufferedSender, whose Flush writes the shared connection's whole stage.
type session struct {
	sh *shared
	id uint64
	// sink receives a served session's frames and end (reader-confined);
	// a dialing-half session queues its frames for Recv instead.
	sink SessionSink

	mu   sync.Mutex
	cond *sync.Cond
	// inbox holds delivered frames not yet read; head indexes the next.
	inbox [][]byte
	head  int
	// err fails the session: the shared connection died, or the peer
	// closed the session (ErrClosed).
	err error
	// closed is set by the local Close.
	closed bool
}

// Send stages a copy of b and flushes.
func (s *session) Send(b []byte) error {
	return s.SendOwned(append(bufpool.GetLen(len(b))[:0], b...))
}

// SendOwned stages b, taking ownership, and flushes.
func (s *session) SendOwned(b []byte) error {
	if err := s.stageOwned(b); err != nil {
		return err
	}
	return s.sh.kick()
}

// SendBuffered implements BufferedSender: it stages a copy of b as one
// envelope on the shared connection.
func (s *session) SendBuffered(b []byte) error {
	return s.stageOwned(append(bufpool.GetLen(len(b))[:0], b...))
}

// Flush implements BufferedSender. It writes out everything staged on the
// shared connection, from every session, as one frame; it works on a
// closed session too, which is how a staged SessionClose leaves.
func (s *session) Flush() error { return s.sh.kick() }

// stageOwned stages one envelope. Holding s.mu orders it before a
// concurrent Close's SessionClose.
func (s *session) stageOwned(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed {
		bufpool.Put(b)
		if s.err != nil {
			return s.err
		}
		return ErrClosed
	}
	return s.sh.stage(&proto.MuxData{Session: s.id, Raw: b})
}

// Recv blocks until a frame arrives or the session ends; frames delivered
// before the end are read first. A served session's frames go to its sink,
// so its Recv returns only the end.
func (s *session) Recv() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.head < len(s.inbox) {
			b := s.inbox[s.head]
			s.inbox[s.head] = nil
			s.head++
			if s.head == len(s.inbox) {
				s.inbox = s.inbox[:0]
				s.head = 0
			}
			return b, nil
		}
		if s.err != nil {
			return nil, s.err
		}
		if s.closed {
			return nil, ErrClosed
		}
		s.cond.Wait()
	}
}

// Close retires the session and stages a SessionClose for the peer,
// unless the peer closed it first; the shared connection and its other
// sessions are untouched. On the serving half the notice leaves with the
// next Flush; on the dialing half at once.
func (s *session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	sh := s.sh
	sh.mu.Lock()
	delete(sh.sessions, s.id)
	if sh.closing != nil && sh.dead == nil {
		sh.closing[s.id] = struct{}{}
	}
	sh.mu.Unlock()
	if sh.stage(&proto.SessionClose{Session: s.id}) == nil && sh.wake != nil {
		sh.kick()
	}
	return nil
}

// push delivers one inbound frame to the sink or the inbox.
func (s *session) push(b []byte) {
	if s.sink != nil {
		s.sink.Frame(b)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return
	}
	s.inbox = append(s.inbox, b)
	s.cond.Signal()
}

// end fails the session: Recv returns err once the inbox drains, and a
// served session's sink is told, unless the session was closed here.
func (s *session) end(err error) {
	s.mu.Lock()
	closed := s.closed || s.err != nil
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.sink != nil && !closed {
		s.sink.Closed(err)
	}
}

// SessionSink receives one served session's traffic on its shared
// connection's reader, which reads nothing more until a call returns.
type SessionSink interface {
	// Frame delivers the session's next frame, in order; the sink owns raw.
	Frame(raw []byte)
	// Closed reports the session's end after its last frame: ErrClosed for
	// the peer's SessionClose, else the shared connection's failure. It is
	// called at most once, and not for a session closed on this side.
	Closed(err error)
}

// MuxServer is the serving half of one shared connection.
type MuxServer struct{ sh *shared }

// NewMuxServer serves conn, a shared connection whose GatewayHello the
// caller has already read. accept is called on the reader once per new
// session ID, with the session's Conn, before its first frame; it returns
// the sink for that session.
func NewMuxServer(conn Conn, accept func(Conn) SessionSink) *MuxServer {
	return &MuxServer{sh: newShared(conn, accept)}
}

// Serve demuxes the connection until it fails and returns the error that
// failed it; every session still open on it has then been reported closed
// with that error.
func (g *MuxServer) Serve() error { return g.sh.readLoop() }

// Sessions reports the sessions open on the connection.
func (g *MuxServer) Sessions() int { return g.sh.load() }

// Close closes the shared connection, failing every session on it.
func (g *MuxServer) Close() error {
	g.sh.fail(ErrClosed)
	return nil
}

// Mux multiplexes many sessions over at most maxConns shared connections
// to one gateway. It implements Transport: Dial opens a session, Listen is
// not supported. A Mux is safe for concurrent use.
type Mux struct {
	tr       Transport
	maxConns int

	mu       sync.Mutex
	conns    []*shared
	nextSess uint64
	closed   bool
}

// NewMux returns a session mux dialing through tr, bounded to maxConns
// shared connections (<= 0 means DefaultMaxConns).
func NewMux(tr Transport, maxConns int) *Mux {
	if maxConns <= 0 {
		maxConns = DefaultMaxConns
	}
	return &Mux{tr: tr, maxConns: maxConns}
}

// Dial opens a new session to the gateway at addr. Below the bound it
// opens a new shared connection; at the bound it rides the least-loaded
// live one.
func (m *Mux) Dial(addr string) (Conn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	// Prune connections that died since the last Dial so their slots are
	// reusable and load counts ignore dead weight.
	live := m.conns[:0]
	for _, sh := range m.conns {
		if !sh.isDead() {
			live = append(live, sh)
		}
	}
	m.conns = live
	var sh *shared
	if len(m.conns) < m.maxConns {
		var err error
		if sh, err = m.dialShared(addr); err != nil {
			return nil, err
		}
		m.conns = append(m.conns, sh)
	} else {
		for _, c := range m.conns {
			if sh == nil || c.load() < sh.load() {
				sh = c
			}
		}
	}
	m.nextSess++
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.dead != nil {
		return nil, sh.dead
	}
	return sh.open(m.nextSess), nil
}

// Listen is unsupported: a Mux is the dialing half only.
func (m *Mux) Listen(string) (Listener, error) {
	return nil, fmt.Errorf("transport: mux does not support Listen")
}

// Conns reports the live shared connections.
func (m *Mux) Conns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, sh := range m.conns {
		if !sh.isDead() {
			n++
		}
	}
	return n
}

// Sessions reports the live sessions across all shared connections.
func (m *Mux) Sessions() int {
	m.mu.Lock()
	conns := append([]*shared(nil), m.conns...)
	m.mu.Unlock()
	n := 0
	for _, sh := range conns {
		n += sh.load()
	}
	return n
}

// Close fails every session and closes every shared connection.
func (m *Mux) Close() error {
	m.mu.Lock()
	m.closed = true
	conns := m.conns
	m.conns = nil
	m.mu.Unlock()
	for _, sh := range conns {
		sh.fail(ErrClosed)
	}
	return nil
}

// dialShared opens one shared connection, introduces it with GatewayHello
// and starts its reader and writer.
func (m *Mux) dialShared(addr string) (*shared, error) {
	conn, err := m.tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	buf := proto.MarshalAppend(proto.GetBuf(), &proto.GatewayHello{})
	owned, err := SendOwned(conn, buf)
	if !owned {
		bufpool.Put(buf)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: gateway hello: %w", err)
	}
	sh := newShared(conn, nil)
	go sh.readLoop()
	go sh.writeLoop()
	return sh, nil
}
