package controller

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// ErrStandbyChain rejects attaching a standby behind another unpromoted
// standby. Replication is strictly primary→standby: a standby never
// listens, never re-streams the oplog, and its shadow state is not a
// replication source, so a chained standby would silently protect
// nothing. Deploy standbys in parallel against the primary instead, or
// attach the next one after a promotion (see DESIGN.md, "Controller
// failover").
var ErrStandbyChain = errors.New("controller: standby cannot attach behind an unpromoted standby")

// Standby is a hot-standby controller: it attaches to a running primary,
// mirrors its replicated state (repl.go) into a shadow, and watches the
// leadership lease the stream carries. While the primary renews on time,
// the standby only applies and acks. When the lease expires — the primary
// stopped renewing, whether its process died or its connection dropped
// without a graceful Shutdown — the standby promotes itself: it builds a
// ReplSnapshot from the shadow, constructs a Controller from it
// (takeover.go) under the next leadership epoch, and re-binds the
// primary's listen endpoint. A graceful primary Stop sends Shutdown on
// the stream instead, and the standby stands down without promoting.
type Standby struct {
	cfg Config

	conn transport.Conn
	// epoch is the primary's leadership epoch as last renewed; promotion
	// uses epoch+1.
	epoch uint64
	// ttl is the lease duration the primary last announced.
	ttl time.Duration

	// shadow is the attach snapshot, kept current by apply and promoted as
	// is; its ops stay raw (replay interprets them). jobs indexes its Jobs;
	// recording marks jobs whose definition history ends inside an open
	// template recording, so their SubmitStages join Defs too.
	shadow    *proto.ReplSnapshot
	jobs      map[ids.JobID]*proto.ReplJob
	recording map[ids.JobID]bool

	mu       sync.Mutex
	promoted *Controller
	err      error

	stopped    chan struct{}
	stopOnce   sync.Once
	done       chan struct{}
	promotedCh chan struct{}
}

// NewStandby creates a standby for the primary at cfg.ControlAddr. The
// same Config later seeds the promoted controller, which re-binds that
// address.
func NewStandby(cfg Config) *Standby {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Standby{
		cfg:        cfg,
		stopped:    make(chan struct{}),
		done:       make(chan struct{}),
		promotedCh: make(chan struct{}),
	}
}

// Start attaches to the primary: dial, send ReplAttach, receive the full
// snapshot, then watch the stream. It returns once attached (the shadow
// holds the snapshot), with the watcher running. On error the standby is
// finished: Stop is a no-op and Done is already closed.
func (s *Standby) Start() (retErr error) {
	defer func() {
		if retErr != nil {
			close(s.done)
		}
	}()
	conn, err := transport.DialRetry(s.cfg.Transport, s.cfg.ControlAddr, transport.Backoff{}, 0, 2*time.Second, s.stopped)
	if err != nil {
		return fmt.Errorf("standby: attach dial: %w", err)
	}
	buf := proto.MarshalAppend(proto.GetBuf(), &proto.ReplAttach{})
	if owned, err := transport.SendOwned(conn, buf); err != nil {
		if !owned {
			proto.PutBuf(buf)
		}
		conn.Close()
		return fmt.Errorf("standby: attach send: %w", err)
	} else if !owned {
		proto.PutBuf(buf)
	}
	// The first frame is the snapshot (possibly with the first lease
	// renewal behind it in a later frame).
	raw, err := conn.Recv()
	if err != nil {
		conn.Close()
		return fmt.Errorf("standby: snapshot recv: %w", err)
	}
	var pending []proto.Msg
	err = proto.ForEachMsg(raw, func(m proto.Msg) error {
		pending = append(pending, m)
		return nil
	})
	proto.PutBuf(raw)
	if err == nil && (len(pending) == 0 || pending[0].Kind() != proto.KindReplSnapshot) {
		err = errors.New("standby: primary did not send a snapshot")
	}
	if err != nil {
		conn.Close()
		return err
	}
	s.conn = conn
	s.ttl = defaultLeaseTTL
	if s.cfg.LeaseTTL > 0 {
		s.ttl = s.cfg.LeaseTTL
	}
	s.adoptSnapshot(pending[0].(*proto.ReplSnapshot))
	for _, m := range pending[1:] {
		s.apply(m)
	}
	go s.watch()
	return nil
}

func (s *Standby) adoptSnapshot(snap *proto.ReplSnapshot) {
	s.shadow = snap
	s.jobs = make(map[ids.JobID]*proto.ReplJob, len(snap.Jobs))
	s.recording = make(map[ids.JobID]bool)
	for _, rj := range snap.Jobs {
		s.jobs[rj.Job] = rj
		// The def history ends inside a recording iff it has an unmatched
		// TemplateStart (the primary appends TemplateEnd on completion).
		for _, raw := range rj.Defs {
			switch classify(raw) {
			case proto.KindTemplateStart:
				s.recording[rj.Job] = true
			case proto.KindTemplateEnd:
				delete(s.recording, rj.Job)
			}
		}
	}
}

func classify(raw []byte) proto.MsgKind {
	if len(raw) == 0 {
		return 0
	}
	return proto.MsgKind(raw[0])
}

// watch runs the standby's two loops: a reader feeding stream messages
// into a channel, and the lease watchdog. The watchdog promotes on lease
// expiry regardless of connection state: a dropped stream without a
// graceful Shutdown is treated exactly like a silent primary — wait out
// the lease (the primary may be alive with only the standby link down),
// then take over.
func (s *Standby) watch() {
	defer close(s.done)
	// watchDone releases the reader goroutine when this loop returns for
	// any reason (promotion, graceful shutdown, lease expiry). Without it
	// a reader blocked on a full msgs channel would be stranded forever:
	// s.stopped only closes on an explicit Stop.
	watchDone := make(chan struct{})
	defer close(watchDone)
	msgs := make(chan proto.Msg, 256)
	readErr := make(chan error, 1)
	go func() {
		for {
			raw, err := s.conn.Recv()
			if err != nil {
				readErr <- err
				return
			}
			err = proto.ForEachMsg(raw, func(m proto.Msg) error {
				select {
				case msgs <- m:
					return nil
				case <-s.stopped:
					return transport.ErrClosed
				case <-watchDone:
					return transport.ErrClosed
				}
			})
			proto.PutBuf(raw)
			if err != nil {
				readErr <- err
				return
			}
		}
	}()

	lease := time.NewTimer(s.ttl)
	defer lease.Stop()
	streamDown := false
	for {
		select {
		case m := <-msgs:
			switch v := m.(type) {
			case *proto.LeaseRenew:
				s.epoch = v.Epoch
				if v.TTLMillis > 0 {
					s.ttl = time.Duration(v.TTLMillis) * time.Millisecond
				}
				if !lease.Stop() {
					<-lease.C
				}
				lease.Reset(s.ttl)
			case *proto.Shutdown:
				// Graceful primary stop: stand down, never promote.
				s.conn.Close()
				s.fail(nil)
				return
			default:
				s.apply(m)
			}
		case err := <-readErr:
			// Stream lost without a Shutdown. Do not promote yet — the
			// lease may still be renewed through a primary that is alive
			// but unreachable from here; promotion waits for expiry.
			if !streamDown {
				streamDown = true
				s.cfg.Logf("standby: stream lost, waiting out lease: %v", err)
			}
		case <-lease.C:
			s.conn.Close()
			s.promote()
			return
		case <-s.stopped:
			s.conn.Close()
			s.fail(errors.New("standby: stopped"))
			return
		}
	}
}

// promote builds a controller from the shadow and takes the cluster over.
// The bind deadline is generous relative to the lease: the deposed
// primary's endpoint frees as its process tears down.
func (s *Standby) promote() {
	c := NewFromReplica(s.cfg, s.shadow, s.epoch+1)
	if err := c.StartTakeover(10*s.ttl, s.stopped); err != nil {
		s.fail(err)
		return
	}
	s.mu.Lock()
	s.promoted = c
	s.mu.Unlock()
	close(s.promotedCh)
}

// apply folds one replicated increment into the shadow and acks ops.
func (s *Standby) apply(m proto.Msg) {
	switch v := m.(type) {
	case *proto.ReplOp:
		rj := s.jobs[v.Job]
		if rj == nil {
			return
		}
		rj.NextCmd = v.NextCmd
		rj.NextObj = v.NextObj
		if len(v.Raw) == 0 {
			// Allocator sync (checkpoint saves, recovery replay) or a
			// rejected driver op's applied bump: adopt the counters,
			// nothing to append or ack. The applied adoption keeps the
			// shadow's reattach reconciliation point in lockstep with the
			// driver's journal, which counts rejected ops too.
			rj.Applied = max(rj.Applied, v.Index)
			return
		}
		switch classify(v.Raw) {
		case proto.KindDefineVariable:
			rj.Defs = append(rj.Defs, v.Raw)
		case proto.KindTemplateStart:
			rj.Defs = append(rj.Defs, v.Raw)
			s.recording[v.Job] = true
		case proto.KindTemplateEnd:
			rj.Defs = append(rj.Defs, v.Raw)
			delete(s.recording, v.Job)
		case proto.KindSubmitStage:
			if s.recording[v.Job] {
				rj.Defs = append(rj.Defs, v.Raw)
			}
		}
		// Every logged op joins the oplog mirror (definitions too: the
		// primary logs them, and replayOp skips what recovery re-derives).
		rj.Oplog = append(rj.Oplog, v.Raw)
		rj.Applied = v.Index
		s.ack(v.Job, v.Index)
	case *proto.ReplCkpt:
		rj := s.jobs[v.Job]
		if rj == nil {
			return
		}
		rj.Ckpt = v.Ckpt
		rj.CkptCount = v.Count
		rj.Manifest = v.Manifest
		if v.Drop >= uint64(len(rj.Oplog)) {
			rj.Oplog = nil
		} else {
			rj.Oplog = append([][]byte(nil), rj.Oplog[v.Drop:]...)
		}
	case *proto.ReplJobStart:
		rj := &proto.ReplJob{Job: v.Job, Name: v.Name, Weight: v.Weight, Tenant: v.Tenant}
		s.jobs[v.Job] = rj
		s.shadow.Jobs = append(s.shadow.Jobs, rj)
		s.shadow.JobSeq = max(s.shadow.JobSeq, uint32(v.Job))
	case *proto.ReplJobEnd:
		if rj := s.jobs[v.Job]; rj != nil {
			delete(s.jobs, v.Job)
			delete(s.recording, v.Job)
			s.shadow.Jobs = slices.DeleteFunc(s.shadow.Jobs, func(j *proto.ReplJob) bool { return j == rj })
		}
	default:
		s.cfg.Logf("standby: unexpected stream message %s", m.Kind())
	}
}

func (s *Standby) ack(job ids.JobID, index uint64) {
	buf := proto.MarshalAppend(proto.GetBuf(), &proto.ReplAck{Job: job, Index: index})
	if owned, err := transport.SendOwned(s.conn, buf); err != nil {
		s.cfg.Logf("standby: ack send: %v", err)
	} else if !owned {
		proto.PutBuf(buf)
	}
}

func (s *Standby) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// Promoted returns a channel closed when the standby has taken over.
func (s *Standby) Promoted() <-chan struct{} { return s.promotedCh }

// Controller returns the promoted controller (nil before promotion). The
// caller owns its lifecycle; Stop on the standby does not stop it.
func (s *Standby) Controller() *Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// Err reports why the standby stood down (nil after a graceful primary
// shutdown or a successful promotion).
func (s *Standby) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stop halts the watcher. A controller already promoted keeps running —
// the caller owns it.
func (s *Standby) Stop() {
	s.stopOnce.Do(func() { close(s.stopped) })
	<-s.done
}

// Done returns a channel closed when the watcher has exited (promotion,
// graceful shutdown, or Stop).
func (s *Standby) Done() <-chan struct{} { return s.done }
