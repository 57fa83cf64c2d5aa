package controller

import (
	"sort"
	"sync"
	"time"

	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// This file is the primary's half of controller failover: the hot-standby
// replication stream and the leadership lease it carries.
//
// A standby (standby.go) dials the controller's listen endpoint and sends
// ReplAttach. The primary answers with a full ReplSnapshot — every job's
// definition history, oplog suffix, checkpoint manifest and allocator
// high-water marks — then streams increments: one ReplOp per logged
// driver operation, ReplCkpt on checkpoint commits, ReplJobStart/End on
// admissions and teardowns, and LeaseRenew every LeaseTTL/3 as the
// transport-level leadership lease. The standby acks each op; the
// driver-op fence (builds.go) stalls while replWindow ops are unacked, so
// the standby stays within one applied driver op of the primary. Losing
// the standby just drains the fence — replication never blocks progress
// for longer than the window.

// replWindow bounds unacknowledged replicated driver ops: the op fence
// holds further driver ops until the standby acks, bounding how far a
// promoted controller's state can trail what the driver saw accepted.
const replWindow = 1

// defaultLeaseTTL applies when Config.LeaseTTL is zero.
const defaultLeaseTTL = time.Second

// replState is the attached standby's stream.
type replState struct {
	conn transport.Conn
	// sendMu serializes frame sends: the event loop streams ops while
	// the lease goroutine streams renewals on the same connection.
	sendMu sync.Mutex
	// inflight counts replicated-but-unacked driver ops.
	inflight int
	// stop cancels the lease goroutine when the standby is replaced.
	stop chan struct{}
}

func (r *replState) send(m proto.Msg) error {
	buf := proto.MarshalAppend(proto.GetBuf(), m)
	r.sendMu.Lock()
	owned, err := transport.SendOwned(r.conn, buf)
	r.sendMu.Unlock()
	if !owned {
		proto.PutBuf(buf)
	}
	return err
}

func (c *Controller) leaseTTL() time.Duration {
	if c.cfg.LeaseTTL > 0 {
		return c.cfg.LeaseTTL
	}
	return defaultLeaseTTL
}

// handleReplAttach admits a hot standby: send it the full state snapshot,
// then start streaming increments and lease renewals. A second attach
// replaces the first standby.
func (c *Controller) handleReplAttach(conn transport.Conn) {
	if c.repl != nil {
		close(c.repl.stop)
		c.repl.conn.Close()
		c.repl = nil
	}
	c.hadStandby = true
	c.standbyDownAt = time.Time{}
	r := &replState{conn: conn, stop: make(chan struct{})}
	snap := c.snapshotReplica()
	if err := r.send(snap); err != nil {
		c.cfg.Logf("controller: standby snapshot send failed: %v", err)
		conn.Close()
		c.untrackConn(conn)
		return
	}
	r.send(&proto.LeaseRenew{Epoch: c.epoch, TTLMillis: uint64(c.leaseTTL() / time.Millisecond)})
	c.repl = r
	c.wg.Add(2)
	go c.leaseLoop(r)
	go c.pump(conn, ids.NoWorker, nil)
}

// leaseLoop renews the primary's leadership lease on the replication
// stream every TTL/3. It stops with the stream or the controller; a
// killed controller stops renewing, and that silence is what the standby
// detects.
func (c *Controller) leaseLoop(r *replState) {
	defer c.wg.Done()
	ttl := c.leaseTTL()
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := r.send(&proto.LeaseRenew{Epoch: c.epoch, TTLMillis: uint64(ttl / time.Millisecond)}); err != nil {
				return
			}
		case <-r.stop:
			return
		case <-c.stopped:
			return
		}
	}
}

// snapshotReplica captures the full replicated state for a fresh standby.
func (c *Controller) snapshotReplica() *proto.ReplSnapshot {
	snap := &proto.ReplSnapshot{
		JobSeq:     c.jobSeq,
		NextWorker: uint32(c.nextWorker),
		Workers:    append([]ids.WorkerID(nil), c.active...),
	}
	for _, j := range c.jobList() {
		rj := &proto.ReplJob{
			Job: j.id, Name: j.name, Weight: j.weight, Tenant: j.tenant, Applied: j.applied,
			Ckpt: j.ckpt.last, CkptCount: j.ckpt.count,
			NextCmd: j.cmdIDs.Peek(), NextObj: j.objIDs.Peek(),
		}
		rj.Manifest = manifestEntries(j.ckpt.manifest)
		// A job parked behind pendingTakeover has not replayed its
		// definition history yet — j.vars and j.templates stay empty until
		// beginTakeover — so defMessages would hand a fresh standby an
		// empty history and a second failover would lose every variable.
		// Forward the restored definitions verbatim instead.
		defs := j.defs
		if !j.pendingTakeover {
			defs = j.defMessages()
		}
		for _, m := range defs {
			rj.Defs = append(rj.Defs, proto.Marshal(m))
		}
		for _, m := range j.oplog {
			rj.Oplog = append(rj.Oplog, proto.Marshal(m))
		}
		snap.Jobs = append(snap.Jobs, rj)
	}
	return snap
}

func manifestEntries(m map[ids.LogicalID]uint64) []proto.ManifestEntry {
	if len(m) == 0 {
		return nil
	}
	out := make([]proto.ManifestEntry, 0, len(m))
	for l, v := range m {
		out = append(out, proto.ManifestEntry{Logical: l, Version: v})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Logical < out[k].Logical })
	return out
}

// defMessages reconstructs one job's definition history: the ops a
// promoted controller replays to rebuild variables and template
// recordings before reverting to the checkpoint. Checkpoints never
// truncate definitions, so they are rebuilt from live state instead of a
// second log. Variables come first in VariableID order — the driver
// allocates variable IDs in define order, so replaying them sorted
// reproduces the primary's LogicalID assignment exactly, which the
// checkpoint manifest is keyed by.
func (j *jobState) defMessages() []proto.Msg {
	var out []proto.Msg
	varIDs := make([]ids.VariableID, 0, len(j.vars))
	for id := range j.vars {
		varIDs = append(varIDs, id)
	}
	sort.Slice(varIDs, func(i, k int) bool { return varIDs[i] < varIDs[k] })
	for _, id := range varIDs {
		vm := j.vars[id]
		out = append(out, &proto.DefineVariable{Var: vm.id, Name: vm.name, Partitions: vm.partitions})
	}
	names := make([]string, 0, len(j.templates))
	for name := range j.templates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, &proto.TemplateStart{Name: name})
		for _, s := range j.templates[name].Stages {
			out = append(out, s)
		}
		out = append(out, &proto.TemplateEnd{Name: name})
	}
	if j.recording != nil {
		out = append(out, &proto.TemplateStart{Name: j.recording.tmpl.Name})
		for _, s := range j.recording.tmpl.Stages {
			out = append(out, s)
		}
	}
	return out
}

// replOp streams one just-logged driver op to the standby, stamped with
// the job's applied-op index and allocator high-water marks.
func (c *Controller) replOp(j *jobState, m proto.Msg) {
	if c.repl == nil {
		return
	}
	op := &proto.ReplOp{
		Job: j.id, Index: j.applied,
		NextCmd: j.cmdIDs.Peek(), NextObj: j.objIDs.Peek(),
		Raw: proto.Marshal(m),
	}
	c.repl.inflight++
	if err := c.repl.send(op); err != nil {
		c.standbyLost(err)
	}
}

// replSync streams allocator high-water marks alone (an empty-Raw
// ReplOp): the checkpoint and recovery paths allocate command IDs outside
// any logged op, and a promotion must never re-issue them.
func (c *Controller) replSync(j *jobState) {
	if c.repl == nil {
		return
	}
	op := &proto.ReplOp{Job: j.id, Index: j.applied, NextCmd: j.cmdIDs.Peek(), NextObj: j.objIDs.Peek()}
	if err := c.repl.send(op); err != nil {
		c.standbyLost(err)
	}
}

// replCkpt mirrors a committed checkpoint on the standby.
func (c *Controller) replCkpt(j *jobState, drop uint64) {
	if c.repl == nil {
		return
	}
	m := &proto.ReplCkpt{
		Job: j.id, Ckpt: j.ckpt.last, Count: j.ckpt.count, Drop: drop,
		Manifest: manifestEntries(j.ckpt.manifest),
	}
	if err := c.repl.send(m); err != nil {
		c.standbyLost(err)
	}
}

// replJobStart / replJobEnd mirror job admission and teardown.
func (c *Controller) replJobStart(j *jobState) {
	if c.repl == nil {
		return
	}
	if err := c.repl.send(&proto.ReplJobStart{Job: j.id, Name: j.name, Weight: j.weight, Tenant: j.tenant}); err != nil {
		c.standbyLost(err)
	}
}

func (c *Controller) replJobEnd(j *jobState) {
	if c.repl == nil {
		return
	}
	if err := c.repl.send(&proto.ReplJobEnd{Job: j.id}); err != nil {
		c.standbyLost(err)
	}
}

// safeApplied is the applied-op count every controller this driver
// session could ever reattach to is guaranteed to report at least — the
// journal-truncation point BarrierDone carries. With no standby ever
// attached it is the job's own count: a transient reconnect lands back
// here, and a standby attaching later starts from a full snapshot. Once a
// standby has attached, only its acked prefix is safe — even after it
// detaches, its stale shadow may still be promoted — but only within the
// promotion horizon.
//
// staleShadowHorizonTTLs bounds that horizon in lease TTLs: a detached
// standby's lease expires within one TTL of the detach and its takeover
// bind retries for ten more (standby.go promote), so twenty TTLs past
// the detach no controller can ever surface that shadow. After the
// horizon safeApplied stops capping truncation at the stale shadow's
// acked prefix — otherwise a long standby-less run after a detach would
// grow every driver journal without bound.
const staleShadowHorizonTTLs = 20

func (c *Controller) safeApplied(j *jobState) uint64 {
	if c.hadStandby && c.repl == nil && !c.standbyDownAt.IsZero() &&
		time.Since(c.standbyDownAt) > staleShadowHorizonTTLs*c.leaseTTL() {
		c.hadStandby = false
		c.standbyDownAt = time.Time{}
	}
	if c.hadStandby {
		return j.replAcked
	}
	return j.applied
}

// replStalled reports whether the replication window is full: driver ops
// queue behind the fence until the standby acks.
func (c *Controller) replStalled() bool {
	return c.repl != nil && c.repl.inflight >= replWindow
}

// handleReplAck drains the replication window and releases any driver
// ops it fenced. The acked index is remembered per job: it is the prefix
// a promotion from this standby cannot lose, and so the point up to which
// drivers may truncate their failover journals.
func (c *Controller) handleReplAck(m *proto.ReplAck) {
	if j := c.jobs[m.Job]; j != nil && m.Index > j.replAcked {
		j.replAcked = m.Index
	}
	if c.repl == nil {
		return
	}
	if c.repl.inflight > 0 {
		c.repl.inflight--
	}
	if c.replStalled() {
		return
	}
	for _, j := range c.jobList() {
		c.drainOps(j)
		c.resolveIfQuiet(j)
	}
}

// standbyLost tears down the replication stream. The drain is posted
// rather than run inline: a send failure surfaces mid-logOp, inside a
// driver-op handler whose remaining work (e.g. raising the build fence)
// must finish before queued ops may dispatch.
func (c *Controller) standbyLost(err error) {
	if c.repl == nil {
		return
	}
	c.cfg.Logf("controller: standby lost: %v", err)
	close(c.repl.stop)
	c.repl.conn.Close()
	c.repl = nil
	c.standbyDownAt = time.Now()
	c.post(func() {
		for _, j := range c.jobList() {
			c.drainOps(j)
			c.resolveIfQuiet(j)
		}
	})
}
