package controller

import (
	"fmt"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/flow"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// This file is the promoted controller's half of failover: rebuilding the
// control plane from the replicated shadow and taking the cluster over.
//
// When the standby's lease expires (standby.go) it calls NewFromReplica
// with its shadow state and StartTakeover to re-bind the primary's listen
// endpoint. Restored jobs park behind pendingTakeover while the worker
// roster reassembles as workers register under their prior IDs; once every
// expected worker is back, beginTakeover replays each job's definition
// history to rebuild variables and template recordings, then drives the job
// through the existing halt → revert-to-checkpoint → replay-oplog recovery
// path (recovery.go). Reattaching drivers learn the job's applied-op count
// and resend the journaled suffix the dead primary never logged.

// NewFromReplica builds a controller from a replicated snapshot. The
// result is inert until StartTakeover; epoch is the promoted leadership
// epoch (strictly above the deposed primary's).
func NewFromReplica(cfg Config, snap *proto.ReplSnapshot, epoch uint64) *Controller {
	c := New(cfg)
	c.epoch = epoch
	c.jobSeq = snap.JobSeq
	c.nextWorker = ids.WorkerID(snap.NextWorker)
	c.expectRejoin = make(map[ids.WorkerID]struct{}, len(snap.Workers))
	for _, w := range snap.Workers {
		c.expectRejoin[w] = struct{}{}
	}
	c.takeoverWait = true
	for _, rj := range snap.Jobs {
		c.restoreJob(rj)
	}
	return c
}

// restoreJob rebuilds one job's control-plane skeleton from its replicated
// shadow. Jobs keep their original IDs — drivers hold them. Variables,
// templates and directory state are NOT rebuilt here: they come from the
// definition replay and checkpoint revert in beginTakeover, once workers
// are back. The allocators advance past the replicated high-water marks
// first, before the directory captures the object allocator, so no ID a
// surviving worker may still hold state under is ever re-issued.
func (c *Controller) restoreJob(rj *proto.ReplJob) {
	weight := rj.Weight
	if weight <= 0 {
		weight = 1
	}
	j := &jobState{
		id:           rj.Job,
		name:         rj.Name,
		weight:       weight,
		vars:         make(map[ids.VariableID]*varMeta),
		ledgers:      make(map[ids.WorkerID]*flow.Ledger),
		templates:    make(map[string]*core.Template),
		patchCache:   core.NewPatchCache(),
		pendingEdits: make(map[ids.TemplateID]map[ids.WorkerID][]editStaged),
		building:     make(map[string]*buildJob),
		outstanding:  make(map[ids.CommandID]ids.WorkerID),
		instances:    make(map[uint64]*instState),
		wm:           newWMTracker(),
	}
	j.cmdIDs.AdvanceTo(rj.NextCmd)
	j.objIDs.AdvanceTo(rj.NextObj)
	j.dir = flow.NewDirectory(&j.objIDs)
	j.central = newCentralGraph(c, j)
	j.ckpt.last = rj.Ckpt
	j.ckpt.count = rj.CkptCount
	j.ckpt.manifest = make(map[ids.LogicalID]uint64, len(rj.Manifest))
	for _, e := range rj.Manifest {
		j.ckpt.manifest[e.Logical] = e.Version
	}
	j.defs = decodeOps(rj.Defs, c.cfg.Logf)
	j.oplog = decodeOps(rj.Oplog, c.cfg.Logf)
	j.applied = rj.Applied
	j.tenant = rj.Tenant
	j.pendingTakeover = true
	c.jobs[j.id] = j
	c.totalWeight += j.weight
	c.adoptJobTenant(j)
}

// decodeOps unmarshals a replicated raw-op list.
func decodeOps(raws [][]byte, logf func(string, ...any)) []proto.Msg {
	out := make([]proto.Msg, 0, len(raws))
	for _, raw := range raws {
		m, err := proto.Unmarshal(raw)
		if err != nil {
			logf("controller: bad replicated op: %v", err)
			continue
		}
		out = append(out, m)
	}
	return out
}

// StartTakeover binds the deposed primary's listen endpoint and starts the
// event loop. The bind retries up to deadline: on Mem the dead primary's
// teardown frees the address, and on TCP the kernel releases the port —
// either way the old listener's disappearance is the fence that proves
// the deposed primary can no longer accept. Once listening, takeover
// recovery fires as soon as the expected workers have reconnected.
func (c *Controller) StartTakeover(deadline time.Duration, cancel <-chan struct{}) error {
	lis, err := transport.ListenRetry(c.cfg.Transport, c.cfg.ControlAddr, transport.Backoff{}, deadline, cancel)
	if err != nil {
		return fmt.Errorf("controller: takeover bind: %w", err)
	}
	c.startWith(lis)
	c.Do(func() {
		c.takeoverAt = time.Now()
		c.maybeStartTakeover()
	})
	return nil
}

// maybeStartTakeover fires takeover recovery once the promoted
// controller's worker roster has reassembled. It waits for every worker
// the snapshot listed (a reconnecting worker holds job state the recovery
// revert needs to halt and reload); a worker that truly died during the
// outage is struck from the roster by checkTakeoverEviction once the
// heartbeat timeout elapses, so a permanent death shrinks the roster and
// routes the dead worker's partitions through the ordinary
// halt → revert → replay recovery instead of stalling takeover.
func (c *Controller) maybeStartTakeover() {
	if !c.takeoverWait || len(c.expectRejoin) > 0 {
		return
	}
	if len(c.jobs) > 0 && len(c.active) == 0 {
		return // jobs to recover but no capacity yet
	}
	c.takeoverWait = false
	for _, j := range c.jobList() {
		c.beginTakeover(j)
	}
}

// beginTakeover unparks one restored job: replay its definition history
// to rebuild variables and template recordings, then run it through the
// standard recovery path — halt every worker's slice of the job, revert
// to the checkpoint, replay the oplog suffix. The definition replay is
// record-only: handleDefineVariable and the template handlers run with
// j.replaying set, so nothing is re-logged or re-replicated, and stage
// specs append to their recording without scheduling live work.
func (c *Controller) beginTakeover(j *jobState) {
	if len(c.active) == 0 {
		c.cfg.Logf("controller: %s takeover parked: no workers", j.id)
		return
	}
	c.Stats.Takeovers.Add(1)
	j.replaying = true
	for _, m := range j.defs {
		c.replayDef(j, m)
	}
	j.replaying = false
	j.defs = nil
	j.pendingTakeover = false

	// Halt fan-out, exactly as a worker failure would: finishRecovery
	// then reverts to the checkpoint and replays the oplog.
	c.haltJob(j)
}

// replayDef re-applies one definition op on the promoted controller.
// Completed templates are installed without a build: finishRecovery's
// planSet constructs their first assignment for the actual placement,
// exactly like a post-failure rebuild.
func (c *Controller) replayDef(j *jobState, m proto.Msg) {
	switch op := m.(type) {
	case *proto.DefineVariable:
		c.handleDefineVariable(j, op)
	case *proto.TemplateStart:
		c.handleTemplateStart(j, op)
	case *proto.SubmitStage:
		if j.recording != nil {
			j.recording.tmpl.Stages = append(j.recording.tmpl.Stages, op)
			j.recording.tmpl.TaskCount += op.Tasks
		}
	case *proto.TemplateEnd:
		if rec := j.recording; rec != nil && rec.tmpl.Name == op.Name {
			j.recording = nil
			j.templates[op.Name] = rec.tmpl
		}
	default:
		c.cfg.Logf("controller: unexpected replicated definition %s", m.Kind())
	}
}

// reattachDriver rebinds a driver to its restored job on the promoted
// controller. The ack carries the job's applied-op count: the driver
// resends its journal suffix past it, which applies on top of the
// takeover recovery through the op fence in program order.
func (c *Controller) reattachDriver(m *proto.DriverReattach, src *source) {
	conn := src.conn
	j := c.jobs[m.Job]
	if j == nil || j.dead {
		// Unknown job: the job ended before the failover, or this is not
		// the controller the driver thinks it is. Nack and close the
		// connection; a gateway session closes alone, leaving its shared
		// connection up for its neighbors.
		c.sendConn(conn, &proto.ReattachAck{Job: m.Job, Err: fmt.Sprintf("no such job %s", m.Job)})
		c.closeDriver(conn)
		return
	}
	// Close the stale attachment. Its end must not tear the job down,
	// which handleClosed's current-connection check guarantees.
	if j.conn != nil {
		c.closeDriver(j.conn)
	}
	j.conn = conn
	src.job = j.id
	c.sendDriver(j, &proto.ReattachAck{Job: j.id, Applied: j.applied, Ok: true})
}

// checkTakeoverEviction runs on the failure-detector tick of a promoted
// controller still waiting on its rejoin roster: snapshot-listed workers
// that have not reconnected within the heartbeat timeout are evicted.
// The roster shrinks and takeover recovery proceeds on the survivors —
// the evicted worker's partitions revert to the checkpoint and replay
// there, exactly as a live-worker failure would. An evicted worker that
// turns out to be merely slow readmits harmlessly through the ordinary
// reconnect path: its stale state is never referenced (the allocators
// are already past every ID it holds) and the roster no longer waits on
// it.
func (c *Controller) checkTakeoverEviction() {
	if !c.takeoverWait || len(c.expectRejoin) == 0 || c.cfg.HeartbeatTimeout <= 0 {
		return
	}
	if time.Since(c.takeoverAt) <= c.cfg.HeartbeatTimeout {
		return
	}
	for id := range c.expectRejoin {
		c.cfg.Logf("controller: takeover evicting %s: never reconnected", id)
		c.Stats.Evictions.Add(1)
		delete(c.expectRejoin, id)
	}
	c.maybeStartTakeover()
}

// checkReattachDeadline tears down restored jobs whose driver never
// reattached within Config.ReattachDeadline: without a driver there is
// nobody to resend the journal suffix or consume results, so instead of
// parking the job (possibly forever, behind pendingTakeover) it ends
// cleanly and frees its weight and worker state. A driver reattaching
// later gets the ordinary unknown-job nack.
func (c *Controller) checkReattachDeadline() {
	if c.cfg.ReattachDeadline <= 0 || c.takeoverAt.IsZero() {
		return
	}
	if time.Since(c.takeoverAt) <= c.cfg.ReattachDeadline {
		return
	}
	for _, j := range c.jobList() {
		if j.conn == nil && !j.dead {
			c.Stats.JobsExpired.Add(1)
			c.endJob(j, "driver never reattached within deadline")
		}
	}
}

// JobApplied returns one job's applied driver-operation count (zero for
// an unknown job). After a failover it must equal the driver's OpsSent:
// no logged operation lost, none double-applied.
func (c *Controller) JobApplied(job ids.JobID) uint64 {
	var n uint64
	c.Do(func() {
		if j := c.jobs[job]; j != nil {
			n = j.applied
		}
	})
	return n
}
