package controller

import (
	"fmt"
	"slices"

	"nimbus/internal/command"
	"nimbus/internal/flow"
	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/proto"
)

// This file implements checkpoint-based fault recovery (paper §4.4),
// scoped per job:
//
//	checkpoint: wait until the job's worker queues drain, snapshot its
//	execution state (directory manifest + driver-operation log), and have
//	every worker save the job's live latest objects to durable storage,
//	keyed by (job, checkpoint);
//
//	recovery: on worker failure, every job that was running recovers
//	independently — halt its slice of every surviving worker (halts are
//	job-scoped, so other jobs' in-flight arenas are untouched), flush the
//	job's queues and objects, rewind the job's directory to its
//	checkpoint (reload objects onto the surviving workers), move the job
//	onto the survivors as any worker-set change does (a set it ran on
//	comes back with its templates), and replay only that job's
//	driver-operation log.

func (c *Controller) handleCheckpointReq(j *jobState, m *proto.CheckpointReq) {
	for _, seq := range j.ckpt.requested {
		if seq == m.Seq {
			return // re-issued across a failover; already queued
		}
	}
	j.ckpt.requested = append(j.ckpt.requested, m.Seq)
	c.resolveIfQuiet(j)
}

// beginCheckpoint runs at one job's quiesce point: every live latest
// object of the job is saved to durable storage under the job's namespace.
func (c *Controller) beginCheckpoint(j *jobState) {
	j.ckpt.saving = true
	j.ckpt.count++
	j.ckpt.logMark = len(j.oplog)
	id := j.ckpt.count
	j.ckpt.pendingManifest = make(map[ids.LogicalID]uint64)
	key := params.NewEncoder(8).Uint(id).Blob()
	batches := make(map[ids.WorkerID][]*command.Command)
	j.dir.Logicals(func(l ids.LogicalID, latest uint64, replicas map[ids.WorkerID]*flow.Replica) {
		if latest == 0 {
			return
		}
		var holder ids.WorkerID
		var obj ids.ObjectID
		for w, r := range replicas {
			if r.Version == latest && (holder == ids.NoWorker || w < holder) {
				holder, obj = w, r.Object
			}
		}
		if holder == ids.NoWorker {
			c.cfg.Logf("controller: %s checkpoint %d: %s has no live replica", j.id, id, l)
			return
		}
		cmdID := j.cmdIDs.Next()
		before := j.ledgers[holder].Read(obj, cmdID, nil)
		batches[holder] = append(batches[holder], &command.Command{
			ID: cmdID, Kind: command.Save,
			Reads: []ids.ObjectID{obj}, Before: before,
			Params: key, Logical: l, Version: latest,
		})
		j.ckpt.pendingManifest[l] = latest
	})
	// The Save commands allocated IDs outside any logged op; sync the
	// high-water marks so a promotion cannot re-issue them.
	c.replSync(j)
	c.dispatchCommands(j, batches)
	// With nothing to save, commit immediately.
	c.resolveIfQuiet(j)
}

// commitCheckpoint finalizes a job's checkpoint once its saves drained.
// Only the oplog prefix the manifest covers (stamped at begin) is
// cleared: a driver op pipelined in between executed live but is absent
// from the saved state, so its entry must survive for replay — the
// ledgers order each Save before any later write to the same object, so
// the manifest is exactly the at-begin state and replaying the suffix
// reapplies those ops consistently. With v1's blocking Checkpoint the
// window was unreachable; the async surface opens it.
func (c *Controller) commitCheckpoint(j *jobState) {
	if j.ckpt.failed != "" {
		c.abortCheckpoint(j)
		return
	}
	j.ckpt.saving = false
	j.ckpt.last = j.ckpt.count
	j.ckpt.manifest = j.ckpt.pendingManifest
	j.ckpt.pendingManifest = nil
	drop := j.ckpt.logMark
	if tail := j.oplog[j.ckpt.logMark:]; len(tail) > 0 {
		j.oplog = append([]proto.Msg(nil), tail...)
	} else {
		j.oplog = nil
	}
	j.ckpt.logMark = 0
	// Mirror the truncation on the standby: it adopts the manifest and
	// drops the same oplog prefix the checkpoint now subsumes.
	c.replCkpt(j, uint64(drop))
	for _, seq := range j.ckpt.requested {
		c.sendDriver(j, &proto.BarrierDone{Seq: seq, Applied: c.safeApplied(j)})
	}
	j.ckpt.requested = nil
}

// handleSaveFailed records a worker-reported durable Save error against
// the in-progress checkpoint. The report outruns the command's batched
// Complete on the FIFO control link, so the veto always lands before the
// commit it must stop. Reports for a checkpoint no longer in progress
// (a recovery already discarded it) are stale and dropped.
func (c *Controller) handleSaveFailed(j *jobState, m *proto.SaveFailed) {
	c.cfg.Logf("controller: %s checkpoint %d: save %s failed: %s", j.id, m.Ckpt, m.Logical, m.Err)
	if !j.ckpt.saving || m.Ckpt != j.ckpt.count {
		return
	}
	if j.ckpt.failed == "" {
		j.ckpt.failed = fmt.Sprintf("save %s: %s", m.Logical, m.Err)
	}
}

// abortCheckpoint fails the in-progress checkpoint instead of committing
// it: the previous manifest and the full oplog stay authoritative (so
// recovery is untouched), durable keys are not reused (count already
// advanced past the aborted id), and every driver waiting on the barrier
// gets a typed error instead of a success.
func (c *Controller) abortCheckpoint(j *jobState) {
	reason := fmt.Sprintf("checkpoint %d failed: %s", j.ckpt.count, j.ckpt.failed)
	c.cfg.Logf("controller: %s %s", j.id, reason)
	c.Stats.CkptsAborted.Add(1)
	j.ckpt.saving = false
	j.ckpt.failed = ""
	j.ckpt.pendingManifest = nil
	j.ckpt.logMark = 0
	for _, seq := range j.ckpt.requested {
		c.sendDriver(j, &proto.BarrierDone{Seq: seq, Applied: c.safeApplied(j), Err: reason})
	}
	j.ckpt.requested = nil
}

// failWorker handles a worker failure: remove it from the shared pool,
// then start an independent recovery for every admitted job (paper §4.4,
// per tenant). Jobs that lose nothing still move onto the survivors,
// because their variables were spread over the failed worker too.
func (c *Controller) failWorker(id ids.WorkerID) {
	ws := c.workers[id]
	if ws == nil || !ws.alive {
		return
	}
	ws.alive = false
	ws.conn.Close()
	for i, a := range c.active {
		if a == id {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	for _, j := range c.jobList() {
		c.failWorkerForJob(j, id)
	}
}

// failWorkerForJob runs one job's reaction to a worker failure: halt the
// job on every surviving worker, then revert and replay once the halts
// ack. Halts carry the job, so no other tenant's state is flushed.
func (c *Controller) failWorkerForJob(j *jobState, id ids.WorkerID) {
	if j.recovering {
		// A second failure during recovery: drop it from the halt set and
		// let the in-progress recovery continue over the smaller set.
		delete(j.haltPending, id)
		if len(j.haltPending) == 0 {
			c.finishRecovery(j)
		}
		return
	}
	c.Stats.Recoveries.Add(1)
	if len(c.active) == 0 {
		c.cfg.Logf("controller: all workers lost; %s cannot recover", j.id)
		return
	}
	if j.ckpt.last == 0 {
		c.cfg.Logf("controller: worker %s failed with no %s checkpoint; the job's data on it is lost", id, j.id)
	}
	c.haltJob(j)
}

// haltJob starts one job's recovery (a worker failure or a takeover):
// every active worker flushes the job's queues and acks, and
// finishRecovery reverts and replays once all have.
func (c *Controller) haltJob(j *jobState) {
	j.recovering = true
	j.haltSeq++
	j.haltPending = make(map[ids.WorkerID]bool)
	for _, wid := range c.active {
		j.haltPending[wid] = true
		c.sendWorker(c.workers[wid], &proto.Halt{Job: j.id, Seq: j.haltSeq})
	}
	if len(j.haltPending) == 0 {
		c.finishRecovery(j)
	}
}

func (c *Controller) handleHaltAck(j *jobState, m *proto.HaltAck) {
	if !j.recovering || m.Seq != j.haltSeq {
		return
	}
	delete(j.haltPending, m.Worker)
	if len(j.haltPending) == 0 {
		c.finishRecovery(j)
	}
}

// finishRecovery reverts one job to its checkpoint and replays its logged
// driver operations.
func (c *Controller) finishRecovery(j *jobState) {
	if len(c.active) == 0 {
		c.cfg.Logf("controller: all workers lost during recovery; %s halted", j.id)
		j.recovering = false
		return
	}
	// Flush the job's execution state.
	j.outstanding = make(map[ids.CommandID]ids.WorkerID)
	j.instances = make(map[uint64]*instState)
	j.wm.reset()
	j.central = newCentralGraph(c, j)
	// Discard an in-progress checkpoint: its Save commands were just
	// flushed with the rest of the outstanding work, so committing it at
	// the next quiesce would pin a manifest referencing objects that were
	// never durably written (and trim the oplog prefix that compensates
	// for them). The driver's request stays queued in ckpt.requested, so
	// a fresh checkpoint — under a new id, never reusing the abandoned
	// one's durable keys — runs once the recovered job drains.
	if j.ckpt.saving {
		j.ckpt.saving = false
		j.ckpt.failed = ""
		j.ckpt.pendingManifest = nil
		j.ckpt.logMark = 0
	}
	// Requeue the job's interrupted fetches: driver gets go back on the
	// get queue, and an interrupted predicate fetch re-arms its loop so
	// the next quiesce point re-fetches against the recovered state.
	for seq, pf := range c.fetches {
		if pf.job != j.id {
			continue
		}
		if pf.loop != nil {
			pf.loop.fetching = false
		} else {
			j.gets = append(j.gets, pendingGet{seq: pf.driverSeq, v: pf.v, p: pf.p})
		}
		delete(c.fetches, seq)
	}

	// Rewind the directory over the survivors. Their halts cleared the
	// job's objects, so every instance on them keeps its ID and holds
	// nothing, and the job's saved and active assignments stay valid there:
	// the job moves onto the survivors as SetActive would move it, and a
	// set it ran on comes back without a rebuild. A record naming a worker
	// outside the survivors goes, with the edits staged for its
	// assignments — a restarted worker has neither its objects nor its
	// cached templates. The loads below reuse the plan's instance
	// allocations.
	j.dir.Rewind(c.active)
	for _, wid := range c.active {
		j.ledgers[wid] = flow.NewLedger(wid)
	}
	p := c.planSet(j, c.active)
	if err := p.err(); err != nil {
		c.cfg.Logf("controller: recovery rebuild of %v", err)
	}
	c.adoptSet(p)
	for sig, rec := range j.sets {
		if slices.ContainsFunc(rec.set, func(w ids.WorkerID) bool { return !slices.Contains(c.active, w) }) {
			for _, a := range rec.tmpls {
				delete(j.pendingEdits, a.ID)
			}
			delete(j.sets, sig)
		}
	}

	// Reload checkpointed objects onto their new owners.
	logicalOwner := j.logicalOwners()
	key := params.NewEncoder(8).Uint(j.ckpt.last).Blob()
	batches := make(map[ids.WorkerID][]*command.Command)
	for l, ver := range j.ckpt.manifest {
		owner, ok := logicalOwner[l]
		if !ok {
			continue
		}
		obj := j.dir.Instance(l, owner)
		cmdID := j.cmdIDs.Next()
		before := j.ledgers[owner].Write(obj, cmdID, nil)
		batches[owner] = append(batches[owner], &command.Command{
			ID: cmdID, Kind: command.Load,
			Writes: []ids.ObjectID{obj}, Before: before,
			Params: key, Logical: l, Version: ver,
		})
		j.dir.ApplyBlockEffect(l, ver, []ids.WorkerID{owner})
	}
	for _, wid := range c.active {
		c.sendWorker(c.workers[wid], &proto.Resume{Job: j.id})
	}
	c.dispatchCommands(j, batches)

	// Replay the operations since the checkpoint. Templates whose first
	// build was in flight were skipped by the plan; those builds fail
	// revalidation at commit (the placement epoch moved) and retry against
	// the recovered state.
	j.lastBlock = ids.NoTemplate
	j.autoValid = false
	j.recovering = false

	replay := j.oplog
	j.replaying = true
	for _, m := range replay {
		c.replayOp(j, m)
	}
	j.replaying = false
	c.Stats.OpsReplayed.Add(uint64(len(replay)))
	// Replay re-executed every logged op with fresh command and object
	// IDs; sync the high-water marks so a later promotion starts above
	// them.
	c.replSync(j)
	// Driver ops fenced behind the recovery (a reattaching driver's
	// journal resend, or ops queued before the failure) apply on top of
	// the restored state.
	c.drainOps(j)
	c.resolveIfQuiet(j)
}

// logicalOwners maps every logical object of one job to its owning worker
// under the current placement.
func (j *jobState) logicalOwners() map[ids.LogicalID]ids.WorkerID {
	out := make(map[ids.LogicalID]ids.WorkerID)
	for _, vm := range j.vars {
		for p, l := range vm.logicals {
			out[l] = vm.assign[p]
		}
	}
	return out
}

// replayOp re-executes one logged driver operation against the restored
// state. Definitions and template installs are idempotent and skipped;
// data and execution operations re-run.
func (c *Controller) replayOp(j *jobState, m proto.Msg) {
	switch op := m.(type) {
	case *proto.DefineVariable:
		// Variables persist across recovery.
	case *proto.TemplateStart, *proto.TemplateEnd:
		// Templates persist; the block's stages were already recorded.
	case *proto.Put:
		c.handlePut(j, op)
	case *proto.SubmitStage:
		if err := c.scheduleStageLive(j, op); err != nil {
			c.cfg.Logf("controller: %s replaying stage %s: %v", j.id, op.Stage, err)
		}
	case *proto.InstantiateBlock:
		c.handleInstantiateBlock(j, op)
	default:
		c.cfg.Logf("controller: unexpected logged operation %s", m.Kind())
	}
}
