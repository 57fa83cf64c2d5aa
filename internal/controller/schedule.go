package controller

import (
	"errors"
	"fmt"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/core"
	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/proto"
	"nimbus/internal/simclock"
	"nimbus/internal/stream"
)

// placement adapts one job's variable table to core.Placement.
type placement struct{ j *jobState }

func (p placement) WorkerOf(v ids.VariableID, partition int) ids.WorkerID {
	vm := p.j.vars[v]
	if vm == nil || partition < 0 || partition >= len(vm.assign) {
		return ids.NoWorker
	}
	return vm.assign[partition]
}

func (p placement) Logical(v ids.VariableID, partition int) ids.LogicalID {
	vm := p.j.vars[v]
	if vm == nil || partition < 0 || partition >= len(vm.logicals) {
		return ids.NoLogical
	}
	return vm.logicals[partition]
}

func (p placement) Partitions(v ids.VariableID) int {
	if vm := p.j.vars[v]; vm != nil {
		return vm.partitions
	}
	return 0
}

func (j *jobState) placement() core.Placement { return placement{j} }

func (c *Controller) handleDefineVariable(j *jobState, m *proto.DefineVariable) {
	if m.Partitions <= 0 {
		c.rejectOp(j, fmt.Sprintf("variable %q: partition count %d", m.Name, m.Partitions))
		return
	}
	if len(c.active) == 0 {
		c.rejectOp(j, fmt.Sprintf("variable %q defined with no workers", m.Name))
		return
	}
	vm := &varMeta{
		id:         m.Var,
		name:       m.Name,
		partitions: m.Partitions,
		logicals:   make([]ids.LogicalID, m.Partitions),
		assign:     roundRobin(c.active, m.Partitions),
	}
	for p := range vm.logicals {
		vm.logicals[p] = j.logIDs.Next()
	}
	j.vars[m.Var] = vm
	c.logOp(j, m)
}

func (c *Controller) driverError(j *jobState, text string) {
	c.cfg.Logf("controller: %s driver error: %s", j.id, text)
	c.sendDriver(j, &proto.ErrorMsg{Text: text})
}

// logRejected accounts one rejected logged driver operation. The driver
// journals every logged op and counts it in opsSent before sending — it
// cannot know the controller will refuse it — so the job's applied counter
// must advance for rejected ops too, or a reattaching driver's journal
// resend starts one entry early and re-applies operations the controller
// already executed. A rejected op never joins the oplog (it had no effect,
// so recovery must not replay it); only the counter moves, mirrored to an
// attached standby as an allocator-sync ReplOp.
func (c *Controller) logRejected(j *jobState) {
	if j.replaying || j.loopStepping {
		return
	}
	j.applied++
	c.replSync(j)
}

// rejectOp refuses one logged driver operation: surface the error and keep
// the applied counter in lockstep with the driver's journal.
func (c *Controller) rejectOp(j *jobState, text string) {
	c.driverError(j, text)
	c.logRejected(j)
}

// handlePut uploads initial data for one partition as a Create command on
// the owning worker, ordered by the job's worker ledger like any other
// write.
func (c *Controller) handlePut(j *jobState, m *proto.Put) {
	vm := j.vars[m.Var]
	if vm == nil || m.Partition < 0 || m.Partition >= vm.partitions {
		c.rejectOp(j, fmt.Sprintf("put to unknown variable %s partition %d", m.Var, m.Partition))
		return
	}
	l := vm.logicals[m.Partition]
	w := vm.assign[m.Partition]
	obj := j.dir.Instance(l, w)
	id := j.cmdIDs.Next()
	before := j.ledgers[w].Write(obj, id, nil)
	version := j.dir.RecordWrite(l, w)
	cmd := &command.Command{
		ID: id, Kind: command.Create,
		Writes: []ids.ObjectID{obj}, Before: before,
		Params: params.Blob(m.Data), Logical: l, Version: version,
	}
	j.autoValid = false
	c.dispatchCommands(j, map[ids.WorkerID][]*command.Command{w: {cmd}})
	c.logOp(j, m)
}

// handleGet registers a synchronized read: the reply is sent once all the
// job's outstanding work has drained (Gets are the synchronization points
// that drive data-dependent control flow, paper §2.4). Another job's
// outstanding work never delays a Get.
func (c *Controller) handleGet(j *jobState, m *proto.Get) {
	// A driver re-issues unresolved Gets with their original seq after a
	// failover; against a surviving controller the first issue may still
	// be parked or fetching, so the duplicate is dropped.
	for _, g := range j.gets {
		if g.seq == m.Seq {
			return
		}
	}
	for _, pf := range c.fetches {
		if pf.job == j.id && pf.loop == nil && pf.driverSeq == m.Seq {
			return
		}
	}
	if len(j.gets) > 0 {
		// Another read is already parked: the driver pipelined its Gets
		// (v2 GetAsync) instead of gating each on the previous reply.
		c.Stats.PipelinedGets.Add(1)
	}
	j.gets = append(j.gets, pendingGet{seq: m.Seq, v: m.Var, p: m.Partition})
	c.resolveIfQuiet(j)
}

func (c *Controller) handleBarrier(j *jobState, m *proto.Barrier) {
	for _, b := range j.barriers {
		if b.seq == m.Seq {
			return // re-issued across a failover; already parked
		}
	}
	j.barriers = append(j.barriers, pendingBarrier{seq: m.Seq})
	c.resolveIfQuiet(j)
}

// workOutstanding counts one job's unfinished execution: dispatched
// commands and template instances.
func (j *jobState) workOutstanding() int {
	return len(j.outstanding) + len(j.instances) + j.central.pendingCount()
}

// totalOutstanding adds in-flight template builds and the driver
// operations queued behind the op fence — barriers, gets and checkpoints
// must not resolve while queued operations still have effects to apply.
func (j *jobState) totalOutstanding() int {
	return j.workOutstanding() + len(j.building) + len(j.opq)
}

// resolveIfQuiet answers a job's barriers and gets once it has drained.
// In-flight predicate loops advance as soon as execution drains — before
// the opq check, NOT behind it: ops queued in opq are fenced precisely
// because the loop is in flight, so gating the loop on an empty opq
// would deadlock the job (the loop waits for the queue, the queue waits
// for the loop). Barriers and gets still wait for everything, loops
// included, so they observe the loop's final state.
func (c *Controller) resolveIfQuiet(j *jobState) {
	// A recovering or takeover-parked job must not resolve anything: its
	// apparent quiescence is the halt flush, not real completion, and a
	// reattached driver's parked gets would read pre-revert state.
	if j.recovering || j.pendingTakeover {
		return
	}
	if j.workOutstanding() > 0 {
		return
	}
	if len(j.loops) > 0 {
		c.advanceLoop(j)
		return
	}
	if len(j.building) > 0 || len(j.opq) > 0 {
		return
	}
	for _, b := range j.barriers {
		c.sendDriver(j, &proto.BarrierDone{Seq: b.seq, Applied: c.safeApplied(j)})
	}
	j.barriers = nil
	gets := j.gets
	j.gets = nil
	for _, g := range gets {
		c.startFetch(j, g)
	}
	if j.ckpt.saving {
		c.commitCheckpoint(j)
	} else if len(j.ckpt.requested) > 0 {
		c.beginCheckpoint(j)
	}
}

func (c *Controller) startFetch(j *jobState, g pendingGet) {
	vm := j.vars[g.v]
	if vm == nil || g.p < 0 || g.p >= vm.partitions {
		c.sendDriver(j, &proto.GetResult{Seq: g.seq})
		return
	}
	l := vm.logicals[g.p]
	holder := j.dir.LatestHolder(l)
	if holder == ids.NoWorker {
		c.sendDriver(j, &proto.GetResult{Seq: g.seq})
		return
	}
	rep := j.dir.Lookup(l, holder)
	c.fetchSeq++
	c.fetches[c.fetchSeq] = &pendingFetch{job: j.id, driverSeq: g.seq, v: g.v, p: g.p}
	c.sendWorker(c.workers[holder], &proto.FetchObject{Job: j.id, Seq: c.fetchSeq, Object: rep.Object})
}

// fetchChunks reassembles one chunked fetch reply.
type fetchChunks struct {
	ra  stream.Reassembler
	buf []byte
}

// handleFetchChunk lands one chunk of a large fetch reply. Chunks are
// only accepted for fetches actually outstanding, so a misbehaving worker
// cannot grow the reassembly table; on the last chunk the buffered body
// resolves through the ordinary ObjectData path. A protocol violation
// drops the partial state and resolves the fetch empty rather than
// leaving the driver hanging.
func (c *Controller) handleFetchChunk(m *proto.DataChunk) {
	if m.Flags&proto.ChunkFetch == 0 || c.fetches[m.Fetch] == nil {
		return
	}
	st := c.chunkRx[m.Fetch]
	if st == nil {
		if m.Seq != 0 {
			return // stale tail of an already-dropped reassembly
		}
		// The chunk-size bound here is hostile-input protection, not the
		// workers' configured chunk size (the controller does not know
		// it); cap at the transport frame limit.
		st = &fetchChunks{ra: stream.Reassembler{Xfer: m.Xfer, Total: m.Total, ChunkSize: 1 << 28}}
		c.chunkRx[m.Fetch] = st
	}
	raw, err := st.ra.Accept(m)
	if err != nil {
		if errors.Is(err, stream.ErrDup) {
			return
		}
		c.cfg.Logf("controller: fetch %d chunk: %v", m.Fetch, err)
		delete(c.chunkRx, m.Fetch)
		c.handleObjectData(&proto.ObjectData{Seq: m.Fetch, Object: m.Object, Version: m.Version})
		return
	}
	st.buf = append(st.buf, raw...)
	if !m.Last {
		return
	}
	delete(c.chunkRx, m.Fetch)
	c.handleObjectData(&proto.ObjectData{Seq: m.Fetch, Object: m.Object, Version: m.Version, Data: st.buf})
}

func (c *Controller) handleObjectData(m *proto.ObjectData) {
	pf := c.fetches[m.Seq]
	if pf == nil {
		return
	}
	delete(c.fetches, m.Seq)
	j := c.jobs[pf.job]
	if j == nil {
		return // job torn down while the fetch was in flight
	}
	if pf.loop != nil {
		c.evalLoopPred(j, pf.loop, m.Data)
		return
	}
	c.sendDriver(j, &proto.GetResult{Seq: pf.driverSeq, Data: m.Data})
}

// handleSubmitStage expands one stage into commands. In Nimbus mode whole
// per-worker batches are pushed at once; in central mode commands enter
// the job's central dispatch graph. If the job is recording a template,
// the stage is additionally recorded into the builder.
func (c *Controller) handleSubmitStage(j *jobState, m *proto.SubmitStage) {
	if j.recording != nil {
		rstart := time.Now()
		// Recording only validates and captures the stage spec; the
		// O(tasks) assignment construction happens off-loop at
		// TemplateEnd. Every build-time error is shape-dependent, so
		// validation here guarantees the deferred build cannot fail.
		if err := core.ValidateStage(m, j.placement()); err != nil {
			c.driverError(j, err.Error())
			j.recording = nil
		} else {
			j.recording.tmpl.Stages = append(j.recording.tmpl.Stages, m)
			j.recording.tmpl.TaskCount += m.Tasks
			c.Stats.RecordNanos.Add(uint64(time.Since(rstart)))
		}
	}
	if err := c.scheduleStageLive(j, m); err != nil {
		c.rejectOp(j, err.Error())
		return
	}
	c.logOp(j, m)
}

// scheduleStageLive schedules a stage the non-templated way: per-task
// dependency analysis against the job's live directory and ledgers, with
// eager copies for any data a task needs that is not latest on its worker.
func (c *Controller) scheduleStageLive(j *jobState, m *proto.SubmitStage) error {
	start := time.Now()
	defer func() { c.Stats.ScheduleNanos.Add(uint64(time.Since(start))) }()
	place := j.placement()
	batches := make(map[ids.WorkerID][]*command.Command)
	j.autoValid = false
	for t := 0; t < m.Tasks; t++ {
		reads, writes, err := core.TaskAccesses(m, place, t)
		if err != nil {
			return err
		}
		w, err := core.AnchorWorker(m, place, t)
		if err != nil {
			return err
		}
		if w == ids.NoWorker {
			return fmt.Errorf("stage %s task %d has no placement", m.Stage, t)
		}
		// Data movement first, so copies precede the task per worker.
		for _, l := range reads {
			c.ensureLatestAt(j, l, w, batches)
		}
		id := j.cmdIDs.Next()
		led := j.ledgers[w]
		var before []ids.CommandID
		readObjs := make([]ids.ObjectID, len(reads))
		for i, l := range reads {
			obj := j.dir.Instance(l, w)
			readObjs[i] = obj
			before = led.Read(obj, id, before)
		}
		writeObjs := make([]ids.ObjectID, len(writes))
		for i, l := range writes {
			obj := j.dir.Instance(l, w)
			writeObjs[i] = obj
			before = led.Write(obj, id, before)
			j.dir.RecordWrite(l, w)
		}
		p := m.Params
		if t < len(m.PerTask) {
			p = m.PerTask[t]
		}
		batches[w] = append(batches[w], &command.Command{
			ID: id, Kind: command.Task, Function: m.Fn,
			Reads: readObjs, Writes: writeObjs, Before: before, Params: p,
		})
		c.Stats.TasksScheduled.Add(1)
	}
	c.dispatchCommands(j, batches)
	return nil
}

// ensureLatestAt inserts a copy pair if worker w does not hold the latest
// version of l within the job. Objects that have never been written need
// no movement.
func (c *Controller) ensureLatestAt(j *jobState, l ids.LogicalID, w ids.WorkerID, batches map[ids.WorkerID][]*command.Command) {
	if j.dir.Latest(l) == 0 || j.dir.IsLatest(l, w) {
		return
	}
	src := j.dir.LatestHolder(l)
	if src == ids.NoWorker {
		c.cfg.Logf("controller: %s %s has no live replica; reader at %s gets stale data", j.id, l, w)
		return
	}
	srcObj := j.dir.Instance(l, src)
	dstObj := j.dir.Instance(l, w)
	sendID := j.cmdIDs.Next()
	recvID := j.cmdIDs.Next()
	sendBefore := j.ledgers[src].Read(srcObj, sendID, nil)
	recvBefore := j.ledgers[w].Write(dstObj, recvID, nil)
	version := j.dir.Latest(l)
	batches[src] = append(batches[src], &command.Command{
		ID: sendID, Kind: command.CopySend,
		Reads: []ids.ObjectID{srcObj}, Before: sendBefore,
		DstWorker: w, DstCommand: recvID, Logical: l, Version: version,
	})
	batches[w] = append(batches[w], &command.Command{
		ID: recvID, Kind: command.CopyRecv,
		Writes: []ids.ObjectID{dstObj}, Before: recvBefore,
		Logical: l, Version: version,
	})
	j.dir.RecordCopy(l, w)
	c.Stats.CopiesInserted.Add(1)
}

// dispatchCommands routes generated commands according to the mode:
// batched pushes in Nimbus mode, graph-driven per-task dispatch in central
// mode. All commands are tracked as the job's outstanding work, and every
// frame carries the job so the worker lands them in the right namespace.
func (c *Controller) dispatchCommands(j *jobState, batches map[ids.WorkerID][]*command.Command) {
	if c.cfg.Mode == ModeCentral {
		for w, cmds := range batches {
			for _, cmd := range cmds {
				j.central.add(cmd, w)
			}
		}
		j.central.dispatchReady()
		return
	}
	for w, cmds := range batches {
		for _, cmd := range cmds {
			c.trackOutstanding(j, cmd.ID, w)
		}
		c.sendWorker(c.workers[w], &proto.SpawnCommands{Job: j.id, Cmds: cmds})
	}
}

// spawnBarrierBatch sends commands to one worker as a barrier unit
// (uncached patches).
func (c *Controller) spawnBarrierBatch(j *jobState, w ids.WorkerID, cmds []*command.Command) {
	for _, cmd := range cmds {
		c.trackOutstanding(j, cmd.ID, w)
	}
	c.sendWorker(c.workers[w], &proto.SpawnCommands{Job: j.id, Cmds: cmds, Barrier: true})
}

// trackOutstanding records a dispatched command, feeding the job's
// watermark tracker alongside its outstanding map.
func (c *Controller) trackOutstanding(j *jobState, id ids.CommandID, w ids.WorkerID) {
	j.outstanding[id] = w
	j.wm.add(id)
}

func (c *Controller) handleComplete(j *jobState, m *proto.Complete) {
	for _, id := range m.IDs {
		if _, ok := j.outstanding[id]; ok {
			delete(j.outstanding, id)
			j.wm.remove(id)
		}
	}
	if c.cfg.Mode == ModeCentral {
		j.central.complete(m.IDs)
		j.central.dispatchReady()
	}
	c.resolveIfQuiet(j)
}

func (c *Controller) handleBlockDone(j *jobState, m *proto.BlockDone) {
	inst := j.instances[m.Instance]
	if inst == nil {
		return
	}
	delete(inst.pending, m.Worker)
	if len(inst.pending) == 0 {
		delete(j.instances, m.Instance)
		j.wm.remove(inst.base)
		c.resolveIfQuiet(j)
	}
}

// centralGraph is the Spark-like dispatcher for one job: it holds every
// undispatched or in-flight command and releases a command to its worker
// only when all predecessors have completed, paying a per-task scheduling
// cost. This is the control-plane bottleneck Figures 1, 7 and 8 measure.
type centralGraph struct {
	c     *Controller
	j     *jobState
	nodes map[ids.CommandID]*cnode
}

type cnode struct {
	cmd        *command.Command
	worker     ids.WorkerID
	missing    int
	dependents []ids.CommandID
	dispatched bool
	ready      bool
}

func newCentralGraph(c *Controller, j *jobState) *centralGraph {
	return &centralGraph{c: c, j: j, nodes: make(map[ids.CommandID]*cnode)}
}

func (g *centralGraph) pendingCount() int { return len(g.nodes) }

func (g *centralGraph) add(cmd *command.Command, w ids.WorkerID) {
	n := &cnode{cmd: cmd, worker: w}
	for _, dep := range cmd.Before {
		if dn, ok := g.nodes[dep]; ok {
			dn.dependents = append(dn.dependents, cmd.ID)
			n.missing++
		}
	}
	// Cross-worker data dependencies are command-pair implicit: a receive
	// is released with its sender; the data plane orders the payload.
	g.nodes[cmd.ID] = n
	if n.missing == 0 {
		n.ready = true
	}
}

func (g *centralGraph) complete(done []ids.CommandID) {
	for _, id := range done {
		n, ok := g.nodes[id]
		if !ok {
			continue
		}
		delete(g.nodes, id)
		for _, dep := range n.dependents {
			dn, ok := g.nodes[dep]
			if !ok {
				continue
			}
			dn.missing--
			if dn.missing == 0 && !dn.dispatched {
				dn.ready = true
			}
		}
	}
}

// dispatchReady sends every ready command, modeling the baseline
// scheduler's per-task cost with a calibrated wait.
func (g *centralGraph) dispatchReady() {
	for {
		progressed := false
		for _, n := range g.nodes {
			if !n.ready || n.dispatched {
				continue
			}
			n.dispatched = true
			n.ready = false
			progressed = true
			simclock.Wait(g.c.cfg.CentralPerTaskCost)
			g.c.sendWorker(g.c.workers[n.worker], &proto.SpawnCommands{
				Job:  g.j.id,
				Cmds: []*command.Command{n.cmd},
			})
		}
		if !progressed {
			return
		}
	}
}
