package worker

import (
	"math"
	"sync"

	"nimbus/internal/command"
	"nimbus/internal/datastore"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/proto"
)

// enqueue admits a unit of work into its job's namespace. Non-barrier
// batches activate immediately; barrier units (template instances and
// patches) wait until every command of the same job that arrived before
// them has completed. Barrier accounting uses per-job prefix arrival
// counters: every command takes the job's next arrival index, a barrier
// unit records the prefix it must outwait (mark), and the completion
// watermark arrLow advances over completed indexes — so a completion costs
// O(1) amortized instead of a scan over the queued units, commands
// arriving *after* a queued unit (which may legitimately depend on the
// unit's own commands) can never deadlock its activation, and one job's
// barrier never waits on another job's in-flight work.
func (w *Worker) enqueue(u *unit) {
	js := u.js
	if js.halted {
		w.releaseUnit(u)
		return
	}
	n := len(u.pcs)
	u.mark = js.cmdArrived
	u.remaining = n
	u.activated = false
	js.arrReserve(n)
	for i := range u.pcs {
		pc := &u.pcs[i]
		pc.unit = u
		pc.epoch = js.haltEpoch
		pc.arrIdx = u.mark + uint64(i)
		pc.state = psInit
		pc.missing = 0
	}
	js.cmdArrived += uint64(n)
	if u.ct != nil {
		js.liveUnits = append(js.liveUnits, u)
	}
	if !u.barrier {
		w.activate(u)
		w.dispatch()
		return
	}
	if len(js.units) == 0 && js.arrLow >= u.mark {
		w.activate(u)
	} else {
		js.units = append(js.units, u)
	}
	w.dispatch()
}

// arrReserve grows the job's arrival ring so the next n indexes have
// slots. The ring must cover [arrLow, cmdArrived+n).
func (js *jstate) arrReserve(n int) {
	need := js.cmdArrived + uint64(n) - js.arrLow
	if need <= uint64(len(js.arrRing)) {
		return
	}
	size := uint64(len(js.arrRing))
	for size < need {
		size *= 2
	}
	ring := make([]bool, size)
	oldMask := uint64(len(js.arrRing) - 1)
	for i := js.arrLow; i < js.cmdArrived; i++ {
		ring[i&(size-1)] = js.arrRing[i&oldMask]
	}
	js.arrRing = ring
}

// arrDone marks an arrival index complete and advances the job's low
// watermark over the completed prefix.
func (js *jstate) arrDone(idx uint64) {
	mask := uint64(len(js.arrRing) - 1)
	js.arrRing[idx&mask] = true
	for js.arrLow < js.cmdArrived && js.arrRing[js.arrLow&mask] {
		js.arrRing[js.arrLow&mask] = false
		js.arrLow++
	}
}

// activate admits a unit's commands into its job's unfinished set,
// resolving their before sets against the job's completion state
// (control-plane requirement 1: workers determine runnability locally).
func (w *Worker) activate(u *unit) {
	js := u.js
	u.activated = true
	w.Stats.Activations.Add(1)
	if len(u.pcs) == 0 {
		w.completeUnit(u)
		return
	}
	if u.ct != nil {
		w.activateCompiled(u)
		return
	}
	for i := range u.pcs {
		pc := &u.pcs[i]
		pc.state = psActive
		js.unfin++
		for _, dep := range pc.cmd.Before {
			if js.isDone(dep) {
				continue
			}
			js.waiters[dep] = append(js.waiters[dep], pc)
			pc.missing++
		}
		js.checkPayload(pc)
		if pc.missing == 0 {
			w.makeRunnable(pc)
		}
	}
}

// activateCompiled resolves a template/patch instance's dependencies
// against the arena: intra-instance edges are pre-resolved entry positions
// (no map traffic), external edges — dangling references edits can leave —
// fall back to the job's completion state like any other before set.
// Inline commands may complete while later slots are still being
// activated; their psDone state is what a later slot's local-edge check
// observes, mirroring the isDone check of the map-based path.
func (w *Worker) activateCompiled(u *unit) {
	js := u.js
	entries := u.ct.Entries
	for i := range u.pcs {
		pc := &u.pcs[i]
		pc.state = psActive
		js.unfin++
		e := &entries[i]
		for _, lp := range e.LocalBefore {
			if u.pcs[lp].state != psDone {
				pc.missing++
			}
		}
		for _, gi := range e.ExtBefore {
			dep := u.base + ids.CommandID(gi)
			if js.isDone(dep) {
				continue
			}
			js.waiters[dep] = append(js.waiters[dep], pc)
			pc.missing++
		}
		js.checkPayload(pc)
		if pc.missing == 0 {
			w.makeRunnable(pc)
		}
	}
}

// checkPayload registers a CopyRecv for its data payload if it has not
// already arrived (payloads may outrun commands because the data plane is
// independent of the control plane).
func (js *jstate) checkPayload(pc *pcmd) {
	if pc.cmd.Kind != command.CopyRecv {
		return
	}
	if _, ok := js.payloads[pc.cmd.ID]; !ok {
		js.payWait[pc.cmd.ID] = pc
		pc.missing++
	}
}

// isDone reports whether a command is known complete within this job:
// below the watermark, recorded in the done map (non-template commands),
// inside a completed instance's range, or completed within a live arena.
// The instance cases answer by ID arithmetic and a position-table probe —
// no hashing.
func (js *jstate) isDone(id ids.CommandID) bool {
	if id < js.doneLow {
		return true
	}
	if _, ok := js.done[id]; ok {
		return true
	}
	// doneRanges is sorted by base and instance ID blocks are disjoint,
	// so one binary search finds the only candidate range — the probe at
	// lo covers hostile negative entry indexes (IDs just below a base).
	lo, hi := 0, len(js.doneRanges)
	for lo < hi {
		mid := (lo + hi) / 2
		if js.doneRanges[mid].base <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for _, i := range [2]int{lo - 1, lo} {
		if i < 0 || i >= len(js.doneRanges) {
			continue
		}
		dr := &js.doneRanges[i]
		if idx, ok := entryIndex(id, dr.base); ok && dr.ct.Has(idx) {
			return true
		}
	}
	for _, u := range js.liveUnits {
		if idx, ok := entryIndex(id, u.base); ok {
			if p := u.ct.PosOf(idx); p >= 0 && u.pcs[p].state == psDone {
				return true
			}
		}
	}
	return false
}

// entryIndex recovers the template entry index a command ID encodes
// relative to an instance base (ID arithmetic is modular, so a negative
// index — hostile but tolerated — round-trips too).
func entryIndex(id, base ids.CommandID) (int32, bool) {
	off := int64(id - base)
	if off < math.MinInt32 || off > math.MaxInt32 {
		return 0, false
	}
	return int32(off), true
}

// makeRunnable routes a dependency-free command: tasks queue for executor
// slots in their job's runnable ring; control commands (copies, data,
// file) execute inline — they are bookkeeping and I/O initiation, not
// computation.
func (w *Worker) makeRunnable(pc *pcmd) {
	if pc.cmd.Kind == command.Task {
		pc.unit.js.runnable.push(pc)
		return
	}
	w.execInline(pc)
}

// dispatch starts queued tasks while executor slots are free, visiting
// jobs round-robin so the shared pool is split fairly. A job at its quota
// is skipped while free slots exist — that headroom belongs to tenants
// below their share — but the dispatcher is work-conserving: once no
// under-quota job wants a slot, remaining slots are handed out
// round-robin past quota rather than idling (quota floors and fair-share
// truncation can leave the shares summing below the slot count).
func (w *Worker) dispatch() {
	n := len(w.jobList)
	if n == 0 {
		return
	}
	for w.freeSlots > 0 {
		progressed := false
		deferred := false
		for k := 0; k < n; k++ {
			js := w.jobList[(w.rr+k)%n]
			if js.runnable.n == 0 {
				continue
			}
			if js.running >= int(js.quota.Load()) {
				// Only a skip while slots were actually free is a
				// deferral; with the pool exhausted the job lost nothing
				// to fairness enforcement.
				if w.freeSlots > 0 {
					deferred = true
				}
				continue
			}
			if w.freeSlots == 0 {
				break
			}
			w.startTask(js.runnable.pop())
			progressed = true
		}
		w.rr = (w.rr + 1) % n
		if progressed {
			// An at-quota job was passed over while another actually took
			// a slot: fairness enforcement happened. (A skip that the
			// work-conserving overflow below immediately overrides is not
			// a deferral and is not counted.)
			if deferred {
				w.Stats.QuotaDeferrals.Add(1)
			}
			continue
		}
		if !deferred || w.freeSlots == 0 {
			return
		}
		// Work-conserving overflow: every runnable job is at (or past)
		// its quota and slots are still free — hand them out round-robin
		// past quota. Idle slots help no one.
		for k := 0; k < n && w.freeSlots > 0; k++ {
			js := w.jobList[(w.rr+k)%n]
			if js.runnable.n > 0 {
				w.startTask(js.runnable.pop())
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// startTask claims a slot for one task. The task reaches an executor when
// the loop turn that started it ends (handOff).
func (w *Worker) startTask(pc *pcmd) {
	pc.unit.js.running++
	w.freeSlots--
	w.started = append(w.started, pc)
}

// handOff gives the tasks started since the last hand-off to the executors,
// under one lock however many there are (event loop only).
func (w *Worker) handOff() {
	if len(w.started) == 0 {
		return
	}
	w.work.push(w.started)
	for i := range w.started {
		w.started[i] = nil
	}
	w.started = w.started[:0]
}

// startExecutors launches the worker's cfg.Slots persistent executors. They
// exit when the worker finishes.
func (w *Worker) startExecutors() {
	w.wg.Add(w.cfg.Slots)
	for i := 0; i < w.cfg.Slots; i++ {
		go w.executor()
	}
}

// executor runs tasks from the work queue, one at a time, until the worker
// stops. The dispatcher claims a slot per queued task, so at most cfg.Slots
// tasks are ever queued or running and none waits behind a busy executor
// while another is idle.
func (w *Worker) executor() {
	defer w.wg.Done()
	for {
		pc, ok := w.work.pop()
		if !ok {
			return
		}
		w.runTask(pc)
	}
}

// taskScratch is an executor's reusable working set: resolved read/write
// buffers and the function context. Pooled so steady-state task execution
// does not allocate per command.
type taskScratch struct {
	reads  [][]byte
	objs   []*datastore.Object
	writes [][]byte
	ctx    fn.Ctx
}

var scratchPool = sync.Pool{New: func() any { return new(taskScratch) }}

// runTask executes one task command on an executor, against its job's
// object store.
func (w *Worker) runTask(pc *pcmd) {
	c := &pc.cmd
	store := pc.unit.js.store
	f := w.reg.Lookup(c.Function)
	if f == nil {
		w.cfg.Logf("worker %s: unknown function %s", w.id, c.Function)
		w.postDone(pc)
		return
	}
	sc := scratchPool.Get().(*taskScratch)
	nr, nw := len(c.Reads), len(c.Writes)
	if cap(sc.reads) < nr {
		sc.reads = make([][]byte, nr)
	}
	sc.reads = sc.reads[:nr]
	for i, obj := range c.Reads {
		sc.reads[i] = store.Ensure(obj, ids.NoLogical).Data
	}
	if cap(sc.objs) < nw {
		sc.objs = make([]*datastore.Object, nw)
		sc.writes = make([][]byte, nw)
	}
	sc.objs = sc.objs[:nw]
	sc.writes = sc.writes[:nw]
	for i, obj := range c.Writes {
		o := store.Ensure(obj, ids.NoLogical)
		sc.objs[i] = o
		sc.writes[i] = o.Data
	}
	sc.ctx.Reset(w.id, c.Params, sc.reads, sc.writes)
	if err := f(&sc.ctx); err != nil {
		w.cfg.Logf("worker %s: task %s (%s) failed: %v", w.id, c.ID, c.Function, err)
	}
	for i, o := range sc.objs {
		data, _ := sc.ctx.Result(i)
		o.Data = data
		o.Version++
	}
	// Drop buffer references before pooling so an idle scratch pins no
	// object data.
	for i := range sc.reads {
		sc.reads[i] = nil
	}
	for i := range sc.writes {
		sc.writes[i] = nil
	}
	for i := range sc.objs {
		sc.objs[i] = nil
	}
	sc.ctx.Reset(0, nil, nil, nil)
	scratchPool.Put(sc)
	w.Stats.TasksRun.Add(1)
	w.postDone(pc)
}

// postDone reports a command completion back to the event loop (from an
// executor or a peer writer, never from the loop itself).
func (w *Worker) postDone(pc *pcmd) {
	w.mbox.Put(event{kind: evDone, cmd: pc})
}

// execInline runs a non-task command synchronously on the event loop and
// completes it. Completion cascades (handleDone may make further inline
// commands runnable) are handled by direct recursion.
func (w *Worker) execInline(pc *pcmd) {
	c := &pc.cmd
	js := pc.unit.js
	switch c.Kind {
	case command.CopySend:
		// A chunked or parked send completes asynchronously (evDone from
		// the writer, or a retry on evPeerSpace); only the synchronous
		// paths fall through to handleDone.
		if w.execSend(js, pc) {
			w.handleDone(pc)
		}
		return
	case command.CopyRecv:
		w.execRecv(js, c)
	case command.LocalCopy:
		if src := js.store.Get(c.Reads[0]); src != nil {
			buf := make([]byte, len(src.Data))
			copy(buf, src.Data)
			js.store.Install(c.Writes[0], c.Logical, src.Version, buf)
		}
	case command.Create:
		buf := make([]byte, len(c.Params))
		copy(buf, c.Params)
		js.store.Install(c.Writes[0], c.Logical, c.Version, buf)
	case command.Destroy:
		js.store.Destroy(c.Writes[0])
	case command.Save:
		w.execSave(js, c)
	case command.Load:
		w.execLoad(js, c)
	default:
		w.cfg.Logf("worker %s: inline command %s has unexpected kind %s", w.id, c.ID, c.Kind)
	}
	w.handleDone(pc)
}

// execSend initiates one CopySend, reporting whether it completed
// synchronously (self-delivery, a small payload admitted to the queue, or
// a drop). false means the command finishes later — evDone once the
// writer streams the last chunk, or an evPeerSpace retry if it parked.
func (w *Worker) execSend(js *jstate, snd *pcmd) bool {
	c := &snd.cmd
	obj := js.store.Get(c.Reads[0])
	if obj == nil {
		w.cfg.Logf("worker %s: copy-send %s: missing object %s", w.id, c.ID, c.Reads[0])
		obj = js.store.Ensure(c.Reads[0], c.Logical)
	}
	if c.DstWorker == w.id {
		// Self-delivery without a network round trip.
		buf := make([]byte, len(obj.Data))
		copy(buf, obj.Data)
		w.Stats.CopiesSent.Add(1)
		w.handlePayload(inPayload{msg: &proto.DataPayload{
			Job:        js.id,
			DstCommand: c.DstCommand,
			Object:     c.Reads[0],
			Logical:    c.Logical,
			Version:    obj.Version,
			Data:       buf,
		}})
		return true
	}
	return w.sendPeer(c.DstWorker, snd, obj)
}

// execRecv installs the payload that was buffered for a CopyRecv: one that
// outran its command, or arrived while the command had another dependency
// unmet.
func (w *Worker) execRecv(js *jstate, c *command.Command) {
	ip, ok := js.payloads[c.ID]
	if !ok {
		w.cfg.Logf("worker %s: copy-recv %s activated without payload", w.id, c.ID)
		return
	}
	delete(js.payloads, c.ID)
	w.installPayload(js, c, ip)
}

// installPayload completes a CopyRecv's data movement: the received body
// becomes the command's output object.
func (w *Worker) installPayload(js *jstate, c *command.Command, ip inPayload) {
	logical := c.Logical
	if logical == ids.NoLogical {
		logical = ip.msg.Logical
	}
	if ip.spill != nil {
		// The body streamed to disk under receive-budget pressure; install
		// it disk-backed and let the first reader fault it in.
		js.store.InstallSpilled(c.Writes[0], logical, ip.msg.Version, ip.spill)
	} else {
		js.store.Install(c.Writes[0], logical, ip.msg.Version, ip.msg.Data)
	}
	w.Stats.CopiesRecv.Add(1)
}

func (w *Worker) execSave(js *jstate, c *command.Command) {
	if w.durable == nil {
		w.cfg.Logf("worker %s: save %s: no durable store configured", w.id, c.ID)
		return
	}
	ckpt := params.NewDecoder(c.Params).Uint()
	obj := js.store.Get(c.Reads[0])
	if obj == nil {
		w.cfg.Logf("worker %s: save %s: missing object %s", w.id, c.ID, c.Reads[0])
		w.reportSaveFailed(js, ckpt, c, "missing object")
		return
	}
	if err := w.durable.Save(js.id, ckpt, c.Logical, obj.Version, obj.Data); err != nil {
		w.cfg.Logf("worker %s: save %s: %v", w.id, c.ID, err)
		w.reportSaveFailed(js, ckpt, c, err.Error())
	}
}

// reportSaveFailed tells the controller a checkpoint Save errored. It is
// sent immediately rather than batched so it precedes the command's
// Complete on the FIFO control link: the controller must veto the commit
// before the completion that would otherwise let it go through.
func (w *Worker) reportSaveFailed(js *jstate, ckpt uint64, c *command.Command, reason string) {
	if err := w.sendCtrl(&proto.SaveFailed{Job: js.id, Ckpt: ckpt, Logical: c.Logical, Err: reason}); err != nil {
		w.cfg.Logf("worker %s: save-failed report: %v", w.id, err)
	}
}

func (w *Worker) execLoad(js *jstate, c *command.Command) {
	if w.durable == nil {
		w.cfg.Logf("worker %s: load %s: no durable store configured", w.id, c.ID)
		return
	}
	ckpt := params.NewDecoder(c.Params).Uint()
	data, version, err := w.durable.Load(js.id, ckpt, c.Logical)
	if err != nil {
		w.cfg.Logf("worker %s: load %s: %v", w.id, c.ID, err)
		return
	}
	js.store.Install(c.Writes[0], c.Logical, version, data)
}

// handlePayload routes an arriving data payload into its job's namespace.
// When the payload is the last thing its receive command waited for — the
// steady case — it is installed from here and the command completes. It is
// buffered in js.payloads when it outran its command (the data plane is
// independent of the control plane) or the command has another dependency
// unmet; execRecv picks it up then.
func (w *Worker) handlePayload(ip inPayload) {
	p := ip.msg
	if _, dead := w.deadJobs[p.Job]; dead {
		if ip.spill != nil {
			ip.spill.Remove() // late spilled data must not leak its file
		}
		return // late data for a torn-down job; never resurrect it
	}
	js := w.job(p.Job)
	pc, ok := js.payWait[p.DstCommand]
	if !ok {
		js.payloads[p.DstCommand] = ip
		return
	}
	delete(js.payWait, p.DstCommand)
	pc.missing--
	if pc.missing > 0 {
		js.payloads[p.DstCommand] = ip
		return
	}
	w.installPayload(js, &pc.cmd, ip)
	w.handleDone(pc)
}

// handleDone retires a completed command: record completion in its job's
// namespace, wake waiters (intra-instance ones through the compiled
// reverse edges, cross-unit ones through the job's waiter map), advance
// the job's arrival watermark, credit the executor slot, report to the
// controller, and activate any unit whose barrier cleared.
func (w *Worker) handleDone(pc *pcmd) {
	js := pc.unit.js
	if pc.epoch != js.haltEpoch {
		// Completed after a halt (or teardown) flushed the job's queues;
		// the command's state was already discarded, but the task still
		// held its executor slot — return it now. Halt leaves freeSlots
		// alone for exactly this reason (invariant: freeSlots + running
		// tasks == Slots), so stale completions cannot push the count
		// past the limit.
		if pc.cmd.Kind == command.Task {
			w.freeSlots++
			js.running--
			w.finishHalt(js)
			w.dispatch()
		}
		return
	}
	id := pc.cmd.ID
	pc.state = psDone
	js.unfin--
	w.Stats.CommandsDone.Add(1)
	if w.outage {
		w.Stats.OutageDone.Add(1)
	}
	if pc.cmd.Kind == command.Task {
		w.freeSlots++
		js.running--
	}
	js.arrDone(pc.arrIdx)

	u := pc.unit
	if u.ct != nil {
		for _, wi := range u.ct.Entries[pc.local].LocalWaiters {
			wpc := &u.pcs[wi]
			if wpc.state != psActive {
				// Not yet activated: it will observe this completion
				// through the psDone state instead.
				continue
			}
			wpc.missing--
			if wpc.missing == 0 {
				w.makeRunnable(wpc)
			}
		}
	} else {
		js.done[id] = struct{}{}
	}
	if len(js.waiters) > 0 {
		if ws := js.waiters[id]; len(ws) > 0 {
			delete(js.waiters, id)
			for _, wpc := range ws {
				wpc.missing--
				if wpc.missing == 0 {
					w.makeRunnable(wpc)
				}
			}
		}
	}

	// The unit may be recycled by completeUnit; capture what the
	// completion report needs first.
	instance := u.instance
	u.remaining--
	if u.remaining == 0 {
		w.completeUnit(u)
	}

	// Completion reporting: per-command in eager (central) mode; batched
	// in Nimbus mode, with instance commands elided entirely — BlockDone
	// subsumes them (paper §2.2: n+1 messages per steady-state block).
	if instance == 0 {
		js.completions = append(js.completions, id)
		if w.eager || len(js.completions) >= completionBatch || js.unfin == 0 {
			w.flushCompletions(js)
		}
	} else if js.unfin == 0 && len(js.completions) > 0 {
		w.flushCompletions(js)
	}

	w.tryActivateUnits(js)
	w.dispatch()
}

// completeUnit retires a finished unit: report BlockDone for template
// instances, fold instance completions into the job's done ranges, and
// recycle the arena. No references to the unit's pcmds survive this point
// (every command has completed and been unregistered), so pooling is safe.
func (w *Worker) completeUnit(u *unit) {
	js := u.js
	if u.instance != 0 {
		w.bdMsg = proto.BlockDone{Job: js.id, Worker: w.id, Instance: u.instance}
		_ = w.sendCtrl(&w.bdMsg)
	}
	if u.ct != nil {
		// Insert keeping doneRanges sorted by base (isDone binary-searches
		// it). Instances usually complete in base order, so the insertion
		// point is almost always the end.
		i := len(js.doneRanges)
		for i > 0 && js.doneRanges[i-1].base > u.base {
			i--
		}
		js.doneRanges = append(js.doneRanges, doneRange{})
		copy(js.doneRanges[i+1:], js.doneRanges[i:])
		js.doneRanges[i] = doneRange{base: u.base, ct: u.ct}
		for i, lu := range js.liveUnits {
			if lu == u {
				last := len(js.liveUnits) - 1
				js.liveUnits[i] = js.liveUnits[last]
				js.liveUnits[last] = nil
				js.liveUnits = js.liveUnits[:last]
				break
			}
		}
	}
	w.releaseUnit(u)
}

// completionBatch caps how many non-instance completions accumulate before
// a batched-mode report is flushed.
const completionBatch = 64

func (w *Worker) flushCompletions(js *jstate) {
	if len(js.completions) == 0 {
		return
	}
	msg := &proto.Complete{Job: js.id, Worker: w.id, IDs: js.completions}
	_ = w.sendCtrl(msg)
	// sendCtrl marshals synchronously, so the backing array can be
	// reused for the next batch.
	js.completions = js.completions[:0]
}

// tryActivateUnits activates one job's queued units, in order, whose
// barriers have cleared: the head's arrival-prefix mark has been overtaken
// by the job's completion watermark.
func (w *Worker) tryActivateUnits(js *jstate) {
	for len(js.units) > 0 {
		head := js.units[0]
		if js.arrLow < head.mark {
			return
		}
		js.units[0] = nil
		js.units = js.units[1:]
		if len(js.units) == 0 {
			js.units = nil
		}
		w.activate(head)
	}
}
