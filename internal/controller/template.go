package controller

import (
	"fmt"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/core"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// editStaged is one staged worker-template edit awaiting the next
// instantiation of its assignment.
type editStaged = command.Edit

// handleTemplateStart begins recording a basic block for one job (paper
// §4.1: the driver marks basic blocks; the controller schedules the block
// normally while simultaneously storing it into a template). Template
// names are per-job: two jobs may record same-named templates.
func (c *Controller) handleTemplateStart(j *jobState, m *proto.TemplateStart) {
	if j.recording != nil {
		c.rejectOp(j, fmt.Sprintf("template %q started while %q is recording",
			m.Name, j.recording.tmpl.Name))
		return
	}
	if _, ok := j.templates[m.Name]; ok {
		c.rejectOp(j, fmt.Sprintf("template %q already installed", m.Name))
		return
	}
	j.recording = &recordingState{
		tmpl: &core.Template{ID: ids.TemplateID(j.tmplIDs.Next()), Name: m.Name},
	}
	c.logOp(j, m)
}

// handleTemplateEnd finishes recording and hands the block to the
// background build executor: the event loop only snapshots state and
// registers the in-flight build; the O(tasks) assignment construction runs
// off-loop and comes back as a commit event (builds.go). Instantiations
// arriving before the commit queue behind the job's build fence instead of
// stalling the loop — or any other job.
func (c *Controller) handleTemplateEnd(j *jobState, m *proto.TemplateEnd) {
	rec := j.recording
	if rec == nil || rec.tmpl.Name != m.Name {
		c.rejectOp(j, fmt.Sprintf("template end for %q without matching start", m.Name))
		return
	}
	j.recording = nil
	j.templates[m.Name] = rec.tmpl
	c.logOp(j, m)
	c.startTemplateBuild(j, m.Name, rec.tmpl)
}

// installAssignment pushes worker templates to every worker that does not
// hold them yet, tagged with the owning job's namespace.
func (c *Controller) installAssignment(j *jobState, t *core.Template, a *core.Assignment) {
	for _, w := range a.Workers() {
		if a.Installed[w] {
			continue
		}
		msg := a.InstallMessage(w, t.Name)
		msg.Job = j.id
		c.sendWorker(c.workers[w], msg)
		a.Installed[w] = true
	}
}

// handleInstantiateBlock executes one cached basic block: validate (or
// auto-validate) the active assignment's preconditions, patch if needed,
// then send one instantiation message per participating worker
// (paper §2.2: n+1 control messages in the steady state; multi-tenancy
// adds one varint — the job — per message). It reports success so the
// predicate-loop machinery (loops.go) can abort a loop whose iteration
// failed; the error itself already went to the driver.
func (c *Controller) handleInstantiateBlock(j *jobState, m *proto.InstantiateBlock) bool {
	t := j.templates[m.Name]
	if t == nil {
		c.rejectOp(j, fmt.Sprintf("instantiate of unknown template %q", m.Name))
		return false
	}
	a := t.Active
	if a == nil {
		// Instantiations queue behind an in-flight build, so only a
		// worker-set change that could not build the template leaves it
		// without an assignment (adoptSet).
		c.rejectOp(j, fmt.Sprintf("instantiate of template %q, which has no assignment for the current workers", m.Name))
		return false
	}
	start := time.Now()

	// Validation. A template instantiated immediately after itself
	// auto-validates because its construction guarantees its postcondition
	// covers its precondition (paper §4.2).
	if j.lastBlock == a.ID && j.autoValid {
		c.Stats.AutoValidations.Add(1)
	} else {
		c.Stats.Validations.Add(1)
		vstart := time.Now()
		viols := a.Validate(j.dir)
		c.Stats.ValidateNanos.Add(uint64(time.Since(vstart)))
		if len(viols) > 0 {
			if !c.applyPatch(j, a, viols) {
				// applyPatch already surfaced the driver error; only the
				// journal accounting remains.
				c.logRejected(j)
				return false
			}
		}
	}

	// Stage any pending edits for this assignment.
	edits := j.pendingEdits[a.ID]
	delete(j.pendingEdits, a.ID)

	c.installAssignment(j, t, a)
	// The watermark must be computed before reserving the instance's ID
	// block: it promises that every ID below it is fully accounted for,
	// which must not cover the IDs about to be issued.
	watermark := j.doneWatermark()
	base := j.cmdIDs.Block(a.MaxIndex())
	j.nextInstance++
	inst := &instState{assignment: a, base: base, pending: make(map[ids.WorkerID]bool)}
	paramArray := m.ParamArray
	for _, w := range a.Workers() {
		inst.pending[w] = true
		msg := &proto.InstantiateTemplate{
			Job:           j.id,
			Template:      a.ID,
			Instance:      j.nextInstance,
			Base:          base,
			ParamArray:    paramArray,
			DoneWatermark: watermark,
		}
		if es := edits[w]; len(es) > 0 {
			msg.Edits = es
			for _, e := range es {
				c.Stats.EditsSent.Add(uint64(len(e.Remove) + len(e.Add)))
			}
		}
		c.sendWorker(c.workers[w], msg)
	}
	if len(inst.pending) > 0 {
		j.instances[j.nextInstance] = inst
		j.wm.add(base)
	}
	a.ApplyEffects(base, j.dir, j.ledgers)
	j.lastBlock = a.ID
	j.autoValid = true
	c.Stats.Instantiations.Add(1)
	c.Stats.InstantiateNanos.Add(uint64(time.Since(start)))
	c.logOp(j, m)
	return true
}

// applyPatch fixes precondition violations, preferring a cached patch for
// this control-flow transition (paper §4.2). It reports success.
func (c *Controller) applyPatch(j *jobState, a *core.Assignment, viols []core.Violation) bool {
	tr := core.Transition{Prev: j.lastBlock, Next: a.ID}
	p := j.patchCache.Lookup(tr, j.dir, viols)
	if p == nil {
		pstart := time.Now()
		var err error
		p, err = core.BuildPatch(ids.PatchID(j.patchIDs.Next()), j.dir, viols)
		if err != nil {
			c.driverError(j, err.Error())
			return false
		}
		c.Stats.PatchBuildNanos.Add(uint64(time.Since(pstart)))
		j.patchCache.Store(tr, p)
		c.Stats.PatchesBuilt.Add(1)
	} else {
		c.Stats.PatchCacheHits.Add(1)
	}
	base := j.cmdIDs.Block(len(p.Entries))
	for w, idxs := range p.PerWorker {
		ws := c.workers[w]
		if !p.Installed[w] {
			// First use on this worker: install the patch alongside the
			// instantiation so later transitions cost a single message.
			entries := make([]command.TemplateEntry, 0, len(idxs))
			for _, i := range idxs {
				entries = append(entries, p.Entries[i])
			}
			c.sendWorker(ws, &proto.InstallPatch{Job: j.id, Patch: p.ID, Entries: entries})
			p.Installed[w] = true
		}
		c.sendWorker(ws, &proto.InstantiatePatch{Job: j.id, Patch: p.ID, Base: base})
		for _, i := range idxs {
			c.trackOutstanding(j, base+ids.CommandID(i), w)
		}
	}
	p.ApplyEffects(base, j.dir, j.ledgers)
	return true
}

// doneWatermark returns a command ID below which every one of the job's
// commands is known complete, letting workers prune the job's completion
// records. Per-job command IDs make the per-job watermark sound: another
// job's older outstanding IDs live in a different namespace entirely. The
// minimum over outstanding commands and live instance bases is maintained
// incrementally by the job's wm tracker — this used to be an
// O(outstanding) scan on every block instantiation.
func (j *jobState) doneWatermark() ids.CommandID {
	return j.wm.min(ids.CommandID(j.cmdIDs.Peek()) + 1)
}

// Templates returns the installed template names across all jobs (call
// via Do).
func (c *Controller) Templates() []string {
	var names []string
	for _, j := range c.jobList() {
		for n := range j.templates {
			names = append(names, n)
		}
	}
	return names
}

// TemplateByName returns an installed template by name, searching jobs in
// admission order (call via Do; nil if absent). Exposed for the adaptation
// APIs and tests.
func (c *Controller) TemplateByName(name string) *core.Template {
	for _, j := range c.jobList() {
		if t := j.templates[name]; t != nil {
			return t
		}
	}
	return nil
}

// logOp appends a driver operation to the job's recovery log (paper §4.4:
// the controller replays a job's execution since its last checkpoint after
// reverting to it), bumps the job's applied-op counter and streams the op
// to an attached standby (repl.go). Replayed operations are not re-logged,
// not re-counted and not re-replicated: the standby already holds them.
func (c *Controller) logOp(j *jobState, m proto.Msg) {
	if j.replaying {
		return
	}
	j.oplog = append(j.oplog, m)
	if !j.loopStepping {
		// Controller-originated ops (loop iterations) replay after a
		// failure but are not driver journal entries; counting them would
		// desynchronize reattach reconciliation.
		j.applied++
	}
	c.replOp(j, m)
}
