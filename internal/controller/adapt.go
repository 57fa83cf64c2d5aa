package controller

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/flow"
	"nimbus/internal/ids"
)

// This file implements dynamic scheduling: changing the worker set a job
// runs on (new worker-template sets, paper Figure 9) and migrating
// partitions between workers (template edits, paper Figure 10). Both are
// invoked by the cluster harness through Controller.Do, playing the role
// of the cluster resource manager in Figure 2.
//
// Every change of a job's worker set — SetActive, a drain, a join, a
// recovery — goes through two functions: planSet picks the job's placement
// on the new set and each template's assignment for it without touching
// live state, and adoptSet saves what the job leaves on the outgoing set
// and installs the plan. A set the job returns to comes back with the
// placement it left with and the assignments edited for exactly that
// placement (Figure 9's restore revalidates them instead of reinstalling);
// round-robin is only for a set the job has never run on.

// setRecord is what a job left on one worker set: its placement and each
// template's assignment as they stood when it last ran there. The saved
// assignments were built or edited for exactly the saved placement.
type setRecord struct {
	set    []ids.WorkerID
	assign map[ids.VariableID][]ids.WorkerID
	tmpls  map[string]*core.Assignment
}

// liveRecord captures the job's current placement and assignments. The
// placement slices are shared with the live tables; adoptSet replaces
// those, handing the old ones to the record.
func (j *jobState) liveRecord() *setRecord {
	rec := &setRecord{
		set:    j.set,
		assign: make(map[ids.VariableID][]ids.WorkerID, len(j.vars)),
		tmpls:  make(map[string]*core.Assignment, len(j.templates)),
	}
	for id, vm := range j.vars {
		rec.assign[id] = vm.assign
	}
	for name, t := range j.templates {
		if t.Active != nil {
			rec.tmpls[name] = t.Active
		}
	}
	return rec
}

// setPlan is one job's planned move onto a worker set. view holds the
// builds' instance allocations (nil when every assignment was restored).
type setPlan struct {
	j     *jobState
	set   []ids.WorkerID
	place *placeSnap
	tmpls []tmplPlan
	view  *flow.BuildView
}

// tmplPlan is one template's assignment on the planned set: restored from
// the set's record, or built (a is nil when the build failed).
type tmplPlan struct {
	name  string
	t     *core.Template
	a     *core.Assignment
	built bool
	err   error
}

// err returns the plan's first template error.
func (p *setPlan) err() error {
	for i := range p.tmpls {
		if tp := &p.tmpls[i]; tp.err != nil {
			return fmt.Errorf("%s %q: %w", p.j.id, tp.name, tp.err)
		}
	}
	return nil
}

// roundRobin places n partitions over a worker set: partition p on
// set[p mod len(set)].
func roundRobin(set []ids.WorkerID, n int) []ids.WorkerID {
	assign := make([]ids.WorkerID, n)
	for p := range assign {
		assign[p] = set[p%len(set)]
	}
	return assign
}

// planSet plans one job's move onto a sorted worker set without changing
// controller state. The placement is the job's own on that set — live if
// it runs there, saved if it ran there before — or round-robin. Each
// template keeps its assignment for that placement or is built against it,
// in one parallel group over one snapshot view. Templates whose first
// build is in flight are skipped: their commit sees the epoch move.
func (c *Controller) planSet(j *jobState, set []ids.WorkerID) *setPlan {
	rec := j.sets[workerSigOf(set)]
	if slices.Equal(set, j.set) {
		rec = j.liveRecord()
	}
	p := &setPlan{j: j, set: set, place: &placeSnap{vars: make(map[ids.VariableID]placeVar, len(j.vars))}}
	for id, vm := range j.vars {
		var assign []ids.WorkerID
		if rec != nil && len(rec.assign[id]) == vm.partitions {
			assign = slices.Clone(rec.assign[id])
		} else {
			assign = roundRobin(set, vm.partitions)
		}
		p.place.vars[id] = placeVar{partitions: vm.partitions, logicals: vm.logicals, assign: assign}
	}
	for name, t := range j.templates {
		if j.building[name] == nil {
			p.tmpls = append(p.tmpls, tmplPlan{name: name, t: t})
		}
	}
	sort.Slice(p.tmpls, func(a, b int) bool { return p.tmpls[a].name < p.tmpls[b].name })
	var toBuild []int
	for i := range p.tmpls {
		if tp := &p.tmpls[i]; rec == nil || rec.tmpls[tp.name] == nil {
			tp.built = true
			toBuild = append(toBuild, i)
		} else {
			tp.a = rec.tmpls[tp.name]
		}
	}
	if len(toBuild) == 0 {
		return p
	}
	p.view = j.dir.Snapshot().View()
	tids := make([]ids.TemplateID, len(toBuild))
	for i := range tids {
		tids[i] = ids.TemplateID(j.tmplIDs.Next())
	}
	c.groupBuild(len(toBuild), func(i, inner int) {
		tp := &p.tmpls[toBuild[i]]
		if tp.err = c.retargetFault(tp.name); tp.err == nil {
			tp.a, tp.err = tp.t.RebuildPar(tids[i], p.view, p.place, nil, inner)
		}
	})
	return p
}

// planAll plans every job's move onto a sorted worker set. The first
// template that cannot be planned aborts it, with nothing changed.
func (c *Controller) planAll(set []ids.WorkerID) ([]*setPlan, error) {
	jobs := c.jobList()
	plans := make([]*setPlan, len(jobs))
	for i, j := range jobs {
		plans[i] = c.planSet(j, set)
		if err := plans[i].err(); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// adoptSet moves a job onto the worker set its plan was made for: the
// outgoing set's record is saved, the planned placement and assignments
// are installed, and the placement epoch moves, staling any in-flight
// build snapshot. A template whose plan failed is left without an
// assignment rather than with one for another placement; the next move
// plans it again.
func (c *Controller) adoptSet(p *setPlan) {
	j := p.j
	if p.view != nil {
		if err := p.view.Commit(j.dir); err != nil {
			// Unreachable: a plan is adopted in the loop turn that made
			// it, or after the warm round's own commit of its view.
			c.cfg.Logf("controller: %s worker-set commit conflict: %v", j.id, err)
			return
		}
	}
	if len(j.set) > 0 {
		j.sets[workerSigOf(j.set)] = j.liveRecord()
	}
	j.set = slices.Clone(p.set)
	delete(j.sets, workerSigOf(j.set))
	for id, vm := range j.vars {
		if pv, ok := p.place.vars[id]; ok {
			vm.assign = pv.assign
		} else {
			vm.assign = roundRobin(p.set, vm.partitions) // defined after the plan
		}
	}
	j.placeEpoch++
	for i := range p.tmpls {
		tp := &p.tmpls[i]
		tp.t.Active = tp.a
		if tp.built && tp.err == nil {
			c.Stats.TemplatesBuilt.Add(1)
		}
	}
	j.autoValid = false
}

// SetActive changes the set of workers the cluster runs on (call via Do).
// Every named worker must be alive and active: warming, draining and
// decommissioned workers are refused. Every job moves onto the set through
// planSet/adoptSet — round-robin only onto a set it has never run on — and
// every plan is made before any is adopted: on error no placement or
// template state changes anywhere. Data moves lazily via patches.
func (c *Controller) SetActive(workersWanted []ids.WorkerID) error {
	if len(workersWanted) == 0 {
		return fmt.Errorf("controller: cannot run with zero workers")
	}
	set := slices.Clone(workersWanted)
	slices.Sort(set)
	for _, id := range set {
		if ws := c.workers[id]; ws == nil || !ws.alive || ws.phase != phaseActive {
			return fmt.Errorf("controller: worker %s not available", id)
		}
	}
	plans, err := c.planAll(set)
	if err != nil {
		return fmt.Errorf("controller: retargeting %w", err)
	}
	c.active = set
	for _, p := range plans {
		c.adoptSet(p)
	}
	return nil
}

// workerSigOf canonically names a sorted worker set.
func workerSigOf(set []ids.WorkerID) string {
	var b strings.Builder
	for _, w := range set {
		fmt.Fprintf(&b, "%d,", uint32(w))
	}
	return b.String()
}

// Migrate moves the given partitions of the given variables to worker dst
// within the sole admitted job (call via Do). Variable IDs are per-job;
// with several jobs admitted, use MigrateJob. Installed templates are
// updated in place through edits: core's Template.Migrate edits each
// template's assignment for the moved tasks only (in parallel, over one
// live view of the directory), and the per-worker deltas are staged to ride the
// next instantiation message (paper §4.3, Figure 6). Partition data moves
// lazily via the next validation's patch.
func (c *Controller) Migrate(vars []ids.VariableID, parts []int, dst ids.WorkerID) error {
	j := c.soleJob()
	if j == nil {
		return fmt.Errorf("controller: Migrate needs exactly one admitted job (have %d); use MigrateJob", len(c.jobs))
	}
	return c.MigrateJob(j.id, vars, parts, dst)
}

// MigrateJob moves the given partitions of one job's variables to worker
// dst (call via Do). dst must be active: a warming, draining or
// deactivated worker takes no commands.
func (c *Controller) MigrateJob(job ids.JobID, vars []ids.VariableID, parts []int, dst ids.WorkerID) error {
	j := c.jobs[job]
	if j == nil {
		return fmt.Errorf("controller: migrate for unknown %s", job)
	}
	if ws := c.workers[dst]; ws == nil || !ws.alive || !slices.Contains(c.active, dst) {
		return fmt.Errorf("controller: migration target %s not available", dst)
	}
	moves := make([]core.Move, 0, len(vars)*len(parts))
	for _, v := range vars {
		vm := j.vars[v]
		if vm == nil {
			return fmt.Errorf("controller: migrate of unknown variable %s", v)
		}
		for _, p := range parts {
			if p < 0 || p >= vm.partitions {
				return fmt.Errorf("controller: migrate of %s partition %d out of %d",
					v, p, vm.partitions)
			}
			moves = append(moves, core.Move{Var: v, Partition: p})
		}
	}
	start := time.Now()
	// Edit every installed template's assignment for the *prospective*
	// placement (a copy with the moves applied) before mutating anything:
	// an error in any template leaves the controller fully unchanged, like
	// SetActive. The loop waits for the group, so the edits resolve
	// instances through a live view of the directory instead of a snapshot
	// (a snapshot copies the whole instance table after every change).
	type editPlan struct {
		name string
		t    *core.Template
		old  *core.Assignment
		next *core.Assignment
		diff *core.DiffResult
		err  error
	}
	var plans []editPlan
	for name, t := range j.templates {
		if t.Active == nil {
			continue // build in flight (its commit rebuilds under the new placement) or failed
		}
		plans = append(plans, editPlan{name: name, t: t, old: t.Active})
	}
	sort.Slice(plans, func(i, k int) bool { return plans[i].name < plans[k].name })
	var view *flow.BuildView
	if len(plans) > 0 {
		view = j.dir.LiveView()
		place := j.placementSnapshot()
		for _, v := range vars {
			for _, p := range parts {
				place.vars[v].assign[p] = dst
			}
		}
		c.groupBuild(len(plans), func(i, inner int) {
			p := &plans[i]
			if err := c.retargetFault(p.name); err != nil {
				p.err = err
				return
			}
			p.next, p.diff, p.err = p.t.Migrate(p.old.ID, view, place, p.old, moves, inner)
		})
		for i := range plans {
			if plans[i].err != nil {
				return fmt.Errorf("controller: migrating %q: %w", plans[i].name, plans[i].err)
			}
		}
		if err := view.Commit(j.dir); err != nil {
			// Unreachable: view, edits and commit happen within one
			// event-loop call.
			return err
		}
	}
	// Commit: apply the placement change, then stage the diffs.
	for _, v := range vars {
		vm := j.vars[v]
		for _, p := range parts {
			vm.assign[p] = dst
		}
	}
	j.placeEpoch++
	for i := range plans {
		p := &plans[i]
		if p.diff.Rebuilt {
			c.Stats.MigrateRebuilds.Add(1)
		}
		c.stageEdits(j, p.t, p.old, p.next, p.diff)
	}
	c.Stats.MigrateNanos.Add(uint64(time.Since(start)))
	j.autoValid = false
	return nil
}

// stageEdits swaps an edited assignment in for its predecessor and stages
// the per-worker deltas as edits riding the job's next instantiation.
func (c *Controller) stageEdits(j *jobState, t *core.Template, old, next *core.Assignment, diff *core.DiffResult) {
	next.Installed = make(map[ids.WorkerID]bool, len(old.Installed))
	for w, in := range old.Installed {
		next.Installed[w] = in
	}
	for _, w := range diff.NewWorkers {
		next.Installed[w] = false
	}
	// Workers that lost every entry keep a stale cached template; force a
	// reinstall if they ever rejoin this assignment.
	for _, w := range diff.EmptiedWorkers {
		next.Installed[w] = false
		delete(diff.Edits, w)
	}
	// Swap the assignment in place (same ID — workers keep their cache and
	// receive only edits).
	t.Active = next
	staged := j.pendingEdits[next.ID]
	if staged == nil {
		staged = make(map[ids.WorkerID][]editStaged)
		j.pendingEdits[next.ID] = staged
	}
	// A worker that rejoins gets a full install of the assignment as it is
	// then. Edits staged before it was emptied describe a template it no
	// longer has (the emptying edit itself was dropped above) and would add
	// stale entries on top of the install.
	for _, w := range diff.NewWorkers {
		delete(staged, w)
	}
	for w, e := range diff.Edits {
		if len(e.Remove) == 0 && len(e.Add) == 0 {
			continue
		}
		staged[w] = append(staged[w], *e)
	}
}
