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

// This file implements dynamic scheduling: growing/shrinking the active
// worker set (new worker-template sets, paper Figure 9) and migrating
// partitions between workers (template edits, paper Figure 10). Both are
// invoked by the cluster harness through Controller.Do, playing the role
// of the cluster resource manager in Figure 2.
//
// The worker set is shared by every admitted job, so SetActive retargets
// every job's installed templates; Migrate moves partitions within one
// job (variable IDs are per-job). Rebuilds run as parallel groups over a
// shared directory-snapshot view per job (builds.go): validate and build
// everything first, then commit atomically — an error in any template's
// rebuild leaves the controller fully unchanged.

// SetActive changes the set of workers the cluster runs on (call via Do).
// All named workers must be registered and alive. Every job's variables
// are repartitioned round-robin over the new set; every installed template
// of every job switches to an assignment for the new placement — reusing a
// cached one when this worker set has been active before (Figure 9's
// restore path revalidates cached templates instead of reinstalling).
// Templates are rebuilt in parallel and committed atomically across all
// jobs: on error no placement or template state changes anywhere. Data
// moves lazily via patches at the next instantiation.
func (c *Controller) SetActive(workersWanted []ids.WorkerID) error {
	if len(workersWanted) == 0 {
		return fmt.Errorf("controller: cannot run with zero workers")
	}
	set := append([]ids.WorkerID(nil), workersWanted...)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	for _, id := range set {
		ws := c.workers[id]
		if ws == nil || !ws.alive {
			return fmt.Errorf("controller: worker %s not available", id)
		}
	}
	// Plan every job's retargets against the prospective placement before
	// touching live state.
	sig := workerSigOf(set)
	jobs := c.jobList()
	plansByJob := make([][]retargetPlan, len(jobs))
	viewsByJob := make([]*flow.BuildView, len(jobs))
	for i, j := range jobs {
		plans, view := c.planRetargets(j, set, sig)
		for k := range plans {
			if plans[k].err != nil {
				return fmt.Errorf("controller: retargeting %s %q: %w", j.id, plans[k].name, plans[k].err)
			}
		}
		plansByJob[i], viewsByJob[i] = plans, view
	}
	// Commit.
	c.active = set
	for i, j := range jobs {
		c.reassignAll(j)
		c.commitRetargets(j, plansByJob[i], viewsByJob[i], sig)
		j.autoValid = false
	}
	return nil
}

// reassignAll recomputes one job's partition placement over the active
// workers and bumps the job's placement epoch, staling any in-flight
// build snapshot.
func (c *Controller) reassignAll(j *jobState) {
	for _, vm := range j.vars {
		for p := range vm.assign {
			vm.assign[p] = c.active[p%len(c.active)]
		}
	}
	j.placeEpoch++
	clear(j.synced)
}

// workerSig canonically names the active worker set for the assignment
// caches.
func (c *Controller) workerSig() string { return workerSigOf(c.active) }

// workerSigOf canonically names a sorted worker set.
func workerSigOf(set []ids.WorkerID) string {
	var b strings.Builder
	for _, w := range set {
		fmt.Fprintf(&b, "%d,", uint32(w))
	}
	return b.String()
}

// retargetAll points every installed template of one job at an assignment
// matching the current placement (recovery's rebuild step): cached
// assignments when available, parallel fresh builds otherwise. Failures
// are logged per template and do not block the others.
func (c *Controller) retargetAll(j *jobState) {
	sig := c.workerSig()
	plans, view := c.planRetargets(j, c.active, sig)
	for i := range plans {
		if plans[i].err != nil {
			c.cfg.Logf("controller: recovery rebuild of %s %q: %v", j.id, plans[i].name, plans[i].err)
		}
	}
	c.commitRetargets(j, plans, view, sig)
}

// cacheActiveAssignments snapshots each of one job's templates' current
// assignment under the current worker signature so SetActive can restore
// it later. Called after template installation.
func (c *Controller) cacheActiveAssignments(j *jobState) {
	if j.assignCache == nil {
		j.assignCache = make(map[string]map[string]*core.Assignment)
	}
	sig := c.workerSig()
	for name, t := range j.templates {
		bySig := j.assignCache[name]
		if bySig == nil {
			bySig = make(map[string]*core.Assignment)
			j.assignCache[name] = bySig
		}
		if _, ok := bySig[sig]; !ok && t.Active != nil {
			bySig[sig] = t.Active
		}
	}
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
		name  string
		t     *core.Template
		old   *core.Assignment
		moves []core.Move
		next  *core.Assignment
		diff  *core.DiffResult
		err   error
	}
	var plans []editPlan
	for name, t := range j.templates {
		if t.Active == nil {
			continue // build in flight; its commit rebuilds under the new placement
		}
		p := editPlan{name: name, t: t, old: t.Active}
		if j.synced[name] == t.Active {
			p.moves = moves
		}
		plans = append(plans, p)
	}
	sort.Slice(plans, func(i, k int) bool { return plans[i].name < plans[k].name })
	var view *flow.BuildView
	if len(plans) > 0 {
		view = j.dir.LiveView()
		place := j.placementSnapshot(nil)
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
			p.next, p.diff, p.err = p.t.Migrate(p.old.ID, view, place, p.old, p.moves, inner)
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
		c.stageEdits(j, p.name, p.t, p.old, p.next, p.diff)
		j.synced[p.name] = p.next
	}
	c.Stats.MigrateNanos.Add(uint64(time.Since(start)))
	j.autoValid = false
	return nil
}

// stageEdits swaps an edited assignment in for its predecessor and stages
// the per-worker deltas as edits riding the job's next instantiation.
func (c *Controller) stageEdits(j *jobState, name string, t *core.Template, old, next *core.Assignment, diff *core.DiffResult) {
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
	for i, a := range t.Assignments {
		if a == old {
			t.Assignments[i] = next
		}
	}
	if j.assignCache != nil {
		for sig, a := range j.assignCache[name] {
			if a == old {
				j.assignCache[name][sig] = next
			}
		}
	}
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
