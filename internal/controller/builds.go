package controller

import (
	"fmt"
	"slices"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/flow"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// This file implements the off-loop template build pipeline
// (snapshot -> build -> commit). Template assignment construction is
// O(tasks) and used to run inside the event loop, freezing heartbeats,
// completion processing and every other template's dispatch while it ran.
// Now:
//
//   - TemplateEnd snapshots the job's directory and placement, enqueues a
//     build on a bounded background executor (shared by all jobs), and
//     returns to the loop. The finished assignment comes back as a commit
//     event; if placement or the directory moved underneath the build, it
//     is discarded and retried from a fresh snapshot
//     (revalidate-and-retry). A build whose job was torn down while it ran
//     is simply dropped at commit.
//   - While a job's build is in flight, that job's driver operations that
//     mutate execution state (defines, puts, stage submissions, template
//     ops, instantiations) queue in arrival order behind it, preserving
//     the driver's program order; heartbeats, completions, gets, barriers
//     — and every other job's traffic — keep flowing through the loop.
//   - A worker-set change (planSet, adapt.go) and a migration rebuild or
//     edit every installed template of the affected job(s) in one parallel
//     group over a shared view, then commit atomically on the loop.

// maxBuildRetries bounds revalidate-and-retry; after it the build runs
// synchronously on the loop, which cannot be invalidated.
const maxBuildRetries = 4

// Hooks are optional instrumentation points for tests and fault
// injection. They are called from build goroutines, off the event loop.
type Hooks struct {
	// OnBuildStart runs in the build goroutine before an off-loop
	// template build begins (tests stall here to hold a build in flight).
	OnBuildStart func(template string)
	// RetargetError, when non-nil, can veto one template's rebuild during
	// a group retarget (SetActive/Migrate/recovery), exercising the
	// atomic-commit failure path.
	RetargetError func(template string) error
}

// buildJob is one in-flight off-loop template build, pinned to the job
// that recorded the template.
type buildJob struct {
	j          *jobState
	name       string
	tmpl       *core.Template
	id         ids.TemplateID
	view       *flow.BuildView
	place      *placeSnap
	placeEpoch uint64
	retries    int
}

// placeSnap is an immutable copy of one job's placement, readable by build
// goroutines while the loop keeps mutating the live tables.
type placeSnap struct {
	vars map[ids.VariableID]placeVar
}

type placeVar struct {
	partitions int
	logicals   []ids.LogicalID // shared: immutable after DefineVariable
	assign     []ids.WorkerID  // copied
}

func (p *placeSnap) WorkerOf(v ids.VariableID, partition int) ids.WorkerID {
	pv, ok := p.vars[v]
	if !ok || partition < 0 || partition >= len(pv.assign) {
		return ids.NoWorker
	}
	return pv.assign[partition]
}

func (p *placeSnap) Logical(v ids.VariableID, partition int) ids.LogicalID {
	pv, ok := p.vars[v]
	if !ok || partition < 0 || partition >= len(pv.logicals) {
		return ids.NoLogical
	}
	return pv.logicals[partition]
}

func (p *placeSnap) Partitions(v ids.VariableID) int {
	if pv, ok := p.vars[v]; ok {
		return pv.partitions
	}
	return 0
}

// placementSnapshot copies one job's placement.
func (j *jobState) placementSnapshot() *placeSnap {
	vars := make(map[ids.VariableID]placeVar, len(j.vars))
	for id, vm := range j.vars {
		vars[id] = placeVar{partitions: vm.partitions, logicals: vm.logicals, assign: slices.Clone(vm.assign)}
	}
	return &placeSnap{vars: vars}
}

// driverOp routes one driver operation through its job's op fence: while
// any of the job's off-loop builds or controller-evaluated loops is in
// flight (or earlier operations are still queued behind one), operations
// that mutate execution state queue in arrival order so the driver's
// program order is preserved — an async driver may pipeline operations
// behind an InstantiateWhile, and they must not interleave with its
// iterations. The fence is per-job: one job's build or loop never delays
// another job's operations.
//
// The fence also holds while the job is recovering or parked for takeover
// (ops re-sent by a reattaching driver must not execute against
// pre-revert state) and while the replication window is full (keeping an
// attached standby within one applied-op of the primary).
func (c *Controller) driverOp(j *jobState, m proto.Msg) {
	if j.pendingTakeover || j.recovering ||
		len(j.building) > 0 || len(j.opq) > 0 || len(j.loops) > 0 ||
		c.replStalled() {
		j.opq = append(j.opq, m)
		return
	}
	c.dispatchDriverOp(j, m)
}

// dispatchDriverOp executes one fenced driver operation.
func (c *Controller) dispatchDriverOp(j *jobState, m proto.Msg) {
	switch op := m.(type) {
	case *proto.DefineVariable:
		c.handleDefineVariable(j, op)
	case *proto.Put:
		c.handlePut(j, op)
	case *proto.SubmitStage:
		c.handleSubmitStage(j, op)
	case *proto.TemplateStart:
		c.handleTemplateStart(j, op)
	case *proto.TemplateEnd:
		c.handleTemplateEnd(j, op)
	case *proto.InstantiateBlock:
		c.handleInstantiateBlock(j, op)
	case *proto.InstantiateWhile:
		c.handleInstantiateWhile(j, op)
	default:
		c.cfg.Logf("controller: unexpected fenced operation %s", m.Kind())
	}
}

// drainOps runs a job's queued driver operations until the queue empties
// or one of them re-raises the fence (another build or loop, a full
// replication window, or recovery).
func (c *Controller) drainOps(j *jobState) {
	for len(j.opq) > 0 && len(j.building) == 0 && len(j.loops) == 0 &&
		!j.recovering && !j.pendingTakeover && !c.replStalled() {
		m := j.opq[0]
		j.opq[0] = nil
		j.opq = j.opq[1:]
		if len(j.opq) == 0 {
			j.opq = nil
		}
		c.dispatchDriverOp(j, m)
	}
}

// startTemplateBuild begins the off-loop build of a just-recorded
// template: snapshot the job's directory + placement on the loop, build in
// the background, commit via a posted event.
func (c *Controller) startTemplateBuild(j *jobState, name string, t *core.Template) {
	job := &buildJob{
		j:    j,
		name: name,
		tmpl: t,
		id:   ids.TemplateID(j.tmplIDs.Next()),
	}
	c.snapshotFor(job)
	j.building[name] = job
	c.Stats.BuildsInFlight.Add(1)
	c.wg.Add(1)
	go c.runBuild(job)
}

// snapshotFor (re)stamps the job with the loop's current snapshot state.
func (c *Controller) snapshotFor(job *buildJob) {
	job.view = job.j.dir.Snapshot().View()
	job.place = job.j.placementSnapshot()
	job.placeEpoch = job.j.placeEpoch
}

// runBuild executes one build job off the loop and posts its result back.
func (c *Controller) runBuild(job *buildJob) {
	defer c.wg.Done()
	c.buildSem <- struct{}{}
	defer func() { <-c.buildSem }()
	if h := c.cfg.Hooks.OnBuildStart; h != nil {
		h(job.name)
	}
	start := time.Now()
	a, err := core.BuildAssignment(job.id, job.view, job.place, job.tmpl.Stages, c.buildPar)
	nanos := uint64(time.Since(start))
	c.mbox.Put(cevent{kind: cevDo, fn: func() { c.commitBuild(job, a, err, nanos) }})
}

// commitBuild runs on the event loop when a background build finishes:
// revalidate the snapshot, then either install the assignment, retry from
// a fresh snapshot, or surface the failure. A torn-down job's build is
// dropped outright.
func (c *Controller) commitBuild(job *buildJob, a *core.Assignment, err error, nanos uint64) {
	c.Stats.BuildNanos.Add(nanos)
	j := job.j
	if j.dead {
		c.Stats.BuildsInFlight.Add(-1)
		return
	}
	if j.building[job.name] != job {
		// Superseded (e.g. the template was rebuilt by recovery while this
		// build was in flight and the job already resolved another way).
		return
	}
	if err != nil {
		delete(j.templates, job.name)
		c.finishBuild(j, job.name)
		c.driverError(j, fmt.Sprintf("building template %q: %v", job.name, err))
		return
	}
	// Revalidate: if placement changed (any worker-set change, recovery
	// included, or a migration) or the directory allocated conflicting
	// instances while we built, the result describes a world that no
	// longer exists — discard and retry against fresh state.
	if job.placeEpoch != j.placeEpoch || job.view.Commit(j.dir) != nil {
		c.Stats.BuildRetries.Add(1)
		c.retryBuild(job)
		return
	}
	c.adoptAssignment(j, job.tmpl, a)
	c.finishBuild(j, job.name)
}

// adoptAssignment commits a freshly built assignment as the template's
// active one and installs it.
func (c *Controller) adoptAssignment(j *jobState, t *core.Template, a *core.Assignment) {
	start := time.Now()
	t.Active = a
	c.Stats.TemplatesBuilt.Add(1)
	c.installAssignment(j, t, a)
	c.Stats.FinalizeNanos.Add(uint64(time.Since(start)))
}

// retryBuild re-snapshots and requeues a discarded build; past the retry
// budget the build runs synchronously on the loop, which cannot be
// invalidated.
func (c *Controller) retryBuild(job *buildJob) {
	j := job.j
	job.retries++
	if job.retries >= maxBuildRetries {
		a, err := core.BuildAssignment(job.id, j.dir, j.placement(), job.tmpl.Stages, c.buildPar)
		if err != nil {
			delete(j.templates, job.name)
			c.finishBuild(j, job.name)
			c.driverError(j, fmt.Sprintf("building template %q: %v", job.name, err))
			return
		}
		c.adoptAssignment(j, job.tmpl, a)
		c.finishBuild(j, job.name)
		return
	}
	c.snapshotFor(job)
	c.wg.Add(1)
	go c.runBuild(job)
}

// finishBuild retires a job's build and lowers its fence: queued driver
// operations drain in order, and quiescence (barriers, gets, checkpoints)
// is re-evaluated.
func (c *Controller) finishBuild(j *jobState, name string) {
	delete(j.building, name)
	c.Stats.BuildsInFlight.Add(-1)
	c.drainOps(j)
	c.resolveIfQuiet(j)
}

// groupBuild runs n independent build closures, splitting the build pool
// between group concurrency and intra-build sharding so the group uses
// ~buildPar goroutines total. fn receives the item index and its
// per-build parallelism bound.
func (c *Controller) groupBuild(n int, fn func(i, inner int)) {
	if n == 0 {
		return
	}
	conc := c.buildPar
	if conc > n {
		conc = n
	}
	inner := c.buildPar / conc
	if inner < 1 {
		inner = 1
	}
	sem := make(chan struct{}, conc)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem; done <- struct{}{} }()
			fn(i, inner)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// retargetFault consults the fault-injection hook for one template's
// rebuild within a group retarget.
func (c *Controller) retargetFault(name string) error {
	if h := c.cfg.Hooks.RetargetError; h != nil {
		return h(name)
	}
	return nil
}

// OutstandingCommands returns the number of dispatched-but-unfinished
// data-plane commands and template instances across all jobs (call via
// Do). Unlike barriers it does not count in-flight template builds, so
// tests can observe completion processing while a build is stalled.
func (c *Controller) OutstandingCommands() int {
	n := 0
	for _, j := range c.jobs {
		n += len(j.outstanding) + len(j.instances) + j.central.pendingCount()
	}
	return n
}

// BuildQueueDepth returns the number of driver operations fenced behind
// in-flight template builds, summed across jobs (call via Do).
func (c *Controller) BuildQueueDepth() int {
	n := 0
	for _, j := range c.jobs {
		n += len(j.opq)
	}
	return n
}

// InvalidateAssignmentCache drops every job's saved worker-set records, so
// the next move onto another set rebuilds every template (benchmarks and
// operational tooling use it to force the rebuild path; call via Do).
func (c *Controller) InvalidateAssignmentCache() {
	for _, j := range c.jobs {
		clear(j.sets)
	}
}
