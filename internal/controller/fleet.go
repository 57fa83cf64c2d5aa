package controller

import (
	"fmt"
	"slices"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// This file implements the elastic worker fleet lifecycle (DESIGN.md
// "Elastic fleet"):
//
//	hello → ack → warm → ready               (join while a job is live)
//	drain → (retarget + eager flush) → decommission
//
// A worker that registers while a job is live — fresh, or back under its
// prior ID after every job recovered without it — is admitted outside the
// active set, warmed — every live job's retargeted templates are
// installed and compiled on it before it takes any traffic — and only then
// entered into placement and the fair-share allocator. With nothing to warm
// (no live job, or jobs parked behind a takeover) registerWorker activates
// it in the same turn. Drain is the reverse: the departing worker's
// partitions move onto the survivors atomically (the planSet/adoptSet path
// every worker-set change takes, adapt.go), its latest data is eagerly flushed,
// and it is decommissioned only once its outstanding work reaches zero, so
// a drain never fails a command.
//
// None of the lifecycle state is replicated to a standby: a promoted
// controller's snapshot carries only the active roster. A worker caught
// mid-drain registers again under its prior ID and rejoins as a plain
// active worker (drain-abort); a worker caught mid-warm rejoins cold. Both
// are safe because warm is a latency optimization and drain is
// re-issuable.

// workerPhase is a worker's fleet lifecycle state. A worker with nothing
// to warm is active from the turn that admits it.
type workerPhase uint8

const (
	// phaseActive: in c.active, eligible for placement.
	phaseActive workerPhase = iota
	// phaseWarming: admitted while a job is live, receiving template
	// installs; not in c.active, owns no ledgers, takes no traffic.
	phaseWarming
	// phaseDraining: removed from c.active, still serving its in-flight
	// commands and eager data flush; decommission follows quiescence.
	phaseDraining
	// phaseDecommissioned: released; the worker state lingers only until
	// its connection closes.
	phaseDecommissioned
)

// maxWarmRetries bounds re-warm rounds when placement moves underneath a
// warm in flight; past it the join commits synchronously (installs ride
// the first instantiation instead, exactly like the SetActive grow path).
const maxWarmRetries = 3

// warmJob is one job's planned move onto the set a worker joins, with
// the job state the plan was made against.
type warmJob struct {
	plan  *setPlan
	epoch uint64
}

// warmState tracks one joining worker's warm round.
type warmState struct {
	seq     uint64
	start   time.Time
	retries int
	jobs    []warmJob
}

// FleetStats is a point-in-time snapshot of fleet lifecycle metrics
// (taken on the event loop via Do).
type FleetStats struct {
	// Workers / Warming / Draining gauge the fleet: active roster size
	// and lifecycle transitions in flight.
	Workers  int
	Warming  int
	Draining int
	// Joins / Drains count completed lifecycle transitions.
	Joins  uint64
	Drains uint64
	// WarmP50/P99 are quantiles of hello-to-ready latency of warmed joins
	// over the recent window; RebalanceP50/P99 of drain-to-decommission
	// latency.
	WarmP50      time.Duration
	WarmP99      time.Duration
	RebalanceP50 time.Duration
	RebalanceP99 time.Duration
}

// FleetStats snapshots the fleet lifecycle metrics.
func (c *Controller) FleetStats() FleetStats {
	var s FleetStats
	c.Do(func() {
		s.Workers = len(c.active)
		for _, ws := range c.workers {
			switch ws.phase {
			case phaseWarming:
				s.Warming++
			case phaseDraining:
				s.Draining++
			}
		}
		s.Joins = c.Stats.WarmJoins.Load()
		s.Drains = c.Stats.FleetDrains.Load()
		s.WarmP50 = c.warmLat.quantile(0.50)
		s.WarmP99 = c.warmLat.quantile(0.99)
		s.RebalanceP50 = c.drainLat.quantile(0.50)
		s.RebalanceP99 = c.drainLat.quantile(0.99)
	})
	return s
}

// FleetSample is one autoscaler observation of cluster load (see
// internal/fleet). Pending aggregates the per-worker queue depths the
// heartbeats already carry; Slots is the fleet's total executor capacity.
type FleetSample struct {
	Workers  int
	Warming  int
	Draining int
	Jobs     int
	Slots    int
	Pending  int
}

// FleetSample snapshots the load signal the autoscaler policy consumes.
func (c *Controller) FleetSample() FleetSample {
	var s FleetSample
	c.Do(func() {
		s.Workers = len(c.active)
		s.Jobs = len(c.jobs)
		for _, ws := range c.workers {
			switch ws.phase {
			case phaseWarming:
				s.Warming++
			case phaseDraining:
				s.Draining++
			case phaseActive:
				if ws.alive {
					s.Slots += ws.slots
					s.Pending += ws.pending
				}
			}
		}
	})
	return s
}

// planWarm plans every live job's move onto the prospective set (active +
// the warming worker), stages the joining worker's installs, and sends the
// warm marker. A planning error aborts the join: no job holds a saved
// record naming the joining ID (recovery drops those), so every template
// was built, and a build error is the same class SetActive refuses on.
func (c *Controller) planWarm(ws *workerState) {
	set := append(slices.Clone(c.active), ws.id)
	slices.Sort(set)
	plans, err := c.planAll(set)
	if err != nil {
		c.cfg.Logf("controller: warming %s: retargeting %v", ws.id, err)
		c.dropWorker(ws)
		return
	}
	warm := ws.warm
	warm.jobs = warm.jobs[:0]
	for _, p := range plans {
		warm.jobs = append(warm.jobs, warmJob{plan: p, epoch: p.j.placeEpoch})
		// Stage the newcomer's installs now, ahead of the warm marker; the
		// worker compiles each template as it lands.
		for i := range p.tmpls {
			if a := p.tmpls[i].a; len(a.PerWorker[ws.id]) > 0 {
				msg := a.InstallMessage(ws.id, p.tmpls[i].name)
				msg.Job = p.j.id
				c.sendWorker(ws, msg)
			}
		}
	}
	warm.seq++
	c.sendWorker(ws, &proto.FleetWarm{Seq: warm.seq})
}

// dropWorker discards a worker outside the active set — warming (an aborted
// join) or decommissioned. It owns no placement, ledgers or outstanding
// work, so there is nothing to recover — the state simply goes away.
func (c *Controller) dropWorker(ws *workerState) {
	ws.alive = false
	ws.warm = nil
	ws.conn.Close()
	delete(c.workers, ws.id)
}

// fleetWarmAck completes (or retries) a join. The worker has compiled
// every install up to Seq; if the jobs are as they were when planned, the
// plans commit and the worker turns active. If anything moved — a
// migration, another join, a recovery, a template build that finished (its
// assignment is for the old placement) — the round re-plans, bounded by
// maxWarmRetries, after which the join commits synchronously.
func (c *Controller) fleetWarmAck(m *proto.FleetWarmAck) {
	ws := c.workers[m.Worker]
	if ws == nil || !ws.alive || ws.phase != phaseWarming || ws.warm == nil || ws.warm.seq != m.Seq {
		return
	}
	warm := ws.warm
	fresh := true
	for _, wj := range warm.jobs {
		j := wj.plan.j
		if !j.dead && (j.placeEpoch != wj.epoch || len(j.templates)-len(j.building) != len(wj.plan.tmpls)) {
			fresh = false
			break
		}
	}
	if fresh {
		// Adopt the planned builds' instance allocations first: a conflict
		// (the directory moved in a way the epoch check cannot see) demotes
		// the round to stale. Partially adopted pairs are harmless — they
		// are valid allocations for objects a re-plan introduces anyway.
		for _, wj := range warm.jobs {
			p := wj.plan
			if p.j.dead || p.view == nil {
				continue
			}
			if err := p.view.Commit(p.j.dir); err != nil {
				fresh = false
				break
			}
			p.view = nil
		}
	}
	if !fresh {
		if warm.retries < maxWarmRetries {
			warm.retries++
			c.planWarm(ws)
			return
		}
		c.finishJoin(ws, nil)
		return
	}
	c.finishJoin(ws, warm.jobs)
}

// finishJoin enters a warmed worker into the active set and moves every
// job onto the grown set. Jobs with a fresh plan adopt it (and mark the
// pre-sent installs so the first instantiation sends none); jobs without
// one — admitted mid-warm, or a stale round past its retries — are planned
// and adopted synchronously, and their installs ride the first
// instantiation.
func (c *Controller) finishJoin(ws *workerState, planned []warmJob) {
	warm := ws.warm
	ws.warm = nil
	c.activateWorker(ws)
	warmed := make(map[*jobState]*setPlan, len(planned))
	for _, wj := range planned {
		warmed[wj.plan.j] = wj.plan
	}
	for _, j := range c.jobList() {
		p := warmed[j]
		if p == nil {
			p = c.planSet(j, c.active)
			if err := p.err(); err != nil {
				c.cfg.Logf("controller: %s joining %s: %v", j.id, ws.id, err)
			}
		}
		c.adoptSet(p)
		if warmed[j] == nil {
			continue
		}
		for i := range p.tmpls {
			if a := p.tmpls[i].a; len(a.PerWorker[ws.id]) > 0 {
				a.Installed[ws.id] = true
			}
		}
	}
	c.Stats.WarmJoins.Add(1)
	c.warmLat.record(time.Since(warm.start))
	c.cfg.Logf("controller: worker %s joined fleet (%d active, warmed in %v)",
		ws.id, len(c.active), time.Since(warm.start).Round(time.Microsecond))
	c.maybeStartTakeover()
}

// DrainWorker removes one worker from the fleet gracefully (call via Do):
// every job's templates retarget onto the survivors atomically, the
// worker's latest data flushes eagerly to the new owners, and the worker
// is decommissioned once its outstanding work drains — zero failed
// commands, unlike a kill. The drained worker keeps serving until then.
func (c *Controller) DrainWorker(id ids.WorkerID) error {
	ws := c.workers[id]
	if ws == nil || !ws.alive {
		return fmt.Errorf("controller: drain of unknown worker %s", id)
	}
	if ws.phase != phaseActive {
		return fmt.Errorf("controller: worker %s is not active (lifecycle phase %d)", id, ws.phase)
	}
	if len(c.active) <= 1 {
		return fmt.Errorf("controller: cannot drain the last worker")
	}
	if c.takeoverWait {
		return fmt.Errorf("controller: drain refused during takeover recovery")
	}
	survivors := make([]ids.WorkerID, 0, len(c.active)-1)
	for _, a := range c.active {
		if a != id {
			survivors = append(survivors, a)
		}
	}
	// Plan every job against the survivors before touching live state; an
	// error anywhere leaves the fleet unchanged (SetActive's atomicity
	// contract).
	plans, err := c.planAll(survivors)
	if err != nil {
		return fmt.Errorf("controller: draining %s: retargeting %w", id, err)
	}
	c.active = survivors
	ws.phase = phaseDraining
	ws.drainStart = time.Now()
	c.draining[id] = struct{}{}
	for _, p := range plans {
		c.adoptSet(p)
		j := p.j
		// Eagerly flush every logical object whose latest version lives on
		// the departing worker to its new owner. RecordCopy updates the
		// directory at schedule time, so nothing scheduled after this pass
		// reads from the victim.
		batches := make(map[ids.WorkerID][]*command.Command)
		for _, vm := range j.vars {
			for p, l := range vm.logicals {
				if j.dir.Latest(l) != 0 && j.dir.LatestHolder(l) == id {
					c.ensureLatestAt(j, l, vm.assign[p], batches)
				}
			}
		}
		c.dispatchCommands(j, batches)
	}
	c.sendWorker(ws, &proto.FleetDrain{Worker: id})
	c.cfg.Logf("controller: draining worker %s (%d active remain)", id, len(c.active))
	c.checkDrains()
	return nil
}

// DrainWorkers drains n workers, picking the highest IDs first (the most
// recently joined — LIFO keeps long-lived workers' caches hot). Returns
// the drained IDs; fewer than n when the fleet cannot shrink further.
func (c *Controller) DrainWorkers(n int) []ids.WorkerID {
	var out []ids.WorkerID
	for i := len(c.active) - 1; i >= 0 && len(out) < n && len(c.active) > 1; i-- {
		id := c.active[i]
		if err := c.DrainWorker(id); err != nil {
			c.cfg.Logf("controller: autoscale drain %s: %v", id, err)
			continue
		}
		out = append(out, id)
	}
	return out
}

// drainBusy reports whether a draining worker still has dispatched
// commands, pending template-instance acks, or central-mode graph nodes
// anywhere.
func (c *Controller) drainBusy(id ids.WorkerID) bool {
	for _, j := range c.jobs {
		for _, w := range j.outstanding {
			if w == id {
				return true
			}
		}
		for _, inst := range j.instances {
			if inst.pending[id] {
				return true
			}
		}
		for _, n := range j.central.nodes {
			if n.worker == id {
				return true
			}
		}
	}
	return false
}

// checkDrains decommissions every draining worker that has gone quiet. It
// runs after each run while drains are in flight (the len guard in the
// event loop keeps the steady state free of it).
func (c *Controller) checkDrains() {
	for id := range c.draining {
		ws := c.workers[id]
		if ws == nil || !ws.alive || ws.phase != phaseDraining {
			delete(c.draining, id)
			continue
		}
		if c.drainBusy(id) {
			continue
		}
		c.decommission(ws)
	}
}

// decommission releases a drained, quiet worker: its directory replicas
// and ledgers drop (every latest version already lives on a survivor —
// that is what the eager flush and the outstanding-work wait guarantee),
// peers stop addressing it, and it is told to shut down. The worker state
// lingers, decommissioned, until its connection closes.
func (c *Controller) decommission(ws *workerState) {
	delete(c.draining, ws.id)
	ws.phase = phaseDecommissioned
	for _, j := range c.jobs {
		j.dir.DropWorker(ws.id)
		delete(j.ledgers, ws.id)
	}
	c.sendWorker(ws, &proto.FleetDecommission{Worker: ws.id})
	c.refreshPeers(ws.id)
	c.Stats.FleetDrains.Add(1)
	c.drainLat.record(time.Since(ws.drainStart))
	c.cfg.Logf("controller: worker %s decommissioned (drained in %v)",
		ws.id, time.Since(ws.drainStart).Round(time.Microsecond))
}

// fleetWorkerGone cleans up a warming, draining or decommissioned worker
// whose connection dropped (or heartbeats stopped), and reports whether it
// handled the departure. A warming or decommissioned worker owns no
// placement, ledgers or outstanding work, so removal is a pure delete — no
// recovery. A draining worker that dies before decommission still holds
// in-flight work and possibly sole latest replicas, so it falls through to
// the ordinary failure path (checkpoint revert + replay).
func (c *Controller) fleetWorkerGone(ws *workerState) bool {
	switch ws.phase {
	case phaseWarming:
		c.cfg.Logf("controller: worker %s lost mid-warm; join aborted", ws.id)
		c.dropWorker(ws)
		return true
	case phaseDecommissioned:
		c.dropWorker(ws)
		return true
	case phaseDraining:
		delete(c.draining, ws.id)
		return false
	}
	return false
}
