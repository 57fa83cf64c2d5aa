package controller

// This file is the controller's driver front door: gateway serving, the
// bounded admission queue, hierarchical (tenant → job) fair share,
// per-tenant admission rate limits, and the SLO latency recorders.
//
// Gateway connections. A connection whose handshake is GatewayHello
// carries many driver sessions; transport.MuxServer demuxes it on its
// reader and delivers each session's frames and end to the session's
// source, which checks the hello and posts to the loop as a dedicated
// connection's reader does, so past the handshake the loop cannot tell a
// session from a dedicated connection, and a session costs no goroutine.
// One Flush on any session writes everything staged on its shared
// connection as one frame, so the end-of-run flush costs one frame per
// gateway.
//
// Bounded admission. registerDriver no longer admits unconditionally:
// past Config.MaxJobs, registrations wait in a priority-ordered bounded
// queue (Config.AdmitQueue) and are admitted as jobs end; past the queue
// they are rejected with a typed AdmissionReject carrying a retry-after
// hint, so no driver ever blocks forever on a saturated controller.
//
// Hierarchical fair share. Executor slots divide first among tenants in
// proportion to Config.TenantWeights, then among each tenant's jobs in
// proportion to job weight. Quota pushes are diffed per (tenant, job
// weight) class: admitting the 10-thousandth job re-sends nothing to the
// 9,999 whose floored share did not change, which is what keeps admission
// O(workers) instead of O(jobs × workers) at scale.

import (
	"fmt"
	"sort"
	"time"

	"nimbus/internal/proto"
)

// queueRetryAfter is the retry-after hint attached to queue-full and
// job-cap rejections: long enough that an immediate retry storm does not
// re-saturate the queue, short enough to keep rejected drivers live.
const queueRetryAfter = 50 * time.Millisecond

// admitWait is one registration parked in the bounded admission queue
// (or, transiently, one being admitted). Admission binds src to the job.
type admitWait struct {
	m   *proto.RegisterDriver
	src *source
	at  time.Time
}

// tenantState aggregates one tenant's live jobs for hierarchical fair
// share. classes groups them by job weight: every job in a (tenant,
// weight) class has the same slot share, so quota pushes diff and send
// per class, not per job.
type tenantState struct {
	name      string
	weight    int
	jobCount  int
	jobWeight int
	classes   map[int]map[*jobState]struct{}
}

// tenantClass keys a worker's last-sent quota per (tenant, job weight)
// share class.
type tenantClass struct {
	tenant string
	weight int
}

// tokenBucket is one tenant's admission rate limiter.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// latencyWindow bounds the SLO latency rings: quantiles reflect the most
// recent window, and recording stays O(1) on the event loop.
const latencyWindow = 4096

// latencyRecorder is an event-loop-confined ring of recent durations.
type latencyRecorder struct {
	samples []time.Duration
	idx     int
}

func (r *latencyRecorder) record(d time.Duration) {
	if len(r.samples) < latencyWindow {
		r.samples = append(r.samples, d)
		return
	}
	r.samples[r.idx] = d
	r.idx = (r.idx + 1) % latencyWindow
}

// quantile returns the q-th (0..1) quantile of the recorded window,
// sorting a copy so the ring itself stays in arrival order.
func (r *latencyRecorder) quantile(q float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	tmp := append([]time.Duration(nil), r.samples...)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	i := int(q*float64(len(tmp)-1) + 0.5)
	if i < 0 {
		i = 0
	}
	if i >= len(tmp) {
		i = len(tmp) - 1
	}
	return tmp[i]
}

// FrontDoorStats is a point-in-time snapshot of the front door's SLO
// metrics (taken on the event loop via Do).
type FrontDoorStats struct {
	// Jobs / QueueLen are the admitted-job and admission-queue gauges.
	Jobs     int
	QueueLen int
	// AdmissionP50/P99 are quantiles of registration-to-ack latency over
	// the recent window (includes time spent queued).
	AdmissionP50 time.Duration
	AdmissionP99 time.Duration
	// LoopIterP50/P99 are quantiles of controller-evaluated loop
	// iteration latency (instantiation to predicate evaluation).
	LoopIterP50 time.Duration
	LoopIterP99 time.Duration
	// GatewayConns / GatewaySessions gauge the mux fan-in: served shared
	// connections and the sessions open on them.
	GatewayConns    int
	GatewaySessions int
	// Conns counts every tracked transport connection (workers, drivers,
	// gateways, standby, and accepted ones awaiting their hello) — the
	// leak gauge for admission-path tests.
	Conns int
}

// FrontDoorStats snapshots the front door's SLO metrics.
func (c *Controller) FrontDoorStats() FrontDoorStats {
	var s FrontDoorStats
	c.Do(func() {
		s.Jobs = len(c.jobs)
		s.QueueLen = len(c.admitQ)
		s.AdmissionP50 = c.admLat.quantile(0.50)
		s.AdmissionP99 = c.admLat.quantile(0.99)
		s.LoopIterP50 = c.loopLat.quantile(0.50)
		s.LoopIterP99 = c.loopLat.quantile(0.99)
	})
	c.connMu.Lock()
	s.Conns = len(c.conns)
	s.GatewayConns = len(c.gateways)
	for g := range c.gateways {
		s.GatewaySessions += g.Sessions()
	}
	c.connMu.Unlock()
	return s
}

// registerDriver is the front door's admission path: rate-limit check,
// then admit, queue, or reject against the MaxJobs/AdmitQueue bounds.
// The connection is read from its hello on, so a driver that gives up
// while queued — closes or cancels — is seen: its end drops the entry.
func (c *Controller) registerDriver(m *proto.RegisterDriver, src *source, at time.Time) {
	now := time.Now()
	w := &admitWait{m: m, src: src, at: at}
	if wait, limited := c.admitRateLimited(m.Tenant, now); limited {
		c.rejectAdmission(w, proto.RejectRateLimited, wait,
			fmt.Sprintf("tenant %q admission rate limit", m.Tenant))
		return
	}
	if c.cfg.MaxJobs > 0 && len(c.jobs) >= c.cfg.MaxJobs {
		if len(c.admitQ) < c.cfg.AdmitQueue {
			c.Stats.AdmissionsQueued.Add(1)
			c.enqueueAdmission(w)
			return
		}
		code := uint8(proto.RejectQueueFull)
		reason := "admission queue full"
		if c.cfg.AdmitQueue <= 0 {
			code = proto.RejectMaxJobs
			reason = fmt.Sprintf("job cap %d reached", c.cfg.MaxJobs)
		}
		c.rejectAdmission(w, code, queueRetryAfter, reason)
		return
	}
	c.admitNow(w, now)
}

// enqueueAdmission inserts one registration into the bounded queue:
// descending priority, FIFO within a priority band.
func (c *Controller) enqueueAdmission(w *admitWait) {
	i := len(c.admitQ)
	for i > 0 && c.admitQ[i-1].m.Priority < w.m.Priority {
		i--
	}
	c.admitQ = append(c.admitQ, nil)
	copy(c.admitQ[i+1:], c.admitQ[i:])
	c.admitQ[i] = w
}

// admitNow creates the job for one registration and acks it. now is the
// admission instant; w.at is the arrival instant — their difference is
// the admission latency the SLO quantiles track.
func (c *Controller) admitNow(w *admitWait, now time.Time) {
	j := c.newJobState(w.m.Name, w.m.Weight, w.src.conn)
	j.tenant = w.m.Tenant
	j.priority = w.m.Priority
	c.jobs[j.id] = j
	c.totalWeight += j.weight
	c.adoptJobTenant(j)
	c.Stats.JobsAdmitted.Add(1)
	c.admLat.record(now.Sub(w.at))
	c.replJobStart(j)
	w.src.job = j.id
	c.sendDriver(j, &proto.RegisterDriverAck{Job: j.id})
	// The newcomer's quota goes to every worker unconditionally; its
	// class's other members are diffed by flushQuotas at the end of the run.
	for _, ws := range c.workers {
		if ws.alive {
			c.sendWorker(ws, &proto.JobQuota{Job: j.id, Slots: c.classShareFor(ws, j)})
		}
	}
}

// rejectAdmission answers one registration with a typed AdmissionReject
// and closes its connection; the connection's end is inert, since it is
// bound to no job and no queue entry exists. A gateway session closes
// alone.
func (c *Controller) rejectAdmission(w *admitWait, code uint8, retryAfter time.Duration, reason string) {
	c.Stats.AdmissionsRejected.Add(1)
	c.sendConn(w.src.conn, &proto.AdmissionReject{
		Code:             code,
		RetryAfterMillis: uint64(retryAfter / time.Millisecond),
		Err:              reason,
	})
	c.closeDriver(w.src.conn)
}

// drainAdmissions admits queued registrations into freed job slots.
// Called whenever a job ends.
func (c *Controller) drainAdmissions() {
	for len(c.admitQ) > 0 && (c.cfg.MaxJobs <= 0 || len(c.jobs) < c.cfg.MaxJobs) {
		w := c.admitQ[0]
		c.admitQ[0] = nil
		c.admitQ = c.admitQ[1:]
		c.admitNow(w, time.Now())
	}
	if len(c.admitQ) == 0 {
		c.admitQ = nil
	}
}

// dropQueued removes the admission-queue entry (if any) of a connection
// that closed while waiting.
func (c *Controller) dropQueued(src *source) {
	for i, w := range c.admitQ {
		if w.src == src {
			c.admitQ = append(c.admitQ[:i], c.admitQ[i+1:]...)
			return
		}
	}
}

// rejectAllQueued empties the admission queue with the given code —
// the controller is shutting down.
func (c *Controller) rejectAllQueued(code uint8, reason string) {
	for _, w := range c.admitQ {
		c.rejectAdmission(w, code, 0, reason)
	}
	c.admitQ = nil
}

// admitRateLimited charges one admission against the tenant's token
// bucket. It reports the wait until a token would be available when the
// bucket is empty.
func (c *Controller) admitRateLimited(tenant string, now time.Time) (time.Duration, bool) {
	if c.cfg.TenantRate <= 0 {
		return 0, false
	}
	burst := float64(c.cfg.TenantBurst)
	if burst < 1 {
		burst = 1
	}
	b := c.rateBuckets[tenant]
	if b == nil {
		b = &tokenBucket{tokens: burst, last: now}
		c.rateBuckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * c.cfg.TenantRate
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens < 1 {
		wait := time.Duration((1 - b.tokens) / c.cfg.TenantRate * float64(time.Second))
		return wait, true
	}
	b.tokens--
	return 0, false
}

// tenantWeight resolves one tenant's configured fair-share weight.
func (c *Controller) tenantWeight(name string) int {
	if w := c.cfg.TenantWeights[name]; w > 0 {
		return w
	}
	return 1
}

// adoptJobTenant folds one admitted (or restored) job into its tenant's
// fair-share aggregates. A tenant going from idle to active changes every
// tenant's share (the active-weight denominator moved), so all go dirty;
// otherwise only the job's own tenant does.
func (c *Controller) adoptJobTenant(j *jobState) {
	t := c.tenants[j.tenant]
	if t == nil {
		t = &tenantState{
			name:    j.tenant,
			weight:  c.tenantWeight(j.tenant),
			classes: make(map[int]map[*jobState]struct{}),
		}
		c.tenants[j.tenant] = t
	}
	if t.jobCount == 0 {
		c.activeTW += t.weight
		c.allTenantsDirty = true
	} else {
		c.dirtyTenants[t] = struct{}{}
	}
	t.jobCount++
	t.jobWeight += j.weight
	cl := t.classes[j.weight]
	if cl == nil {
		cl = make(map[*jobState]struct{})
		t.classes[j.weight] = cl
	}
	cl[j] = struct{}{}
}

// dropJobTenant removes one ended job from its tenant's aggregates,
// mirroring adoptJobTenant.
func (c *Controller) dropJobTenant(j *jobState) {
	t := c.tenants[j.tenant]
	if t == nil {
		return
	}
	if cl := t.classes[j.weight]; cl != nil {
		delete(cl, j)
		if len(cl) == 0 {
			delete(t.classes, j.weight)
		}
	}
	t.jobCount--
	t.jobWeight -= j.weight
	if t.jobCount <= 0 {
		t.jobCount = 0
		t.jobWeight = 0
		c.activeTW -= t.weight
		c.allTenantsDirty = true
		return
	}
	c.dirtyTenants[t] = struct{}{}
}

// classShare computes the per-worker slot share of one (tenant, job
// weight) class: slots divide among active tenants by tenant weight, then
// within the tenant by job weight, floored at one slot so every job can
// make progress.
func (c *Controller) classShare(ws *workerState, t *tenantState, weight int) int {
	den := c.activeTW * t.jobWeight
	if den <= 0 {
		return 1
	}
	s := ws.slots * t.weight * weight / den
	if s < 1 {
		s = 1
	}
	return s
}

// classShareFor is classShare looked up from a job.
func (c *Controller) classShareFor(ws *workerState, j *jobState) int {
	t := c.tenants[j.tenant]
	if t == nil {
		return 1
	}
	return c.classShare(ws, t, j.weight)
}

// flushQuotas pushes changed slot quotas for dirty tenants, diffed per
// (tenant, job weight) class against what each worker last heard. Runs on
// the event loop before every flushSends. In the saturated regime — every
// share floored at one — an admission re-sends nothing beyond the
// newcomer's own quota, which admitNow pushed directly.
func (c *Controller) flushQuotas() {
	if !c.allTenantsDirty && len(c.dirtyTenants) == 0 {
		return
	}
	var dirty []*tenantState
	if c.allTenantsDirty {
		for _, t := range c.tenants {
			if t.jobCount > 0 {
				dirty = append(dirty, t)
			}
		}
	} else {
		for t := range c.dirtyTenants {
			if t.jobCount > 0 {
				dirty = append(dirty, t)
			}
		}
	}
	c.allTenantsDirty = false
	clear(c.dirtyTenants)
	if len(dirty) == 0 {
		return
	}
	c.Stats.SlotRebalances.Add(1)
	for _, t := range dirty {
		for _, ws := range c.workers {
			if !ws.alive {
				continue
			}
			if ws.quotaSent == nil {
				ws.quotaSent = make(map[tenantClass]int)
			}
			for weight, jobs := range t.classes {
				if len(jobs) == 0 {
					continue
				}
				s := c.classShare(ws, t, weight)
				key := tenantClass{t.name, weight}
				if ws.quotaSent[key] == s {
					continue
				}
				ws.quotaSent[key] = s
				for j := range jobs {
					c.sendWorker(ws, &proto.JobQuota{Job: j.id, Slots: s})
				}
			}
		}
	}
}
