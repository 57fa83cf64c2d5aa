// Package controller implements the Nimbus controller node.
//
// The controller is multi-tenant: it admits N concurrent driver jobs and
// multiplexes them over one shared worker pool. Each RegisterDriver
// admission creates a job — identified by an ids.JobID — that owns a full
// copy of the mutable control-plane machinery: object directory
// (mutable-object versioning, §3.3), per-worker dependency ledgers,
// execution templates (§4), watermark tracking, checkpointing and failure
// recovery (§4.4), the off-loop build pipeline, and all ID allocators.
// Jobs cannot observe each other: their command, object and template IDs
// live in disjoint per-job namespaces carried on every worker-bound
// message, worker halts are job-scoped (recovering one job never flushes
// another's in-flight work), and checkpoints are keyed by job in durable
// storage. Executor capacity is split by a weighted fair-share slot
// allocator, rebalanced on job arrival and exit, so one hot tenant cannot
// starve the rest. Driver disconnect or JobEnd tears down exactly that
// job's templates, outstanding builds, directory and worker-side state.
//
// Per job, the controller receives the driver's task stream, transforms it
// into an execution plan (assigning tasks to workers and inserting
// explicit copy commands for cross-worker data movement, paper §3.2), and
// dispatches commands to workers.
//
// Scheduling modes:
//
//   - ModeNimbus (default): whole stages are pushed to workers, which
//     resolve dependencies locally; basic blocks marked by the driver are
//     recorded into execution templates and re-executed by instantiation.
//   - ModeCentral: a Spark-like centralized dispatcher — every command is
//     sent individually once its predecessors' completions have been
//     reported back, with a configurable per-task scheduling cost. This is
//     the paper's Spark-opt baseline.
//
// All controller state is confined to one event loop goroutine. Connection
// readers, gateway readers, build goroutines and the ticker post events to
// its mailbox (internal/loop), and the loop handles everything posted while
// it was busy as one run per wakeup; external callers inject work through
// Do.
package controller

import (
	"errors"
	"fmt"
	"log"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/flow"
	"nimbus/internal/ids"
	"nimbus/internal/loop"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// Mode selects the scheduling regime.
type Mode int

// Modes.
const (
	// ModeNimbus is the paper's system: batched dispatch, worker-local
	// dependency resolution, execution templates.
	ModeNimbus Mode = iota
	// ModeCentral is the Spark-like baseline: per-task central dispatch.
	ModeCentral
)

// Config configures a controller.
type Config struct {
	// ControlAddr is the listen address for drivers and workers.
	ControlAddr string
	// Transport supplies connectivity.
	Transport transport.Transport
	// Mode selects the scheduling regime.
	Mode Mode
	// CentralPerTaskCost models the baseline scheduler's per-task cost in
	// ModeCentral: the dispatcher waits this long (simclock.Wait) before
	// sending each task (the paper measures 166µs/task for Spark 2.0; zero
	// disables the model and measures this implementation's native cost).
	CentralPerTaskCost time.Duration
	// HeartbeatTimeout marks a worker failed after silence (zero disables
	// heartbeat-based detection; connection errors still trigger it).
	HeartbeatTimeout time.Duration
	// BuildParallelism bounds the goroutine pool template builds use,
	// both the background executor and the intra-build sharding (0 =
	// GOMAXPROCS, 1 = serial builds). The pool is shared by all jobs.
	BuildParallelism int
	// LeaseTTL is the leadership lease duration for controller failover:
	// with a standby attached, the primary renews its lease every
	// LeaseTTL/3 over the replication stream, and the standby promotes
	// itself once LeaseTTL elapses without a renewal. Zero defaults to
	// one second.
	LeaseTTL time.Duration
	// ReattachDeadline bounds how long a promoted controller parks a
	// restored job whose driver has not reattached: past the deadline
	// the job is torn down cleanly instead of waiting (and replaying)
	// forever. Zero disables the deadline.
	ReattachDeadline time.Duration
	// MaxJobs caps concurrently admitted driver jobs (0 = unlimited).
	// Past the cap, registrations wait in the bounded admission queue or
	// are rejected with a typed AdmissionReject — never blocked forever.
	MaxJobs int
	// AdmitQueue bounds how many registrations may wait for a job slot
	// once MaxJobs is reached (0 = reject immediately). The queue orders
	// by descending driver priority, FIFO within a band.
	AdmitQueue int
	// TenantWeights sets hierarchical fair-share weights per tenant
	// (missing or non-positive = 1): executor slots divide first among
	// tenants with live jobs by these weights, then among each tenant's
	// jobs by job weight.
	TenantWeights map[string]int
	// TenantRate rate-limits admissions per tenant (admissions/second,
	// 0 = unlimited); TenantBurst is the token-bucket depth (min 1).
	// Past the limit, registration is rejected with a retry-after hint.
	TenantRate  float64
	TenantBurst int
	// Hooks are optional test/fault-injection instrumentation points.
	Hooks Hooks
	// Logf receives diagnostics. Nil defaults to log.Printf.
	Logf func(format string, args ...any)
}

// Stats exposes controller counters, aggregated across jobs. The *Nanos
// fields accumulate controller CPU time in the corresponding operations;
// the microbenchmarks (paper Tables 1-3) divide them by task counts.
type Stats struct {
	TasksScheduled atomic.Uint64
	CopiesInserted atomic.Uint64
	MsgsToWorkers  atomic.Uint64
	// FramesToWorkers counts transport frames actually sent: the send
	// coalescer packs all messages staged for a worker during one run
	// into one frame, so FramesToWorkers <= MsgsToWorkers. In the
	// steady state an InstantiateBlock fan-out is exactly one frame per
	// participating worker.
	FramesToWorkers atomic.Uint64
	BytesToWorkers  atomic.Uint64
	Instantiations  atomic.Uint64
	TemplatesBuilt  atomic.Uint64
	PatchesBuilt    atomic.Uint64
	PatchCacheHits  atomic.Uint64
	Validations     atomic.Uint64
	AutoValidations atomic.Uint64
	EditsSent       atomic.Uint64
	Recoveries      atomic.Uint64
	// BuildRetries counts off-loop builds discarded at commit because
	// placement or the directory moved underneath them.
	BuildRetries atomic.Uint64
	// BuildsInFlight gauges template builds currently running off-loop.
	BuildsInFlight atomic.Int64
	// JobsAdmitted / JobsEnded count driver-job lifecycle events;
	// SlotRebalances counts fair-share recomputations of the per-worker
	// executor-slot quotas. AdmissionsQueued counts registrations that
	// waited in the bounded admission queue; AdmissionsRejected counts
	// typed rejections (queue full, job cap, rate limit, shutdown).
	JobsAdmitted       atomic.Uint64
	JobsEnded          atomic.Uint64
	SlotRebalances     atomic.Uint64
	AdmissionsQueued   atomic.Uint64
	AdmissionsRejected atomic.Uint64
	// PredicateEvals counts controller-side loop-predicate evaluations
	// (driver API v2 InstantiateWhile); PipelinedGets counts driver Gets
	// that arrived while earlier Gets of the same job were still
	// unresolved — overlap only possible with the async driver surface.
	PredicateEvals atomic.Uint64
	PipelinedGets  atomic.Uint64
	// Takeovers counts jobs this controller recovered through standby
	// promotion (always 0 on a controller that was never promoted);
	// OpsReplayed counts logged driver operations re-executed by
	// recovery or takeover replay.
	Takeovers   atomic.Uint64
	OpsReplayed atomic.Uint64
	// Evictions counts snapshot-listed workers a promoted controller
	// struck from the rejoin roster because they never reconnected
	// within the heartbeat timeout; JobsExpired counts restored jobs
	// torn down because their driver never reattached within
	// Config.ReattachDeadline. CkptsAborted counts checkpoints vetoed by
	// a worker-reported durable Save failure.
	Evictions    atomic.Uint64
	JobsExpired  atomic.Uint64
	CkptsAborted atomic.Uint64
	// WarmJoins / FleetDrains count completed elastic-fleet lifecycle
	// transitions (fleet.go): a join is hello→warm→ready, a drain is
	// drain→quiesce→decommission. Neither counts workers activated with
	// nothing to warm, or failures.
	WarmJoins   atomic.Uint64
	FleetDrains atomic.Uint64
	// LoopWakeups counts event-loop turns (one mailbox take each) and
	// LoopEvents the events they handled, so LoopEvents/LoopWakeups is the
	// loop's run length.
	LoopWakeups atomic.Uint64
	LoopEvents  atomic.Uint64

	ScheduleNanos    atomic.Uint64 // live per-task scheduling
	RecordNanos      atomic.Uint64 // template recording (stage capture) time
	BuildNanos       atomic.Uint64 // off-loop assignment construction time
	FinalizeNanos    atomic.Uint64 // controller-template commit + install
	InstantiateNanos atomic.Uint64 // block instantiation (controller side)
	ValidateNanos    atomic.Uint64 // precondition validation
	PatchBuildNanos  atomic.Uint64 // patch construction
	MigrateNanos     atomic.Uint64 // edit generation (Template.Migrate)
	// MigrateRebuilds counts template migrations Template.Migrate could
	// not edit exactly and rebuilt instead.
	MigrateRebuilds atomic.Uint64
}

// Controller is the Nimbus controller node.
type Controller struct {
	cfg Config

	// mbox is where other goroutines post events; it closes after stopped.
	mbox    *loop.Mailbox[cevent]
	stopped chan struct{}
	wg      sync.WaitGroup
	lis     transport.Listener
	// after holds work a handler deferred to the end of its event: a
	// handler never posts to its own mailbox, which blocks it for good
	// when the mailbox is full.
	after []func()

	// Cluster state (shared by all jobs).
	workers    map[ids.WorkerID]*workerState
	active     []ids.WorkerID
	nextWorker ids.WorkerID

	// Admitted jobs, by ID. jobSeq allocates JobIDs; totalWeight is the
	// fair-share denominator.
	jobs        map[ids.JobID]*jobState
	jobSeq      uint32
	totalWeight int

	// Shared build executor: per-job builds contend for one bounded pool.
	buildSem chan struct{}
	buildPar int

	// Driver fetches in flight, keyed by a global sequence (the worker
	// echo carries no job; the table does).
	fetchSeq uint64
	fetches  map[uint64]*pendingFetch
	// chunkRx reassembles chunked fetch replies (large objects stream
	// from workers as ChunkFetch-flagged DataChunk runs), keyed by the
	// same fetch sequence.
	chunkRx map[uint64]*fetchChunks

	// dirty lists workers with staged messages awaiting the end-of-run
	// coalesced flush; dirtyDrv lists driver connections with staged
	// messages (a closed one may still owe its peer a SessionClose). A
	// connection listed twice is harmless: its second Flush finds nothing.
	dirty    []*workerState
	dirtyDrv []transport.Conn

	// Front door (frontdoor.go): the bounded admission queue, tenant
	// fair-share aggregates (activeTW sums the weights of tenants with live
	// jobs; dirty sets drive the diffed quota flush), per-tenant admission
	// rate buckets, and the SLO latency rings.
	admitQ          []*admitWait
	tenants         map[string]*tenantState
	activeTW        int
	dirtyTenants    map[*tenantState]struct{}
	allTenantsDirty bool
	rateBuckets     map[string]*tokenBucket
	admLat          latencyRecorder
	loopLat         latencyRecorder

	// Elastic fleet (fleet.go): workers mid-drain awaiting quiescence,
	// and the lifecycle latency rings (hello→ready warm latency,
	// drain→decommission rebalance latency).
	draining map[ids.WorkerID]struct{}
	warmLat  latencyRecorder
	drainLat latencyRecorder

	// Failover state (repl.go, takeover.go): the attached standby's
	// replication stream (nil without one), whether any standby ever
	// attached (it caps the journal-truncation point drivers learn — a
	// detached standby may still promote from its stale shadow), the
	// lease epoch renewals carry, the rejoin roster a promoted controller
	// waits on before takeover recovery, the tracked connection set Kill
	// tears down, and the served gateway connections Stop closes.
	repl         *replState
	hadStandby   bool
	epoch        uint64
	expectRejoin map[ids.WorkerID]struct{}
	takeoverWait bool
	// takeoverAt stamps when a promoted controller began accepting
	// reconnects; the tick loop measures the eviction and driver-
	// reattach deadlines from it. standbyDownAt stamps when the last
	// standby detached, bounding how long hadStandby keeps capping the
	// journal-truncation point at the stale shadow's replAcked.
	takeoverAt    time.Time
	standbyDownAt time.Time

	connMu   sync.Mutex
	conns    map[transport.Conn]struct{}
	gateways map[*transport.MuxServer]struct{}
	stopOnce sync.Once

	// Stats is exported for benchmarks and tests.
	Stats Stats
}

// jobState is one admitted driver job: a complete, isolated copy of the
// mutable control plane. Everything in it is event-loop confined.
type jobState struct {
	id     ids.JobID
	name   string
	weight int
	conn   transport.Conn
	// Front-door identity: the fair-share tenant and the admission-queue
	// priority.
	tenant   string
	priority uint8
	// dead marks a torn-down job so late build commits and stray events
	// drop instead of resurrecting state.
	dead bool

	// Data model.
	vars     map[ids.VariableID]*varMeta
	dir      *flow.Directory
	ledgers  map[ids.WorkerID]*flow.Ledger
	cmdIDs   ids.CommandIDs
	objIDs   ids.ObjectIDs
	logIDs   ids.LogicalIDs
	tmplIDs  ids.Allocator
	patchIDs ids.Allocator

	// Templates.
	templates map[string]*core.Template
	recording *recordingState
	lastBlock ids.TemplateID
	autoValid bool
	// set is the worker set (sorted) the job's placement was planned for,
	// and sets holds what the job left on every other set it has run on,
	// by signature (adapt.go): returning to a set restores its placement
	// and the worker templates installed for it (Figure 9's restore path).
	set        []ids.WorkerID
	sets       map[string]*setRecord
	patchCache *core.PatchCache
	// pendingEdits stages per-worker edits to attach to the next
	// instantiation of each assignment.
	pendingEdits map[ids.TemplateID]map[ids.WorkerID][]editStaged
	// Off-loop builds: in-flight jobs by template name, the driver-op
	// fence queue, and the placement epoch that stales snapshots (bumped
	// by worker-set changes and migration).
	building   map[string]*buildJob
	opq        []proto.Msg
	placeEpoch uint64

	// Outstanding work. wm incrementally tracks the minimum outstanding
	// command ID / instance base so doneWatermark never rescans the maps.
	outstanding  map[ids.CommandID]ids.WorkerID
	instances    map[uint64]*instState
	nextInstance uint64
	wm           *wmTracker

	// Central-mode dispatch graph.
	central *centralGraph

	// Driver synchronization.
	barriers []pendingBarrier
	gets     []pendingGet
	// loops holds in-flight controller-evaluated loops (loops.go). The
	// op fence admits at most one at a time; queued InstantiateWhiles
	// wait in opq, so the slice is effectively 0 or 1 long.
	loops []*loopState

	// Checkpoint / recovery.
	ckpt        ckptState
	oplog       []proto.Msg
	replaying   bool
	haltSeq     uint64
	haltPending map[ids.WorkerID]bool
	recovering  bool

	// Failover. applied counts the job's logged driver operations
	// (replayed ops do not re-count); it is streamed to the standby and
	// echoed to a reattaching driver, which resumes its journal from it.
	// defs is a promoted job's definition replay list (variables and
	// template recordings), set at restoration and consumed by takeover
	// recovery; live jobs reconstruct definitions on demand for the
	// replication snapshot instead. pendingTakeover parks a promoted job
	// between restoration and its takeover recovery: driver ops queue
	// behind the fence and quiescence checks stand down until the worker
	// roster reassembles.
	applied         uint64
	defs            []proto.Msg
	pendingTakeover bool
	// replAcked is the highest applied-op index the standby has acked for
	// this job: the prefix a promotion from that standby is guaranteed to
	// hold, hence the driver's safe journal-truncation point while a
	// standby is (or ever was) attached.
	replAcked uint64
	// loopStepping marks a controller-originated instantiation (a loop
	// iteration): logged and replicated, but not counted in applied.
	loopStepping bool
}

type workerState struct {
	id       ids.WorkerID
	conn     transport.Conn
	dataAddr string
	slots    int
	alive    bool
	lastBeat time.Time
	// phase is the fleet lifecycle state (fleet.go); a worker with
	// nothing to warm is active from the turn that admits it. pending
	// mirrors the last heartbeat's queue depth — the autoscaler's load
	// signal. warm/drainStart track the lifecycle transition in flight, if
	// any.
	phase      workerPhase
	pending    int
	warm       *warmState
	drainStart time.Time
	// outq stages messages for the coalesced per-run flush (event-loop
	// confined between flushes; a flush goroutine owns it transiently).
	outq []proto.Msg
	// quotaSent caches the last slot quota sent per (tenant, job weight)
	// share class, so the fair-share flush re-sends only classes whose
	// share actually moved (event-loop confined).
	quotaSent map[tenantClass]int
}

// varMeta is the controller's record of one application variable.
type varMeta struct {
	id         ids.VariableID
	name       string
	partitions int
	logicals   []ids.LogicalID
	assign     []ids.WorkerID // partition -> owning worker
}

// recordingState captures the basic block being recorded. Only the stage
// specs are kept: assignment construction is a pure function over them and
// runs off-loop at TemplateEnd.
type recordingState struct {
	tmpl *core.Template
}

type instState struct {
	assignment *core.Assignment
	base       ids.CommandID
	pending    map[ids.WorkerID]bool
}

type pendingBarrier struct {
	seq uint64
}

type pendingGet struct {
	seq uint64
	v   ids.VariableID
	p   int
}

type pendingFetch struct {
	job       ids.JobID
	driverSeq uint64
	v         ids.VariableID
	p         int
	// loop, when non-nil, marks a predicate fetch: the echo feeds the
	// loop's evaluation instead of a driver GetResult.
	loop *loopState
}

type ckptState struct {
	count     uint64
	last      uint64
	requested []uint64 // driver seqs awaiting the next checkpoint commit
	saving    bool
	// logMark is the oplog length at beginCheckpoint: the manifest covers
	// exactly those entries, so commit must clear only them. Ops arriving
	// while the saves drain (reachable since the async driver surface)
	// stay logged for replay on top of the reverted state.
	logMark int
	// pendingManifest collects what the in-progress checkpoint saves;
	// manifest is the committed one recovery loads from.
	pendingManifest map[ids.LogicalID]uint64
	manifest        map[ids.LogicalID]uint64
	// failed carries the first worker-reported Save error of the
	// in-progress checkpoint; commit turns into an abort when set.
	failed string
}

// mailboxCap bounds the events waiting for the loop. Producers block at the
// bound — that is the connection readers' back-pressure.
const mailboxCap = 4096

type cevent struct {
	kind ceventKind
	msg  proto.Msg
	// src is the connection a message came from or that closed.
	src  *source
	fn   func()
	rerr error
	// at is the decode instant of a connection's hello, stamped off the
	// event loop so admission latency includes time spent waiting in the
	// mailbox — the dominant term under a thundering herd.
	at time.Time
}

type ceventKind uint8

const (
	cevMsg ceventKind = iota + 1
	cevConnClosed
	cevDo
	cevTick
)

// New creates a controller; Start launches it.
func New(cfg Config) *Controller {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.BuildParallelism <= 0 {
		cfg.BuildParallelism = runtime.GOMAXPROCS(0)
	}
	c := &Controller{
		cfg:      cfg,
		mbox:     loop.New[cevent](mailboxCap),
		stopped:  make(chan struct{}),
		workers:  make(map[ids.WorkerID]*workerState),
		jobs:     make(map[ids.JobID]*jobState),
		fetches:  make(map[uint64]*pendingFetch),
		chunkRx:  make(map[uint64]*fetchChunks),
		buildSem: make(chan struct{}, cfg.BuildParallelism),
		buildPar: cfg.BuildParallelism,
		conns:    make(map[transport.Conn]struct{}),
		gateways: make(map[*transport.MuxServer]struct{}),

		tenants:      make(map[string]*tenantState),
		dirtyTenants: make(map[*tenantState]struct{}),
		rateBuckets:  make(map[string]*tokenBucket),
		draining:     make(map[ids.WorkerID]struct{}),
	}
	return c
}

// newJobState admits one driver job, wiring up its isolated control-plane
// machinery on the active workers.
func (c *Controller) newJobState(name string, weight int, conn transport.Conn) *jobState {
	c.jobSeq++
	j := c.newJob(ids.JobID(c.jobSeq), name, weight)
	j.conn = conn
	j.set = slices.Clone(c.active)
	for _, wid := range c.active {
		j.ledgers[wid] = flow.NewLedger(wid)
	}
	return j
}

// newJob builds one job's empty control-plane state: the only place a
// job's directory is made, which then lives as long as the job.
func (c *Controller) newJob(id ids.JobID, name string, weight int) *jobState {
	if weight <= 0 {
		weight = 1
	}
	j := &jobState{
		id:           id,
		name:         name,
		weight:       weight,
		vars:         make(map[ids.VariableID]*varMeta),
		ledgers:      make(map[ids.WorkerID]*flow.Ledger),
		templates:    make(map[string]*core.Template),
		sets:         make(map[string]*setRecord),
		patchCache:   core.NewPatchCache(),
		pendingEdits: make(map[ids.TemplateID]map[ids.WorkerID][]editStaged),
		building:     make(map[string]*buildJob),
		outstanding:  make(map[ids.CommandID]ids.WorkerID),
		instances:    make(map[uint64]*instState),
		wm:           newWMTracker(),
	}
	j.dir = flow.NewDirectory(&j.objIDs)
	j.central = newCentralGraph(c, j)
	j.ckpt.manifest = make(map[ids.LogicalID]uint64)
	return j
}

// Start begins listening and runs the event loop.
func (c *Controller) Start() error {
	lis, err := c.cfg.Transport.Listen(c.cfg.ControlAddr)
	if err != nil {
		return fmt.Errorf("controller: listen: %w", err)
	}
	c.startWith(lis)
	return nil
}

func (c *Controller) startWith(lis transport.Listener) {
	c.lis = lis
	c.wg.Add(2)
	go c.acceptLoop()
	go c.run()
	if c.tickEvery() > 0 {
		c.wg.Add(1)
		go c.tickLoop()
	}
}

// tickEvery is the failure-detector tick period: half the tightest of
// the heartbeat and driver-reattach deadlines, zero when neither is
// configured (no tick loop runs).
func (c *Controller) tickEvery() time.Duration {
	d := c.cfg.HeartbeatTimeout
	if c.cfg.ReattachDeadline > 0 && (d == 0 || c.cfg.ReattachDeadline < d) {
		d = c.cfg.ReattachDeadline
	}
	return d / 2
}

// Stop shuts the controller down: workers, every driver and an attached
// standby receive Shutdown — so none of them treats this as a failure —
// and then it stops as Kill does.
func (c *Controller) Stop() {
	c.Do(func() {
		for _, ws := range c.workers {
			if ws.alive {
				c.sendWorker(ws, &proto.Shutdown{})
			}
		}
		for _, j := range c.jobs {
			c.sendDriver(j, &proto.Shutdown{})
		}
		// Waiting registrations get a typed rejection, not silence.
		c.rejectAllQueued(proto.RejectShuttingDown, "controller shutting down")
		// Flush before closing: staged shutdowns must hit the wire.
		c.flushSends()
		for _, ws := range c.workers {
			ws.conn.Close()
		}
		for _, j := range c.jobs {
			if j.conn != nil {
				j.conn.Close()
			}
		}
		if c.repl != nil {
			// A graceful stop must not trigger a takeover: the standby
			// sees the Shutdown and stands down instead of waiting out
			// the lease.
			c.repl.send(&proto.Shutdown{})
			c.repl.conn.Close()
			c.repl = nil
		}
	})
	c.Kill()
}

// Kill terminates the controller abruptly: no shutdown handshake, no
// flush — every connection just drops, exactly as a crashed process
// appears to its workers, drivers and standby. Failover tests use it;
// production paths call Stop.
func (c *Controller) Kill() {
	c.stopOnce.Do(func() { close(c.stopped) })
	c.mbox.Close()
	if c.lis != nil {
		c.lis.Close()
	}
	// Every reader returns once its connection closes: a gateway's, one
	// still waiting for its hello, and one whose hello the stopping loop
	// never handled. A connection accepted after this sweep is refused.
	c.connMu.Lock()
	conns := c.conns
	c.conns = nil
	c.connMu.Unlock()
	for conn := range conns {
		conn.Close()
	}
	c.wg.Wait()
}

// trackConn records an accepted connection so Kill can sever it; false
// means Kill has already swept the registry, and the caller closes it. The
// event-loop-confined worker/job tables cannot be read from Kill's
// goroutine, hence the separate mutex-protected registry.
func (c *Controller) trackConn(conn transport.Conn) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.conns == nil {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

// untrackConn forgets a tracked connection once its reader exits, so
// reconnect churn over a long-lived controller does not pin dead Conn
// objects. Once the node is stopping it forgets nothing: a reader that quit
// on the closed mailbox left its connection open, and Kill, which closes the
// mailbox before it collects the registry, must still sever it or the peer
// never sees the crash.
func (c *Controller) untrackConn(conn transport.Conn) {
	if c.stopping() {
		return
	}
	c.connMu.Lock()
	if c.conns != nil {
		delete(c.conns, conn)
	}
	c.connMu.Unlock()
}

// Addr returns the controller's actual listen address (useful with
// ":0"-style TCP addresses).
func (c *Controller) Addr() string { return c.lis.Addr() }

// stopping reports whether Stop or Kill has begun.
func (c *Controller) stopping() bool {
	select {
	case <-c.stopped:
		return true
	default:
		return false
	}
}

// Do injects fn into the controller's event loop and waits for it to run.
// The cluster harness uses it for out-of-band operations (resource
// manager events, migration requests, metric snapshots). Once the
// controller has stopped, fn may not run.
func (c *Controller) Do(fn func()) {
	done := make(chan struct{})
	if c.mbox.Put(cevent{kind: cevDo, fn: func() { fn(); close(done) }}) {
		<-done
	}
}

func (c *Controller) tickLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.tickEvery())
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if !c.mbox.Put(cevent{kind: cevTick}) {
				return
			}
		case <-c.stopped:
			return
		}
	}
}

func (c *Controller) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.lis.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.serve(conn)
	}
}

// source is one connection feeding the loop: a dedicated connection read by
// serve, or a gateway session its gateway's reader feeds (SessionSink). The
// reader decodes and posts; only the loop binds and reads the binding.
type source struct {
	c    *Controller
	conn transport.Conn
	// session marks a gateway session, drv a driver's (set before posting).
	session, drv bool
	// from is the worker a worker connection registered as; job is the job
	// a driver connection was admitted or reattached to (loop-confined).
	from ids.WorkerID
	job  ids.JobID
	// evs is the reader's scratch for one frame (a gateway's is shared).
	evs *[]cevent
}

// serve reads one accepted connection: a gateway is served as one, anything
// else is read here until it closes, a frame at a time. The connection is
// tracked from the start, so Kill closes it even while its hello is
// awaited, and a client that sends no hello within transport.HelloTimeout
// is dropped.
func (c *Controller) serve(conn transport.Conn) {
	defer c.wg.Done()
	if !c.trackConn(conn) {
		conn.Close()
		return
	}
	defer c.untrackConn(conn)
	timer := time.AfterFunc(transport.HelloTimeout, func() { conn.Close() })
	raw, err := conn.Recv()
	if !timer.Stop() {
		c.cfg.Logf("controller: no hello within %v", transport.HelloTimeout)
		if err == nil {
			proto.PutBuf(raw) // raced the timer, which closed conn
		}
		return
	}
	if err != nil {
		conn.Close()
		return
	}
	var evs []cevent
	s := &source{c: c, conn: conn, evs: &evs}
	msg := s.hello(raw)
	if msg == nil {
		return
	}
	if _, ok := msg.(*proto.GatewayHello); ok {
		c.serveGateway(conn)
		return
	}
	if !s.open(msg) {
		conn.Close()
		return
	}
	for {
		raw, err := conn.Recv()
		if err != nil {
			s.Closed(err)
			return
		}
		if !s.post(raw) {
			return
		}
	}
}

// hello checks a connection's first frame: one message a connection of
// its kind may open with. A driver may register or reattach on either
// kind; a worker, a standby or a gateway only on a dedicated connection.
// Anything else closes the connection and returns nil.
func (s *source) hello(raw []byte) proto.Msg {
	msg, err := proto.Unmarshal(raw)
	proto.PutBuf(raw)
	if err != nil {
		s.c.cfg.Logf("controller: bad handshake: %v", err)
		s.conn.Close()
		return nil
	}
	ok := false
	switch msg.(type) {
	case *proto.RegisterDriver, *proto.DriverReattach:
		ok, s.drv = true, true
	case *proto.RegisterWorker, *proto.ReplAttach, *proto.GatewayHello:
		ok = !s.session
	}
	if !ok {
		s.c.cfg.Logf("controller: unexpected handshake message %s", msg.Kind())
		s.conn.Close()
		return nil
	}
	return msg
}

// open posts a checked hello; false means the loop has stopped.
func (s *source) open(msg proto.Msg) bool {
	return s.c.mbox.Put(cevent{kind: cevMsg, msg: msg, src: s, at: time.Now()})
}

// post decodes one frame, posts its messages as one PutAll and recycles
// the frame. It reports false once the loop has stopped.
func (s *source) post(raw []byte) bool {
	evs := *s.evs
	err := proto.ForEachMsg(raw, func(msg proto.Msg) error {
		evs = append(evs, cevent{kind: cevMsg, msg: msg, src: s})
		return nil
	})
	proto.PutBuf(raw)
	if err != nil {
		s.c.cfg.Logf("controller: bad message: %v", err)
	}
	ok := s.c.mbox.PutAll(evs)
	clear(evs) // the scratch pins no message between frames
	*s.evs = evs[:0]
	return ok
}

// Frame implements transport.SessionSink: a session's first frame is its
// hello, which makes it a driver's or closes it, and the rest are posted
// as a dedicated connection's are.
func (s *source) Frame(raw []byte) {
	if s.drv {
		s.post(raw)
	} else if msg := s.hello(raw); msg != nil {
		s.open(msg)
	}
}

// Closed implements transport.SessionSink, and ends a dedicated
// connection's reader: the loop learns the connection is gone.
func (s *source) Closed(err error) {
	s.c.mbox.Put(cevent{kind: cevConnClosed, src: s, rerr: err})
}

// serveGateway serves one gateway connection until it fails. Its reader
// feeds each session's source, so a session costs no goroutine, and a lost
// gateway ends each session like a dropped dedicated connection.
func (c *Controller) serveGateway(conn transport.Conn) {
	var evs []cevent
	g := transport.NewMuxServer(conn, func(s transport.Conn) transport.SessionSink {
		return &source{c: c, conn: s, session: true, evs: &evs}
	})
	c.connMu.Lock()
	c.gateways[g] = struct{}{}
	c.connMu.Unlock()
	err := g.Serve()
	c.connMu.Lock()
	delete(c.gateways, g)
	c.connMu.Unlock()
	if !c.stopping() {
		c.cfg.Logf("controller: gateway connection lost: %v", err)
	}
}

// run is the event loop: per wakeup it takes everything posted, handles it
// in order, then checks drains and flushes once for the whole run.
func (c *Controller) run() {
	defer c.wg.Done()
	var run []cevent
	for {
		if run = c.mbox.Take(run, true); len(run) == 0 {
			return
		}
		c.Stats.LoopWakeups.Add(1)
		c.Stats.LoopEvents.Add(uint64(len(run)))
		for i := range run {
			c.handle(&run[i])
			run[i] = cevent{} // a handled slot pins no payload
		}
		if len(c.draining) != 0 {
			c.checkDrains()
		}
		// Everything the run staged goes out as one frame per worker
		// before the next run is taken.
		c.flushSends()
	}
}

// handle applies one event, then the work its handler deferred. Once the
// controller is stopping only Do's run, so no caller waits forever.
func (c *Controller) handle(ev *cevent) {
	switch {
	case ev.kind == cevDo:
		ev.fn()
	case c.stopping():
		return
	case ev.kind == cevMsg:
		c.handleMsg(ev)
	case ev.kind == cevConnClosed:
		c.handleClosed(ev)
	case ev.kind == cevTick:
		c.checkHeartbeats()
		c.checkTakeoverEviction()
		c.checkReattachDeadline()
	}
	for len(c.after) > 0 {
		fn := c.after[0]
		c.after = c.after[1:]
		fn()
	}
}

func (c *Controller) handleMsg(ev *cevent) {
	// Worker-originated and registration messages route themselves; every
	// driver operation resolves its job from the connection that carried
	// it. A nil job means the job was torn down while the message was in
	// flight — drop it.
	switch m := ev.msg.(type) {
	case *proto.RegisterWorker:
		c.registerWorker(m, ev.src)
		return
	case *proto.FleetWarmAck:
		c.fleetWarmAck(m)
		return
	case *proto.RegisterDriver:
		c.registerDriver(m, ev.src, ev.at)
		return
	case *proto.ReplAttach:
		c.handleReplAttach(ev.src.conn)
		return
	case *proto.ReplAck:
		c.handleReplAck(m)
		return
	case *proto.DriverReattach:
		c.reattachDriver(m, ev.src)
		return
	case *proto.Complete:
		if j := c.jobs[m.Job]; j != nil {
			c.handleComplete(j, m)
		}
		return
	case *proto.BlockDone:
		if j := c.jobs[m.Job]; j != nil {
			c.handleBlockDone(j, m)
		}
		return
	case *proto.Heartbeat:
		if ws := c.workers[m.Worker]; ws != nil {
			ws.lastBeat = time.Now()
			ws.pending = m.Pending
		}
		return
	case *proto.ObjectData:
		c.handleObjectData(m)
		return
	case *proto.DataChunk:
		c.handleFetchChunk(m)
		return
	case *proto.HaltAck:
		if j := c.jobs[m.Job]; j != nil {
			c.handleHaltAck(j, m)
		}
		return
	case *proto.SaveFailed:
		if j := c.jobs[m.Job]; j != nil {
			c.handleSaveFailed(j, m)
		}
		return
	case *proto.ErrorMsg:
		c.cfg.Logf("controller: error from %s: %s", ev.src.from, m.Text)
		return
	}

	j := c.jobs[ev.src.job]
	if j == nil {
		c.cfg.Logf("controller: %s for unknown %s dropped", ev.msg.Kind(), ev.src.job)
		return
	}
	switch m := ev.msg.(type) {
	// Driver operations that mutate execution state go through the job's
	// build fence: while one of its off-loop template builds is in flight
	// they queue in arrival order so driver program order is preserved.
	// Gets, barriers and checkpoints stay un-fenced — they park on the
	// job's quiescence, which counts in-flight builds and queued
	// operations.
	case *proto.DefineVariable, *proto.Put, *proto.SubmitStage,
		*proto.TemplateStart, *proto.TemplateEnd, *proto.InstantiateBlock,
		*proto.InstantiateWhile:
		c.driverOp(j, m)
	case *proto.Get:
		c.handleGet(j, m)
	case *proto.Barrier:
		c.handleBarrier(j, m)
	case *proto.CheckpointReq:
		c.handleCheckpointReq(j, m)
	case *proto.JobEnd:
		c.endJob(j, "driver ended job")
	case *proto.Shutdown:
		// Graceful driver exit; equivalent to JobEnd.
		c.endJob(j, "driver shutdown")
	default:
		c.cfg.Logf("controller: unexpected message %s", ev.msg.Kind())
	}
}

// registerWorker is the controller half of every worker hello. A worker
// presenting a prior ID (back after a controller switch or a dropped
// connection) keeps it: the ID is its data-plane identity, the one peers
// address it by. A fresh worker gets the next ID. The ack goes at the head of this
// turn's frame to the worker. A worker registering while a job is live
// takes the warm round first (fleet.go); every other worker enters the
// active set in this turn. Every live job recovered (or, after a takeover,
// was restored) without a worker back under its prior ID, so what that
// worker still holds of a job is stale: the job is ended there, and the
// warm round starts it afresh.
func (c *Controller) registerWorker(m *proto.RegisterWorker, src *source) {
	conn := src.conn
	id := m.Worker
	if id == ids.NoWorker {
		c.nextWorker++
		id = c.nextWorker
	} else if ws := c.workers[id]; ws != nil && ws.alive {
		c.cfg.Logf("controller: reconnect for live %s rejected", id)
		conn.Close()
		return
	} else if id > c.nextWorker {
		c.nextWorker = id
	}
	ws := &workerState{
		id: id, conn: conn, dataAddr: m.DataAddr,
		slots: m.Slots, alive: true, lastBeat: time.Now(),
	}
	c.workers[id] = ws
	src.from = id
	c.sendWorker(ws, &proto.RegisterWorkerAck{Worker: id, Peers: c.peerMap(), Eager: c.cfg.Mode == ModeCentral})
	// Jobs parked behind a takeover have no placement yet: the worker is
	// part of the roster they will be recovered onto, not a join.
	if len(c.jobs) > 0 && !c.takeoverWait {
		if m.Worker != ids.NoWorker {
			for _, j := range c.jobList() {
				c.sendWorker(ws, &proto.JobEnd{Job: j.id})
			}
		}
		ws.phase = phaseWarming
		ws.warm = &warmState{start: time.Now()}
		c.planWarm(ws)
		return
	}
	c.activateWorker(ws)
	delete(c.expectRejoin, id)
	c.maybeStartTakeover()
}

// activateWorker is the one place a worker enters the active set and the
// job ledgers. Its peers learn its address and it learns every job's quota;
// only the newcomer is told, since shares are per-worker (slots × weight /
// totalWeight) and a join changes no one else's. FleetReady rides in the
// same frame as whatever activated the worker.
func (c *Controller) activateWorker(ws *workerState) {
	ws.phase = phaseActive
	c.active = append(c.active, ws.id)
	sort.Slice(c.active, func(i, j int) bool { return c.active[i] < c.active[j] })
	for _, j := range c.jobs {
		j.ledgers[ws.id] = flow.NewLedger(ws.id)
	}
	c.refreshPeers(ws.id)
	c.sendQuotas(ws)
	c.sendWorker(ws, &proto.FleetReady{Worker: ws.id})
}

// peerMap is the data-plane address of every worker a peer may still
// address: alive and not decommissioned.
func (c *Controller) peerMap() map[ids.WorkerID]string {
	peers := make(map[ids.WorkerID]string, len(c.workers))
	for id, ws := range c.workers {
		if ws.alive && ws.phase != phaseDecommissioned {
			peers[id] = ws.dataAddr
		}
	}
	return peers
}

// refreshPeers sends the current peer map to every worker in it but except
// (the worker whose arrival or departure changed the map, which is told in
// its own way), as a RegisterWorkerAck echoing the recipient's ID.
func (c *Controller) refreshPeers(except ids.WorkerID) {
	peers := c.peerMap()
	for id := range peers {
		if id != except {
			c.sendWorker(c.workers[id], &proto.RegisterWorkerAck{
				Worker: id, Peers: peers, Eager: c.cfg.Mode == ModeCentral,
			})
		}
	}
}

// endJob tears one job down: worker-side namespaces are dropped, in-flight
// builds are orphaned (their commits see dead and drop), fetches for the
// job will no longer resolve, and slot quotas rebalance over the
// survivors. Only this job's state is touched — that containment is the
// tenancy contract.
func (c *Controller) endJob(j *jobState, reason string) {
	if j.dead {
		return
	}
	j.dead = true
	delete(c.jobs, j.id)
	c.totalWeight -= j.weight
	c.dropJobTenant(j)
	c.Stats.JobsEnded.Add(1)
	c.replJobEnd(j)
	c.cfg.Logf("controller: %s ended (%s): %d templates, %d outstanding dropped",
		j.id, reason, len(j.templates), len(j.outstanding))
	for _, ws := range c.workers {
		if ws.alive {
			c.sendWorker(ws, &proto.JobEnd{Job: j.id})
		}
	}
	// Drop the job's in-flight fetches: no driver is left to receive the
	// results, and if the fetch's worker dies the echo never comes — the
	// entries would otherwise sit in the global table forever.
	for seq, pf := range c.fetches {
		if pf.job == j.id {
			delete(c.fetches, seq)
			delete(c.chunkRx, seq)
		}
	}
	if j.conn != nil {
		c.closeDriver(j.conn)
	}
	// A freed job slot admits the head of the bounded admission queue.
	c.drainAdmissions()
}

// rebalanceSlots marks every tenant's fair-share quotas dirty; the
// end-of-run flushQuotas recomputes and pushes only the (tenant, job
// weight) classes whose share actually moved. The worker-side dispatcher
// is work-conserving, so slots a tenant leaves idle are still usable by
// others.
func (c *Controller) rebalanceSlots() {
	if len(c.jobs) == 0 {
		return
	}
	c.allTenantsDirty = true
}

// sendQuotas pushes every admitted job's fair-share quota to one worker —
// the full seed a joining (or reconnecting) worker needs — and primes its
// per-class quota cache for the diffed flush.
func (c *Controller) sendQuotas(ws *workerState) {
	if ws.quotaSent == nil {
		ws.quotaSent = make(map[tenantClass]int)
	} else {
		clear(ws.quotaSent)
	}
	for _, t := range c.tenants {
		for weight, jobs := range t.classes {
			if len(jobs) == 0 {
				continue
			}
			s := c.classShare(ws, t, weight)
			ws.quotaSent[tenantClass{t.name, weight}] = s
			for j := range jobs {
				c.sendWorker(ws, &proto.JobQuota{Job: j.id, Slots: s})
			}
		}
	}
}

// sendWorker stages m for ws. Messages staged while handling one run are
// coalesced into a single transport frame at the end-of-run flush, so an
// InstantiateBlock fan-out (install + patch + instantiate per worker) costs
// one frame — one syscall on TCP — per worker. The staged message must not
// be mutated afterwards.
func (c *Controller) sendWorker(ws *workerState, m proto.Msg) {
	if ws == nil || !ws.alive {
		return
	}
	if len(ws.outq) == 0 {
		c.dirty = append(c.dirty, ws)
	}
	ws.outq = append(ws.outq, m)
	c.Stats.MsgsToWorkers.Add(1)
}

// parallelFlushMin is the dirty-worker count at which flushSends fans the
// per-worker frame encodes out to goroutines. Below it the goroutine
// handoff costs more than the encodes.
const parallelFlushMin = 4

// flushSends encodes and sends one frame per dirty worker. It runs on the
// event loop after every run (and explicitly in Stop, before connections
// close). Wide fan-outs encode in parallel: per-worker frames touch
// disjoint state, so only the shared Stats counters (atomics) and the pools
// (sync.Pool) are contended.
func (c *Controller) flushSends() {
	// Fair-share quota diffs stage worker messages, so they flush first.
	// Driver connections flush independently: all the sessions of one
	// gateway share its stage, so the first Flush writes their one frame
	// and the rest find nothing staged.
	c.flushQuotas()
	for i, conn := range c.dirtyDrv {
		c.flushDriver(conn)
		c.dirtyDrv[i] = nil
	}
	c.dirtyDrv = c.dirtyDrv[:0]
	if len(c.dirty) == 0 {
		return
	}
	dirty := c.dirty
	c.dirty = c.dirty[:0]
	if len(dirty) < parallelFlushMin {
		for _, ws := range dirty {
			c.flushWorker(ws)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(dirty))
	for _, ws := range dirty {
		go func(ws *workerState) {
			defer wg.Done()
			c.flushWorker(ws)
		}(ws)
	}
	wg.Wait()
}

// flushWorker packs ws's staged messages into one frame and sends it,
// transferring the pooled buffer to the transport when it can take
// ownership (Mem) and recycling it otherwise (TCP).
func (c *Controller) flushWorker(ws *workerState) {
	msgs := ws.outq
	if len(msgs) == 0 {
		return
	}
	defer func() {
		for i := range msgs {
			msgs[i] = nil
		}
		ws.outq = msgs[:0]
	}()
	if !ws.alive {
		return
	}
	buf := proto.GetBuf()
	buf = proto.AppendBatch(buf, msgs)
	c.Stats.FramesToWorkers.Add(1)
	c.Stats.BytesToWorkers.Add(uint64(len(buf)))
	owned, err := transport.SendOwned(ws.conn, buf)
	if err != nil {
		c.cfg.Logf("controller: send to %s failed: %v", ws.id, err)
	}
	if !owned {
		proto.PutBuf(buf)
	}
}

// sendDriver stages m for j's driver; the end-of-run flush writes it.
// A nil conn is a promoted job whose driver has not reattached yet: the
// message is dropped, and the driver's reattach reconciliation (journal
// resend + re-issued requests) recreates anything it missed.
func (c *Controller) sendDriver(j *jobState, m proto.Msg) {
	if j == nil || j.dead || j.conn == nil {
		return
	}
	c.sendConn(j.conn, m)
}

// sendConn stages m on a driver connection and marks it for the
// end-of-run flush. A connection without a stage sends at once.
func (c *Controller) sendConn(conn transport.Conn, m proto.Msg) {
	buf := proto.MarshalAppend(proto.GetBuf(), m)
	owned, err := transport.SendBuffered(conn, buf)
	if !owned {
		proto.PutBuf(buf)
	}
	if err != nil {
		c.cfg.Logf("controller: send to driver failed: %v", err)
	}
	c.markDriverDirty(conn)
}

// markDriverDirty lists conn for the end-of-run flush, once per run of
// sends to it.
func (c *Controller) markDriverDirty(conn transport.Conn) {
	if n := len(c.dirtyDrv); n == 0 || c.dirtyDrv[n-1] != conn {
		c.dirtyDrv = append(c.dirtyDrv, conn)
	}
}

// flushDriver writes out what is staged on a driver connection.
func (c *Controller) flushDriver(conn transport.Conn) {
	if err := transport.Flush(conn); err != nil && !errors.Is(err, transport.ErrClosed) {
		c.cfg.Logf("controller: flush to driver failed: %v", err)
	}
}

// closeDriver closes a driver connection after writing out what is staged
// on it. Closing a gateway session stages a SessionClose in turn, which
// the end-of-run flush writes.
func (c *Controller) closeDriver(conn transport.Conn) {
	c.flushDriver(conn)
	conn.Close()
	c.markDriverDirty(conn)
}

func (c *Controller) handleClosed(ev *cevent) {
	src := ev.src
	if c.repl != nil && src.conn == c.repl.conn {
		c.standbyLost(ev.rerr)
		return
	}
	if src.drv {
		// Only the job's current connection may end it: a reattach closes
		// the stale connection, whose end must not tear the job down. A
		// connection closing before admission drops its queue entry.
		if j := c.jobs[src.job]; j != nil && src.conn == j.conn {
			c.endJob(j, "driver disconnected")
		} else {
			c.dropQueued(src)
		}
		return
	}
	ws := c.workers[src.from]
	if ws == nil || !ws.alive || c.fleetWorkerGone(ws) {
		return
	}
	c.cfg.Logf("controller: worker %s connection lost: %v", src.from, ev.rerr)
	c.failWorker(src.from)
}

func (c *Controller) checkHeartbeats() {
	if c.cfg.HeartbeatTimeout <= 0 {
		return
	}
	cutoff := time.Now().Add(-c.cfg.HeartbeatTimeout)
	for id, ws := range c.workers {
		if ws.alive && ws.lastBeat.Before(cutoff) {
			if c.fleetWorkerGone(ws) {
				continue
			}
			c.cfg.Logf("controller: worker %s missed heartbeats", id)
			c.failWorker(id)
		}
	}
}

// ActiveWorkers returns the active worker IDs (call via Do).
func (c *Controller) ActiveWorkers() []ids.WorkerID {
	return append([]ids.WorkerID(nil), c.active...)
}

// WorkerCount returns the number of active workers (call via Do).
func (c *Controller) WorkerCount() int { return len(c.active) }

// Jobs returns the admitted job IDs in ascending order (call via Do).
func (c *Controller) Jobs() []ids.JobID {
	out := make([]ids.JobID, 0, len(c.jobs))
	for id := range c.jobs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// jobList returns admitted jobs in ID order (deterministic iteration for
// multi-job operations).
func (c *Controller) jobList() []*jobState {
	out := make([]*jobState, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

// soleJob returns the only admitted job, or nil when zero or several are
// admitted (single-tenant compatibility APIs use it).
func (c *Controller) soleJob() *jobState {
	if len(c.jobs) != 1 {
		return nil
	}
	for _, j := range c.jobs {
		return j
	}
	return nil
}
