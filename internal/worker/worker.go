// Package worker implements the Nimbus worker node.
//
// A worker satisfies the control-plane requirements of paper §3.1:
//
//  1. It maintains a queue of commands and determines locally when they
//     are runnable, by resolving before sets against its own completion
//     set — no round trips to the controller.
//  2. It exchanges data directly with peer workers over the data plane,
//     using the explicit routing carried by copy commands.
//  3. It executes fine-grained tasks through a slot-limited executor pool.
//
// The worker is multi-tenant: it serves every job admitted by the
// controller from one executor pool. All mutable scheduling state —
// installed templates and patches, in-flight arenas, completion records,
// buffered payloads, barrier arrival counters and the datastore — lives in
// a per-job namespace (jstate), so two jobs can install same-named
// templates, reuse the same per-job command and object IDs, and a
// job-scoped halt (one job's recovery) never flushes another job's
// in-flight arenas. The executor pool is shared, with per-job slot quotas
// assigned by the controller's fair-share allocator and enforced by a
// round-robin dispatcher, so one hot tenant cannot starve the rest.
//
// The worker also caches worker templates and patches: an
// InstantiateTemplate message materializes thousands of commands from the
// cached structure with a single base ID and a parameter array
// (paper §4.1), applying any attached edits first (paper §4.3).
//
// Instantiation runs on a compiled fast path (DESIGN.md "Worker
// instantiation fast path"): templates are compiled to a dense immutable
// form at install/edit time, instances are materialized into pooled arenas
// of inline command slots, intra-instance dependencies are wired by array
// index, and barrier accounting uses prefix arrival counters — the
// steady-state path performs no per-command allocation and no map inserts.
//
// All mutable state is confined to a single event loop goroutine. Executors,
// connection pumps and timers post events to its mailbox (internal/loop), and
// the loop handles everything posted while it was busy as one run per
// wakeup. Tasks run on cfg.Slots persistent executor goroutines fed from one
// work queue: a loop turn hands the tasks it started over under one lock, and
// no goroutine is created per task (DESIGN.md "Wakeup budget").
package worker

import (
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/datastore"
	"nimbus/internal/durable"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/loop"
	"nimbus/internal/proto"
	"nimbus/internal/stream"
	"nimbus/internal/transport"
)

// Config configures a worker.
type Config struct {
	// ControlAddr is the controller's control-plane address.
	ControlAddr string
	// DataAddr is this worker's data-plane listen address.
	DataAddr string
	// Transport connects the control and data planes.
	Transport transport.Transport
	// Slots is the executor concurrency (paper testbed: 8 cores). Zero
	// defaults to 8.
	Slots int
	// Registry resolves task functions. Nil defaults to the built-ins.
	Registry *fn.Registry
	// Durable backs checkpoint save/load commands.
	Durable durable.Store
	// HeartbeatEvery is the heartbeat period (zero disables heartbeats;
	// the controller then relies on connection liveness).
	HeartbeatEvery time.Duration
	// ChunkSize is the data-plane transfer chunk size in bytes; payloads
	// larger than one chunk stream as credit-controlled DataChunk runs.
	// Zero defaults to stream.DefaultChunkSize (256 KiB).
	ChunkSize int
	// PeerQueueBytes bounds each outbound peer queue. A CopySend into a
	// full queue parks (no copy held) until the writer drains. Zero
	// defaults to 32 MiB.
	PeerQueueBytes int64
	// RecvBudget bounds the worker's total in-flight receive reassembly
	// memory; transfers past it spill to disk. Zero defaults to 64 MiB.
	RecvBudget int64
	// SpillDir is where receive-side spill files live. Empty means a
	// private temp directory, removed at Stop.
	SpillDir string
	// Logf receives diagnostics. Nil defaults to log.Printf.
	Logf func(format string, args ...any)
}

// Stats exposes worker counters (read with atomic loads).
type Stats struct {
	TasksRun       atomic.Uint64
	CopiesSent     atomic.Uint64
	CopiesRecv     atomic.Uint64
	CommandsDone   atomic.Uint64
	TemplatesSeen  atomic.Uint64
	Instantiations atomic.Uint64
	EditsApplied   atomic.Uint64
	PatchesRun     atomic.Uint64
	// JobsEnded counts job namespaces dropped by JobEnd teardown.
	JobsEnded atomic.Uint64
	// QuotaDeferrals counts dispatch decisions that skipped a job with
	// runnable tasks, while free executor slots existed, because the
	// job's quota was exhausted — the fairness mechanism visibly doing
	// its work.
	QuotaDeferrals atomic.Uint64

	// InstallNanos / InstantiateNanos accumulate worker-side time in
	// template install and instantiation (paper Tables 1-2).
	InstallNanos     atomic.Uint64
	InstantiateNanos atomic.Uint64

	// InstantiateCmds counts commands materialized through the compiled
	// fast path; InstantiateNanos/InstantiateCmds is the per-command
	// instantiation cost cmd/nimbus-bench reports.
	InstantiateCmds atomic.Uint64
	// Activations counts units admitted into execution (template
	// instances, patches and spawned batches). Failover tests use it to
	// confirm the worker made progress before — and during — an outage.
	Activations atomic.Uint64
	// Outage counters. OutageDone counts commands completed while the
	// control connection was down (last-known-good autonomy);
	// Reconnects counts successful control-plane reattachments;
	// BufferedReports / ReplayedReports / DroppedReports account the
	// outage buffer of control frames (completions, block-dones, fetch
	// echoes) replayed on reconnect.
	OutageDone      atomic.Uint64
	Reconnects      atomic.Uint64
	BufferedReports atomic.Uint64
	ReplayedReports atomic.Uint64
	DroppedReports  atomic.Uint64
	// Data-plane counters. PeerSendDrops counts payloads dropped on the
	// floor (no peer address, a dead queue, or payloads staged on or
	// consumed by a connection that failed); ParkedSends counts CopySends
	// that waited for queue space; PeerRedials counts data-plane reconnects.
	// PeerFrames counts the frames peer writers handed to a connection for
	// small copies — one per run; chunk frames are ChunksSent — so
	// CopiesSent/PeerFrames is the run length. PeerFlushes counts the
	// flushes peer writers issued for staged frames (one write each on TCP,
	// nothing on Mem, none on a connection without a stage), so
	// PeerFrames/PeerFlushes is the frames per write. ChunksSent /
	// ChunksRecv / XfersSent / XfersRecv account the chunked path, Spills
	// / SpilledBytes the receive-side disk overflow, and RxAborts the
	// transfers refused for protocol violations.
	PeerSendDrops atomic.Uint64
	ParkedSends   atomic.Uint64
	PeerRedials   atomic.Uint64
	PeerFrames    atomic.Uint64
	PeerFlushes   atomic.Uint64
	ChunksSent    atomic.Uint64
	ChunksRecv    atomic.Uint64
	XfersSent     atomic.Uint64
	XfersRecv     atomic.Uint64
	Spills        atomic.Uint64
	SpilledBytes  atomic.Uint64
	RxAborts      atomic.Uint64
	// TemplateCompiles / CompileNanos account (re)compilations of
	// installed templates into their dense immutable form (once per
	// install or edit batch, never in steady state).
	TemplateCompiles atomic.Uint64
	CompileNanos     atomic.Uint64
	// UnitsReused counts instantiations served from the arena pool
	// (steady state: every instantiation after the first few).
	UnitsReused atomic.Uint64
	// LoopWakeups counts event-loop turns (one mailbox take each) and
	// LoopEvents the events they handled, so LoopEvents/LoopWakeups is the
	// run length — as CopiesSent/PeerFrames is for peer frames.
	LoopWakeups atomic.Uint64
	LoopEvents  atomic.Uint64
}

// mailboxCap bounds the events waiting for the loop. Producers block at the
// bound — that is the data pumps' back-pressure.
const mailboxCap = 1024

// Worker is one Nimbus worker node.
type Worker struct {
	cfg   Config
	id    ids.WorkerID
	eager bool

	ctrl transport.Conn
	// mbox is where every other goroutine posts events for the loop; stopped
	// closes (and mbox with it) when the loop finishes.
	mbox    *loop.Mailbox[event]
	stopped chan struct{}
	stopErr error
	wg      sync.WaitGroup

	reg     *fn.Registry
	durable durable.Store

	// Per-job namespaces. The event loop is the only writer; jobsMu
	// exists so accessors (Store, tests) can read the map from other
	// goroutines. jobList mirrors the map for the round-robin dispatcher
	// and is event-loop confined.
	jobsMu  sync.RWMutex
	jobs    map[ids.JobID]*jstate
	jobList []*jstate
	rr      int
	// deadJobs tombstones ended jobs (the controller never reuses a
	// JobID). Control-channel messages are FIFO behind the JobEnd, so
	// only the independent data plane can race teardown: a late payload
	// for a tombstoned job is dropped instead of resurrecting an empty
	// namespace that nothing would ever tear down again.
	deadJobs map[ids.JobID]struct{}

	// Shared executor accounting: freeSlots counts unoccupied executor
	// slots across all jobs; per-job concurrency is additionally bounded
	// by each jstate's quota. started collects the tasks dispatch claimed
	// slots for during the current loop turn; handOff moves them to work,
	// the executors' queue, at the end of the turn.
	freeSlots int
	started   []*pcmd
	work      *workQueue
	// hand is the run nextEvent is handing out one event at a time, for
	// callers that drive the scheduler in place of run (BenchLoop, tests).
	hand    []event
	handPos int

	// unitPool recycles instance arenas (units and their pcmd slots)
	// across jobs. Event-loop confined: units are only acquired and
	// released there.
	unitPool []*unit

	peers     map[ids.WorkerID]string
	peerConns map[ids.WorkerID]*peerConn
	// dataAddr is the data-plane address announced to the controller; set
	// once in Start, before any goroutine that reads it.
	dataAddr string

	// Streaming data-plane configuration (resolved defaults) and state.
	// xferSeq allocates transfer IDs (event-loop confined — sendPeer and
	// fetchObject both run there); rxBytes is the shared in-flight
	// reassembly budget the receive pumps account against.
	chunkSize      int
	peerQueueBytes int64
	recvBudget     int64
	spill          *datastore.SpillFS
	spillOwned     bool
	spillClean     sync.Once
	xferSeq        uint64
	rxBytes        atomic.Int64

	// dataMu guards dataConns, the accepted inbound data-plane
	// connections, closed at shutdown so their pumps exit. dataClosed
	// marks that teardown already swept the list: a conn the accept loop
	// raced past the sweep must be closed by the acceptor itself, or its
	// pump outlives Stop.
	dataMu     sync.Mutex
	dataConns  []transport.Conn
	dataClosed bool

	// bdMsg and dpMsg are the reused BlockDone and DataPayload scratch
	// messages (event-loop confined; sendCtrl and sendPeer marshal
	// synchronously).
	bdMsg proto.BlockDone
	dpMsg proto.DataPayload

	// Outage state (event-loop confined). While the control connection is
	// down the worker keeps draining its installed work autonomously:
	// outage gates sendCtrl into the bounded outbuf of marshaled frames,
	// replayed in order once the reconnect loop reattaches — to the same
	// controller after a transient drop, or to a promoted standby.
	outage bool
	outbuf [][]byte

	// Fleet lifecycle. drainFlag marks a FleetDrain received — in-flight
	// work keeps executing, and a reconnect after failover clears it
	// (drain-abort). readyCh closes at the first FleetReady, when the worker
	// enters the active set. Both are observable off the event loop by
	// tests.
	drainFlag atomic.Bool
	readyCh   chan struct{}
	readyOnce sync.Once

	// Stats is exported for tests and metrics.
	Stats Stats
}

// jstate is one job's namespace on the worker. Everything the scheduler
// mutates on behalf of a job lives here, so job teardown is a map delete
// and a job-scoped halt touches nothing outside it.
//
// Completion tracking is split by command provenance. Non-template
// commands record completions in the done map. Template and patch
// instance commands never touch the maps: while an instance is in flight
// its completion state lives in the arena (liveUnits); once it finishes,
// the whole instance is summarized as one doneRange, and the job's
// watermark eventually retires the range. waiters holds only cross-unit
// and non-template dependents — intra-instance edges are wired through
// the compiled template's index lists.
type jstate struct {
	id    ids.JobID
	store *datastore.Store

	waiters    map[ids.CommandID][]*pcmd
	done       map[ids.CommandID]struct{}
	doneLow    ids.CommandID
	doneRanges []doneRange
	liveUnits  []*unit
	payloads   map[ids.CommandID]inPayload
	payWait    map[ids.CommandID]*pcmd
	units      []*unit // queued barrier units awaiting activation, FIFO
	unfin      int     // activated, unfinished commands
	runnable   pcmdRing
	haltEpoch  uint64
	halted     bool

	// Prefix arrival counters (barrier accounting), per job so one job's
	// barrier never waits on — and one job's halt never discards — another
	// job's arrivals. Every admitted command takes the job's next arrival
	// index; arrRing marks completed indexes and arrLow is the low
	// watermark: every command with index < arrLow is done. A queued
	// barrier unit stores the arrival prefix it must outwait (mark); it
	// activates exactly when arrLow reaches its mark — O(1) amortized per
	// completion.
	cmdArrived uint64
	arrLow     uint64
	arrRing    []bool // power-of-two capacity, indexed by arrival index

	templates map[ids.TemplateID]*wtemplate
	patches   map[ids.PatchID]*command.CompiledTemplate

	completions []ids.CommandID

	// quota is the job's executor-slot share (fair-share assigned by the
	// controller; defaults to the full slot count until a JobQuota
	// arrives). Atomic only so QuotaOf can read it off-loop; all writes
	// happen on the event loop. running counts the job's tasks currently
	// on executors.
	quota   atomic.Int32
	running int
	// haltAck is the ack of the job's latest halt, held until the job's
	// flushed tasks have left the executors (finishHalt).
	haltAck *proto.HaltAck
}

// doneRange summarizes one completed template/patch instance: command id
// is done iff id-base indexes a real entry of the compilation the instance
// ran with. Compilations are immutable, so edits applied after the
// instance completed cannot disturb the record.
type doneRange struct {
	base ids.CommandID
	ct   *command.CompiledTemplate
}

// pcmd is a command in flight on the worker. The command itself is stored
// inline — template instantiation materializes directly into the slot, so
// the steady-state path allocates neither Command nor pcmd.
type pcmd struct {
	cmd    command.Command
	arrIdx uint64 // job-local arrival index (barrier accounting)
	epoch  uint64
	unit   *unit
	// local is the command's position in unit.ct.Entries, or -1 for
	// non-template commands.
	local   int32
	missing int32
	state   uint8
}

// pcmd states. A pcmd participates in dependency accounting only while
// active; completions observed before a sibling activates are seen through
// the psDone state instead of a waiter registration.
const (
	psInit uint8 = iota
	psActive
	psDone
)

// unit groups commands that entered together: a template or patch
// instance (ct != nil, arena-backed and pooled) or a spawned batch. Every
// unit belongs to exactly one job (js). Barrier units activate only after
// every command of the same job that arrived before them completes.
type unit struct {
	js        *jstate
	barrier   bool
	instance  uint64 // template instance ID for BlockDone (0 otherwise)
	mark      uint64 // arrival prefix this barrier unit must outwait
	base      ids.CommandID
	ct        *command.CompiledTemplate
	pcs       []pcmd
	remaining int
	activated bool
}

// inPayload is one received object body awaiting its CopyRecv: either an
// in-memory payload, or a spilled one whose bytes wait on disk.
type inPayload struct {
	msg   *proto.DataPayload
	spill *datastore.Spilled
}

type event struct {
	kind eventKind
	msg  proto.Msg
	// msgs carries a reconnect's handshake reply (evReconn): the ack, then
	// whatever the controller batched behind it (quotas, halts, etc.).
	msgs []proto.Msg
	cmd  *pcmd
	err  error
	conn transport.Conn
	// pays is what one received data-plane frame delivered (evData): its
	// payloads and the transfers its chunks completed, in frame order.
	pays []inPayload
	// peer identifies the queue an evPeerSpace wakes parked sends on.
	peer *peerConn
}

type eventKind uint8

const (
	evCtrl eventKind = iota + 1
	evData
	evDone
	evTick
	evClosed
	evReconn
	evPeerSpace
)

// pcmdRing is a FIFO of pcmds — a job's runnable queue, the executors' work
// queue — as a growable power-of-two ring buffer.
// Slots are cleared on pop so a drained queue pins no completed pcmds
// (the old slice-pop-front retained the whole backing array).
type pcmdRing struct {
	buf  []*pcmd
	head int
	n    int
}

func (r *pcmdRing) push(pc *pcmd) {
	if r.n == len(r.buf) {
		size := len(r.buf) * 2
		if size == 0 {
			size = 64
		}
		buf := make([]*pcmd, size)
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf = buf
		r.head = 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = pc
	r.n++
}

func (r *pcmdRing) pop() *pcmd {
	pc := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return pc
}

func (r *pcmdRing) reset() {
	for i := range r.buf {
		r.buf[i] = nil
	}
	r.head, r.n = 0, 0
}

// New creates a worker; Start connects and runs it.
func New(cfg Config) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = 8
	}
	if cfg.Registry == nil {
		cfg.Registry = fn.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = stream.DefaultChunkSize
	}
	if cfg.PeerQueueBytes <= 0 {
		cfg.PeerQueueBytes = 32 << 20
	}
	if cfg.RecvBudget <= 0 {
		cfg.RecvBudget = 64 << 20
	}
	return &Worker{
		cfg:            cfg,
		mbox:           loop.New[event](mailboxCap),
		work:           newWorkQueue(),
		stopped:        make(chan struct{}),
		readyCh:        make(chan struct{}),
		reg:            cfg.Registry,
		durable:        cfg.Durable,
		jobs:           make(map[ids.JobID]*jstate),
		deadJobs:       make(map[ids.JobID]struct{}),
		freeSlots:      cfg.Slots,
		peers:          make(map[ids.WorkerID]string),
		peerConns:      make(map[ids.WorkerID]*peerConn),
		chunkSize:      cfg.ChunkSize,
		peerQueueBytes: cfg.PeerQueueBytes,
		recvBudget:     cfg.RecvBudget,
	}
}

// job returns the namespace for one job, creating it on first use (event
// loop only). A job the controller ended here and sends work for again — a
// worker back under its prior ID starts every live job afresh — loses its
// tombstone.
func (w *Worker) job(id ids.JobID) *jstate {
	if js, ok := w.jobs[id]; ok {
		return js
	}
	delete(w.deadJobs, id)
	js := &jstate{
		id:        id,
		store:     datastore.New(),
		waiters:   make(map[ids.CommandID][]*pcmd),
		done:      make(map[ids.CommandID]struct{}),
		payloads:  make(map[ids.CommandID]inPayload),
		payWait:   make(map[ids.CommandID]*pcmd),
		arrRing:   make([]bool, 1024),
		templates: make(map[ids.TemplateID]*wtemplate),
		patches:   make(map[ids.PatchID]*command.CompiledTemplate),
	}
	js.quota.Store(int32(w.cfg.Slots))
	w.jobsMu.Lock()
	w.jobs[id] = js
	w.jobsMu.Unlock()
	w.jobList = append(w.jobList, js)
	return js
}

// dropJob tears one job's namespace down (event loop only). In-flight
// executor tasks of the job drain through the stale-epoch path.
func (w *Worker) dropJob(id ids.JobID) {
	js, ok := w.jobs[id]
	if !ok {
		return
	}
	// The namespace is going away entirely; disk-backed state must not
	// outlive it. Undelivered spilled payloads (flush) and spilled store
	// objects (Clear) both hold files.
	w.flush(js)
	js.store.Clear()
	w.deadJobs[id] = struct{}{}
	// Bound the tombstone map under sustained job churn: JobIDs are
	// monotonic and a dead job's late payloads are in flight only
	// briefly, so tombstones far below the newest ended job can go. A
	// payload outliving this horizon would recreate a phantom namespace,
	// which is the lesser evil against unbounded growth.
	if len(w.deadJobs) > 4096 {
		for old := range w.deadJobs {
			if old+1024 < id {
				delete(w.deadJobs, old)
			}
		}
	}
	w.jobsMu.Lock()
	delete(w.jobs, id)
	w.jobsMu.Unlock()
	for i, j := range w.jobList {
		if j == js {
			w.jobList = append(w.jobList[:i], w.jobList[i+1:]...)
			break
		}
	}
	w.Stats.JobsEnded.Add(1)
}

// ID returns the controller-assigned worker ID (valid after Start).
func (w *Worker) ID() ids.WorkerID { return w.id }

// Spill exposes the worker's spill allocator (valid after Start); chaos
// tests arm its fault hook to reach the spill error paths.
func (w *Worker) Spill() *datastore.SpillFS { return w.spill }

// QuotaOf reports one job's assigned executor-slot quota on this worker
// (fair-share tests); zero if the job has no namespace here.
func (w *Worker) QuotaOf(job ids.JobID) int {
	w.jobsMu.RLock()
	defer w.jobsMu.RUnlock()
	if js, ok := w.jobs[job]; ok {
		return int(js.quota.Load())
	}
	return 0
}

// StoreOf exposes one job's object store (tests and Gets); nil if the job
// has no namespace on this worker.
func (w *Worker) StoreOf(job ids.JobID) *datastore.Store {
	w.jobsMu.RLock()
	defer w.jobsMu.RUnlock()
	if js, ok := w.jobs[job]; ok {
		return js.store
	}
	return nil
}

// Start connects to the controller, registers, and launches the event
// loop. It returns once the controller has admitted the worker; Ready
// closes once it is active, which is at once unless a live job warms it
// first.
func (w *Worker) Start() error {
	dir := w.cfg.SpillDir
	if dir == "" {
		d, err := os.MkdirTemp("", "nimbus-spill-")
		if err != nil {
			return fmt.Errorf("worker: spill dir: %w", err)
		}
		w.spillOwned = true
		dir = d
	}
	fs, err := datastore.NewSpillFS(dir)
	if err != nil {
		if w.spillOwned {
			os.RemoveAll(dir)
		}
		return err
	}
	w.spill = fs
	// Data plane first, so the address is live before the controller
	// distributes it.
	dl, err := w.cfg.Transport.Listen(w.cfg.DataAddr)
	if err != nil {
		w.removeSpillDir()
		return fmt.Errorf("worker: data listen: %w", err)
	}
	w.dataAddr = announcedAddr(w.cfg.DataAddr, dl.Addr())
	fail := func(err error) error {
		if w.ctrl != nil {
			w.ctrl.Close()
		}
		dl.Close()
		w.removeSpillDir()
		return err
	}
	// The controller may not be listening yet (or may be mid-failover):
	// retry with backoff for a bounded window instead of failing hard.
	ctrl, err := transport.DialRetry(w.cfg.Transport, w.cfg.ControlAddr, transport.Backoff{}, 0, transport.HelloTimeout, w.stopped)
	if err != nil {
		return fail(fmt.Errorf("worker: control dial: %w", err))
	}
	w.ctrl = ctrl
	reply, err := w.handshake(ctrl)
	if err != nil {
		return fail(fmt.Errorf("worker: register: %w", err))
	}
	w.adopt(reply[0].(*proto.RegisterWorkerAck))
	w.startExecutors()
	w.wg.Add(2)
	go w.acceptLoop(dl)
	go w.run(dl)
	// The rest of the reply goes into the live, draining event loop BEFORE
	// the control pump starts, preserving controller message order.
	for _, m := range reply[1:] {
		w.mbox.Put(event{kind: evCtrl, msg: m})
	}
	w.wg.Add(1)
	go w.ctrlPump(ctrl)
	if w.cfg.HeartbeatEvery > 0 {
		w.wg.Add(1)
		go w.heartbeatLoop()
	}
	return nil
}

// handshake is the worker half of every admission exchange: it sends the
// RegisterWorker hello on a fresh control connection — carrying the
// worker's ID, which is NoWorker until the first ack assigns one — and
// returns the decoded reply frame: the RegisterWorkerAck, then whatever
// the controller batched behind it (quotas, halts, installs, FleetWarm or
// FleetReady). An unanswered hello times out and a stopping worker ends
// it; either way, as on any error, conn is closed.
func (w *Worker) handshake(conn transport.Conn) ([]proto.Msg, error) {
	hello := &proto.RegisterWorker{Worker: w.id, DataAddr: w.dataAddr, Slots: w.cfg.Slots}
	reply, err := transport.Exchange(conn, hello, transport.HelloTimeout, w.stopped)
	if err != nil {
		return nil, err
	}
	if _, ok := reply[0].(*proto.RegisterWorkerAck); !ok {
		conn.Close()
		return nil, fmt.Errorf("worker: expected admission ack, got %s", reply[0].Kind())
	}
	return reply, nil
}

// adopt takes what an admission ack assigns: ID, peer map, reporting mode.
// The ID is set once, at the first admission — a reconnect is acked under
// the same ID, and leaving it unwritten keeps ID() safe to call off-loop.
func (w *Worker) adopt(ack *proto.RegisterWorkerAck) {
	if w.id == ids.NoWorker {
		w.id = ack.Worker
	}
	w.eager = ack.Eager
	for id, addr := range ack.Peers {
		w.peers[id] = addr
	}
}

// announcedAddr is the data-plane address a worker gives the controller to
// hand to its peers: the configured one, except that a configured port of 0
// (let the kernel pick) is replaced by the port the listener actually bound.
// The configured host is kept — the listener reports a resolved or wildcard
// IP, which is not what a peer on another machine should dial.
func announcedAddr(configured, bound string) string {
	host, port, err := net.SplitHostPort(configured)
	if err != nil || port != "0" {
		return configured
	}
	if _, port, err = net.SplitHostPort(bound); err != nil {
		return configured
	}
	return net.JoinHostPort(host, port)
}

// Ready is closed once the controller has entered this worker into the
// active set (its first FleetReady): in the turn that admitted it, or once
// a live job has warmed it.
func (w *Worker) Ready() <-chan struct{} { return w.readyCh }

// Stopped is closed once the worker has stopped.
func (w *Worker) Stopped() <-chan struct{} { return w.stopped }

// Draining reports whether a FleetDrain order is in effect.
func (w *Worker) Draining() bool { return w.drainFlag.Load() }

// Stop shuts the worker down and waits for its goroutines.
func (w *Worker) Stop() {
	w.mbox.Put(event{kind: evClosed})
	w.wg.Wait()
	w.removeSpillDir()
}

// Wait blocks until the worker stops (controller shutdown or error).
func (w *Worker) Wait() error {
	<-w.stopped
	w.wg.Wait()
	w.removeSpillDir()
	return w.stopErr
}

// removeSpillDir discards the worker's spill root if the worker created
// it (spill files are cache, not durability). Runs after wg.Wait so no
// pump is still writing into it.
func (w *Worker) removeSpillDir() {
	if !w.spillOwned || w.spill == nil {
		return
	}
	w.spillClean.Do(func() { os.RemoveAll(w.spill.Dir()) })
}

func (w *Worker) sendCtrl(m proto.Msg) error {
	if w.outage {
		w.bufferCtrl(m)
		return nil
	}
	buf := proto.MarshalAppend(proto.GetBuf(), m)
	owned, err := transport.SendOwned(w.ctrl, buf)
	if !owned {
		proto.PutBuf(buf)
	}
	return err
}

// outbufCap bounds the outage buffer. Overflow drops the oldest frame:
// the newest completions are the ones a reattached controller could still
// be waiting on.
const outbufCap = 1024

// bufferCtrl marshals a control frame into the outage buffer. Heartbeats
// are skipped — there is nobody to read them, and replaying stale ones
// would be noise.
func (w *Worker) bufferCtrl(m proto.Msg) {
	if _, ok := m.(*proto.Heartbeat); ok {
		return
	}
	if len(w.outbuf) >= outbufCap {
		w.outbuf = w.outbuf[1:]
		w.Stats.DroppedReports.Add(1)
	}
	w.outbuf = append(w.outbuf, proto.Marshal(m))
	w.Stats.BufferedReports.Add(1)
}

// ctrlPump forwards the control connection's messages into the event loop,
// a frame at a time: a batch frame's messages are posted together, in order,
// under one mailbox lock, and the frame buffer is recycled after decode. The
// connection's loss is an event too.
func (w *Worker) ctrlPump(conn transport.Conn) {
	defer w.wg.Done()
	var evs []event
	collect := func(msg proto.Msg) error {
		evs = append(evs, event{kind: evCtrl, msg: msg})
		return nil
	}
	for {
		raw, err := conn.Recv()
		if err != nil {
			w.mbox.Put(event{kind: evClosed, err: err})
			return
		}
		err = proto.ForEachMsg(raw, collect)
		proto.PutBuf(raw)
		if err != nil {
			w.cfg.Logf("worker %s: bad control message: %v", w.id, err)
		}
		posted := w.mbox.PutAll(evs)
		clear(evs) // the scratch pins no message between frames
		evs = evs[:0]
		if !posted {
			return
		}
	}
}

func (w *Worker) acceptLoop(dl transport.Listener) {
	defer w.wg.Done()
	for {
		conn, err := dl.Accept()
		if err != nil {
			return
		}
		w.dataMu.Lock()
		if w.dataClosed {
			w.dataMu.Unlock()
			conn.Close()
			continue
		}
		w.dataConns = append(w.dataConns, conn)
		w.dataMu.Unlock()
		w.wg.Add(1)
		go w.dataPump(conn)
	}
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if !w.mbox.Put(event{kind: evTick}) {
				return
			}
		case <-w.stopped:
			return
		}
	}
}

// run is the event loop owning all control state.
func (w *Worker) run(dl transport.Listener) {
	defer w.wg.Done()
	defer func() {
		dl.Close()
		w.closePeers()
		w.dataMu.Lock()
		w.dataClosed = true
		conns := w.dataConns
		w.dataConns = nil
		w.dataMu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
	}()
	// One turn per wakeup: take everything posted since the last turn,
	// handle it in order, then hand the tasks the turn started to the
	// executors in one go. The two slices swap roles each turn.
	var batch []event
	for {
		if batch = w.mbox.Take(batch, true); len(batch) == 0 {
			return // only a test closes the mailbox under a running loop
		}
		w.Stats.LoopWakeups.Add(1)
		w.Stats.LoopEvents.Add(uint64(len(batch)))
		for i := range batch {
			stop := w.handle(&batch[i])
			batch[i] = event{} // a handled slot pins no payload
			if stop {
				w.finish(nil)
				return
			}
		}
		w.handOff()
	}
}

// handle applies one event (event loop only); it reports whether the worker
// should stop.
func (w *Worker) handle(ev *event) (stop bool) {
	switch ev.kind {
	case evCtrl:
		return w.handleCtrl(ev.msg)
	case evData:
		for _, ip := range ev.pays {
			w.handlePayload(ip)
		}
	case evPeerSpace:
		w.retryParked(ev.peer)
	case evDone:
		w.handleDone(ev.cmd)
	case evTick:
		if w.outage {
			break
		}
		pending := 0
		for _, js := range w.jobList {
			pending += js.unfin
		}
		_ = w.sendCtrl(&proto.Heartbeat{
			Worker:  w.id,
			Pending: pending,
			Done:    w.Stats.CommandsDone.Load(),
		})
	case evClosed:
		if ev.err != nil {
			// The control connection dropped without a Shutdown: the
			// controller crashed (or the link did). Keep executing —
			// installed templates, queued instances and the data plane
			// need no controller — and reattach in the background.
			w.enterOutage(ev.err)
			break
		}
		return true
	case evReconn:
		return w.completeReconnect(ev.conn, ev.msgs)
	}
	return false
}

// nextEvent pops one posted event, for callers that drive the scheduler by
// hand in place of run. With wait it blocks until there is one; false means
// none (or, waiting, that the mailbox closed).
func (w *Worker) nextEvent(wait bool) (event, bool) {
	if w.handPos == len(w.hand) {
		w.hand = w.mbox.Take(w.hand, wait)
		w.handPos = 0
		if len(w.hand) == 0 {
			return event{}, false
		}
	}
	ev := w.hand[w.handPos]
	w.hand[w.handPos] = event{}
	w.handPos++
	return ev, true
}

// finish stops the worker: producers' puts fail from here on, executors exit
// once their current task returns.
func (w *Worker) finish(err error) {
	w.stopErr = err
	close(w.stopped)
	w.mbox.Close()
	w.work.close()
	w.ctrl.Close()
}

// enterOutage switches the worker to autonomous mode after losing the
// control connection: control frames buffer, local execution continues,
// and a background loop redials until a controller — the same one, or a
// promoted standby on the same address — accepts a reconnect.
func (w *Worker) enterOutage(err error) {
	if w.outage {
		return
	}
	w.cfg.Logf("worker %s: control connection lost, running autonomously: %v", w.id, err)
	w.outage = true
	w.ctrl.Close()
	w.wg.Add(1)
	go w.reconnectLoop()
}

// reconnectLoop redials the control endpoint until a controller acks a
// RegisterWorker carrying this worker's existing identity. A hello that
// fails or goes unanswered is retried on a fresh connection after a
// backoff that grows with each attempt. It gives up only when the worker
// stops.
func (w *Worker) reconnectLoop() {
	defer w.wg.Done()
	for attempt := 0; ; attempt++ {
		conn, err := transport.DialRetry(w.cfg.Transport, w.cfg.ControlAddr, transport.Backoff{}, 0, 0, w.stopped)
		if err != nil {
			return // stopped
		}
		if reply, err := w.handshake(conn); err == nil {
			if !w.mbox.Put(event{kind: evReconn, msgs: reply, conn: conn}) {
				conn.Close()
			}
			return
		}
		select {
		case <-w.stopped:
			return
		case <-time.After(transport.Backoff{}.Delay(attempt, nil)):
		}
	}
}

// completeReconnect adopts the ack, replays the outage buffer on the fresh
// connection and swaps it in as the control connection. The controller
// reconciles: replayed completions for commands its takeover recovery
// discarded fall out of its outstanding tables as unknown IDs, so nothing
// double-applies, while reports it was still waiting on land exactly once.
// A send failure mid-replay means the fresh connection died under us: the
// unsent suffix goes back into the outage buffer — never silently dropped —
// and the worker stays in outage with a new reconnect loop running.
func (w *Worker) completeReconnect(conn transport.Conn, reply []proto.Msg) (shutdown bool) {
	// A promoted standby readmits this worker as a plain active member —
	// fleet phases are not replicated — so any drain in flight is aborted
	// and a join mid-warm completes with the FleetReady in this frame.
	w.drainFlag.Store(false)
	w.adopt(reply[0].(*proto.RegisterWorkerAck))
	out := w.outbuf
	w.outbuf = nil
	for i, buf := range out {
		owned, err := transport.SendOwned(conn, buf)
		if err != nil {
			w.cfg.Logf("worker %s: outage replay: %v", w.id, err)
			rest := out[i:]
			if owned {
				// The transport consumed the frame as it failed; that one
				// report is genuinely gone.
				rest = out[i+1:]
				w.Stats.DroppedReports.Add(1)
			}
			w.outbuf = append(w.outbuf, rest...)
			conn.Close()
			w.wg.Add(1)
			go w.reconnectLoop()
			return false
		}
		w.Stats.ReplayedReports.Add(1)
	}
	w.ctrl = conn
	w.outage = false
	w.Stats.Reconnects.Add(1)
	w.cfg.Logf("worker %s: reattached to controller, %d buffered frames replayed", w.id, len(out))
	// Process the rest of the handshake frame (quotas, halts) before the
	// pump delivers anything newer, preserving controller message order.
	for _, m := range reply[1:] {
		if shutdown := w.handleCtrl(m); shutdown {
			return true
		}
	}
	w.wg.Add(1)
	go w.ctrlPump(conn)
	return false
}

func (w *Worker) closePeers() {
	for _, pc := range w.peerConns {
		pc.close()
	}
}

// handleCtrl dispatches one controller message; it reports whether the
// worker should shut down. Job-scoped messages resolve their namespace
// here, creating it on first use.
func (w *Worker) handleCtrl(msg proto.Msg) bool {
	switch m := msg.(type) {
	case *proto.RegisterWorkerAck:
		w.adopt(m) // peer updates arrive as repeated acks with the full peer map
	case *proto.SpawnCommands:
		js := w.job(m.Job)
		w.enqueue(w.newBatchUnit(js, m.Cmds, m.Barrier))
	case *proto.InstallTemplate:
		w.installTemplate(w.job(m.Job), m)
	case *proto.InstantiateTemplate:
		w.instantiate(w.job(m.Job), m)
	case *proto.InstallPatch:
		w.installPatch(w.job(m.Job), m)
	case *proto.InstantiatePatch:
		w.instantiatePatch(w.job(m.Job), m)
	case *proto.FetchObject:
		w.fetchObject(m)
	case *proto.Halt:
		w.halt(w.job(m.Job), m)
	case *proto.Resume:
		w.job(m.Job).halted = false
	case *proto.JobQuota:
		w.setQuota(m)
	case *proto.JobEnd:
		w.dropJob(m.Job)
	case *proto.FleetWarm:
		// All installs in the warm frame precede this message, so acking
		// here certifies every template compiled before traffic arrives.
		_ = w.sendCtrl(&proto.FleetWarmAck{Worker: w.id, Seq: m.Seq})
	case *proto.FleetReady:
		w.readyOnce.Do(func() { close(w.readyCh) })
	case *proto.FleetDrain:
		w.drainFlag.Store(true)
	case *proto.FleetDecommission:
		return true
	case *proto.Shutdown:
		return true
	default:
		w.cfg.Logf("worker %s: unexpected control message %s", w.id, msg.Kind())
	}
	return false
}

// setQuota applies a fair-share slot assignment. A quota below 1 is
// clamped: every admitted job must be able to make progress.
func (w *Worker) setQuota(m *proto.JobQuota) {
	js := w.job(m.Job)
	q := m.Slots
	if q < 1 {
		q = 1
	}
	if q > w.cfg.Slots {
		q = w.cfg.Slots
	}
	js.quota.Store(int32(q))
	// A raised quota may unblock deferred tasks immediately.
	w.dispatch()
}

// getUnit acquires an arena of n command slots for one job, reusing a
// pooled unit when possible (steady state: always, after the first
// instantiation at a given shape). The pool is shared across jobs: arenas
// are zeroed on release, so reuse leaks nothing between tenants.
func (w *Worker) getUnit(js *jstate, n int) *unit {
	var u *unit
	if k := len(w.unitPool); k > 0 {
		u = w.unitPool[k-1]
		w.unitPool[k-1] = nil
		w.unitPool = w.unitPool[:k-1]
		w.Stats.UnitsReused.Add(1)
	} else {
		u = &unit{}
	}
	u.js = js
	if cap(u.pcs) < n {
		u.pcs = make([]pcmd, n)
	} else {
		u.pcs = u.pcs[:n]
	}
	return u
}

// releaseUnit returns an arena to the pool. Callers must guarantee no
// outstanding references to the unit's pcmds: a unit is released only when
// remaining hits zero, at which point every executor has posted
// its completion and every waiter registration has been consumed.
func (w *Worker) releaseUnit(u *unit) {
	u.js = nil
	u.ct = nil
	u.base = 0
	u.instance = 0
	u.barrier = false
	u.activated = false
	u.remaining = 0
	u.mark = 0
	// Zero the slots so a pooled arena pins no command payloads (param
	// blobs, access sets) from its previous instance — same discipline
	// as the runnable ring and the task scratch.
	for i := range u.pcs {
		u.pcs[i] = pcmd{}
	}
	u.pcs = u.pcs[:0]
	w.unitPool = append(w.unitPool, u)
}

// newBatchUnit wraps decoded spawn commands in an arena unit. The commands
// are copied into the arena's inline slots, so the batch path shares the
// template path's scheduling machinery (one slab instead of two heap
// objects per command).
func (w *Worker) newBatchUnit(js *jstate, cmds []*command.Command, barrier bool) *unit {
	u := w.getUnit(js, len(cmds))
	u.barrier = barrier
	for i, c := range cmds {
		u.pcs[i].cmd = *c
		u.pcs[i].local = -1
	}
	return u
}

// halt implements the recovery protocol (paper §4.4) for one job:
// terminate the job's ongoing work, flush its queues, and — once its
// flushed tasks have left the executors — clear its objects and
// acknowledge (finishHalt). Other jobs' arenas, payloads, objects and
// barriers are untouched — that containment is the point of job-scoped
// halts.
func (w *Worker) halt(js *jstate, m *proto.Halt) {
	w.flush(js)
	js.haltAck = &proto.HaltAck{Job: js.id, Seq: m.Seq, Worker: w.id}
	w.finishHalt(js)
}

// flush discards one job's queued and in-flight work, for a halt or the
// job's end. Tasks already on the executors drain through the stale-epoch
// path.
func (w *Worker) flush(js *jstate) {
	js.haltEpoch++
	js.halted = true
	js.haltAck = nil
	// Completions recorded inside flushed in-flight arenas must survive
	// the flush (the map-based path kept them in the done map): sweep
	// them into the done map before dropping the arenas. Queued units
	// have no completions yet. Flushed arenas are abandoned to the GC,
	// not pooled — the work queue and executors may still hold their pcmds.
	for _, u := range js.liveUnits {
		if !u.activated {
			continue
		}
		for i := range u.pcs {
			if u.pcs[i].state == psDone {
				js.done[u.pcs[i].cmd.ID] = struct{}{}
			}
		}
	}
	js.liveUnits = nil
	js.waiters = make(map[ids.CommandID][]*pcmd)
	// Flushed payloads that spilled hold disk files; release them with the
	// buffer.
	for _, ip := range js.payloads {
		if ip.spill != nil {
			ip.spill.Remove()
		}
	}
	js.payloads = make(map[ids.CommandID]inPayload)
	js.payWait = make(map[ids.CommandID]*pcmd)
	js.units = nil
	js.runnable.reset()
	js.unfin = 0
	// freeSlots and js.running are NOT reset: tasks already handed to the
	// executors still occupy them (or wait in the work queue) and return
	// their slots through the stale-epoch path as they drain, preserving
	// freeSlots + running == Slots. (The old reset-plus-credit
	// double-counted and let the concurrency limit creep past cfg.Slots
	// after every recovery.)
	js.completions = js.completions[:0]
	// Arrival accounting restarts empty: nothing admitted before the
	// halt can complete anymore.
	js.arrLow = js.cmdArrived
	for i := range js.arrRing {
		js.arrRing[i] = false
	}
}

// finishHalt completes a job's pending halt once none of its flushed tasks
// is left on the executors: the job's objects are cleared — the recovery
// reloads what it needs into the same object IDs — and only then is the
// latest halt acked. Until then a flushed task may still write the store.
func (w *Worker) finishHalt(js *jstate) {
	if js.haltAck == nil || js.running > 0 {
		return
	}
	js.store.Clear()
	_ = w.sendCtrl(js.haltAck)
	js.haltAck = nil
}

func (w *Worker) fetchObject(m *proto.FetchObject) {
	var data []byte
	var version uint64
	if js, ok := w.jobs[m.Job]; ok {
		if o := js.store.Get(m.Object); o != nil {
			data = o.Data
			version = o.Version
		}
	}
	if len(data) <= w.chunkSize {
		_ = w.sendCtrl(&proto.ObjectData{Seq: m.Seq, Object: m.Object, Version: version, Data: data})
		return
	}
	// Large fetch replies ride the chunked path over the control
	// connection, marked ChunkFetch and keyed by the fetch sequence so the
	// controller's reassembler can synthesize the ObjectData. No credits:
	// fetches are controller-requested and rare, not a shuffle. Like the
	// peer path, each chunk is its header plus a slice of the object.
	w.xferSeq++
	ck := proto.DataChunk{
		Job:     m.Job,
		Xfer:    w.xferSeq,
		Flags:   proto.ChunkFetch,
		Object:  m.Object,
		Version: version,
		Fetch:   m.Seq,
		Total:   uint64(len(data)),
	}
	head := make([]byte, 0, 128)
	for off, seq := 0, uint32(0); off < len(data); seq++ {
		end := off + w.chunkSize
		if end > len(data) {
			end = len(data)
		}
		ck.Seq = seq
		ck.Last = end == len(data)
		ck.Raw = data[off:end]
		head = proto.AppendChunkHeader(head[:0], &ck)
		if err := transport.SendVec(w.ctrl, head, ck.Raw); err != nil {
			return
		}
		off = end
	}
}
