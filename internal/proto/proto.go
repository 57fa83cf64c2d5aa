// Package proto defines the Nimbus control-plane and data-plane messages
// and their binary wire codec.
//
// Message flows (paper Figure 2):
//
//	driver     → controller : variables, stages, template start/end,
//	                          block instantiation, gets, barriers
//	controller → driver     : get results, barrier acks
//	controller → worker     : command spawning, worker-template install/
//	                          instantiate (with edits), patch install/
//	                          instantiate, halt/resume, checkpoint
//	worker     → controller : registration, batched completions, block
//	                          completion, heartbeats, fetched objects
//	worker     → worker     : data payloads (push model)
//
// The codec is a one-byte message kind followed by the message body in the
// wire package's varint encoding. Marshal/Unmarshal round every message
// through a flat []byte so the same messages flow over the in-memory and
// TCP transports unchanged.
//
// A wire type is its struct and one method, fields, that visits the fields
// in wire order with a wire.Coder; the coder's direction makes that walk
// the encoder or the decoder, so the two cannot disagree. Adding a kind is
// a const, a row in the kinds table, the struct with its Kind and fields,
// and a row in the tests' everyMessage (DESIGN.md "One walk per message").
package proto

import (
	"fmt"
	"sort"

	"nimbus/internal/command"
	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/wire"
)

// Msg is implemented by every control-plane message.
type Msg interface {
	// Kind returns the message discriminator byte.
	Kind() MsgKind
	// fields visits the message's fields in wire order; the coder's
	// direction makes the one walk the encoder or the decoder.
	fields(c *wire.Coder)
}

// MsgKind discriminates message types on the wire.
type MsgKind uint8

// Message kinds.
const (
	KindRegisterWorker MsgKind = iota + 1
	KindRegisterWorkerAck
	KindRegisterDriver
	KindDefineVariable
	KindPut
	KindGet
	KindGetResult
	KindSubmitStage
	KindTemplateStart
	KindTemplateEnd
	KindInstantiateBlock
	KindBarrier
	KindBarrierDone
	KindCheckpointReq
	KindShutdown
	KindSpawnCommands
	KindInstallTemplate
	KindInstantiateTemplate
	KindInstallPatch
	KindInstantiatePatch
	KindComplete
	KindBlockDone
	KindHeartbeat
	KindFetchObject
	KindObjectData
	KindHalt
	KindHaltAck
	KindResume
	KindDataPayload
	KindErrorMsg
	KindRegisterDriverAck
	KindJobEnd
	KindJobQuota
	KindInstantiateWhile
	KindLoopDone
	KindReplAttach
	KindReplSnapshot
	KindReplOp
	KindReplAck
	KindReplCkpt
	KindReplJobStart
	KindReplJobEnd
	KindLeaseRenew
	KindDriverReattach
	KindReattachAck
	KindDataChunk
	KindDataCredit
	KindXferAbort
	KindSaveFailed
	KindGatewayHello
	KindMuxData
	KindSessionClose
	KindAdmissionReject
	KindFleetWarm
	KindFleetWarmAck
	KindFleetReady
	KindFleetDrain
	KindFleetDecommission
	// KindMax is one past the last registered message kind; coverage
	// tests iterate [KindRegisterWorker, KindMax).
	KindMax
)

// KindBatch is the frame-level discriminator for a coalesced batch of
// messages (see batch.go). It is not a Msg kind: newMsg rejects it, and it
// is deliberately far from the iota block so future message kinds cannot
// collide with it.
const KindBatch MsgKind = 0xFF

// kinds is the message table indexed by MsgKind: the name String returns
// (static, so the hot logging/error paths never allocate) and the
// constructor Unmarshal decodes into. A kind is registered by its row here.
var kinds = [KindMax]struct {
	name string
	new  func() Msg
}{
	KindRegisterWorker:      {"register-worker", func() Msg { return new(RegisterWorker) }},
	KindRegisterWorkerAck:   {"register-worker-ack", func() Msg { return new(RegisterWorkerAck) }},
	KindRegisterDriver:      {"register-driver", func() Msg { return new(RegisterDriver) }},
	KindDefineVariable:      {"define-variable", func() Msg { return new(DefineVariable) }},
	KindPut:                 {"put", func() Msg { return new(Put) }},
	KindGet:                 {"get", func() Msg { return new(Get) }},
	KindGetResult:           {"get-result", func() Msg { return new(GetResult) }},
	KindSubmitStage:         {"submit-stage", func() Msg { return new(SubmitStage) }},
	KindTemplateStart:       {"template-start", func() Msg { return new(TemplateStart) }},
	KindTemplateEnd:         {"template-end", func() Msg { return new(TemplateEnd) }},
	KindInstantiateBlock:    {"instantiate-block", func() Msg { return new(InstantiateBlock) }},
	KindBarrier:             {"barrier", func() Msg { return new(Barrier) }},
	KindBarrierDone:         {"barrier-done", func() Msg { return new(BarrierDone) }},
	KindCheckpointReq:       {"checkpoint", func() Msg { return new(CheckpointReq) }},
	KindShutdown:            {"shutdown", func() Msg { return new(Shutdown) }},
	KindSpawnCommands:       {"spawn-commands", func() Msg { return new(SpawnCommands) }},
	KindInstallTemplate:     {"install-template", func() Msg { return new(InstallTemplate) }},
	KindInstantiateTemplate: {"instantiate-template", func() Msg { return new(InstantiateTemplate) }},
	KindInstallPatch:        {"install-patch", func() Msg { return new(InstallPatch) }},
	KindInstantiatePatch:    {"instantiate-patch", func() Msg { return new(InstantiatePatch) }},
	KindComplete:            {"complete", func() Msg { return new(Complete) }},
	KindBlockDone:           {"block-done", func() Msg { return new(BlockDone) }},
	KindHeartbeat:           {"heartbeat", func() Msg { return new(Heartbeat) }},
	KindFetchObject:         {"fetch-object", func() Msg { return new(FetchObject) }},
	KindObjectData:          {"object-data", func() Msg { return new(ObjectData) }},
	KindHalt:                {"halt", func() Msg { return new(Halt) }},
	KindHaltAck:             {"halt-ack", func() Msg { return new(HaltAck) }},
	KindResume:              {"resume", func() Msg { return new(Resume) }},
	KindDataPayload:         {"data-payload", func() Msg { return new(DataPayload) }},
	KindErrorMsg:            {"error", func() Msg { return new(ErrorMsg) }},
	KindRegisterDriverAck:   {"register-driver-ack", func() Msg { return new(RegisterDriverAck) }},
	KindJobEnd:              {"job-end", func() Msg { return new(JobEnd) }},
	KindJobQuota:            {"job-quota", func() Msg { return new(JobQuota) }},
	KindInstantiateWhile:    {"instantiate-while", func() Msg { return new(InstantiateWhile) }},
	KindLoopDone:            {"loop-done", func() Msg { return new(LoopDone) }},
	KindReplAttach:          {"repl-attach", func() Msg { return new(ReplAttach) }},
	KindReplSnapshot:        {"repl-snapshot", func() Msg { return new(ReplSnapshot) }},
	KindReplOp:              {"repl-op", func() Msg { return new(ReplOp) }},
	KindReplAck:             {"repl-ack", func() Msg { return new(ReplAck) }},
	KindReplCkpt:            {"repl-ckpt", func() Msg { return new(ReplCkpt) }},
	KindReplJobStart:        {"repl-job-start", func() Msg { return new(ReplJobStart) }},
	KindReplJobEnd:          {"repl-job-end", func() Msg { return new(ReplJobEnd) }},
	KindLeaseRenew:          {"lease-renew", func() Msg { return new(LeaseRenew) }},
	KindDriverReattach:      {"driver-reattach", func() Msg { return new(DriverReattach) }},
	KindReattachAck:         {"reattach-ack", func() Msg { return new(ReattachAck) }},
	KindDataChunk:           {"data-chunk", func() Msg { return new(DataChunk) }},
	KindDataCredit:          {"data-credit", func() Msg { return new(DataCredit) }},
	KindXferAbort:           {"xfer-abort", func() Msg { return new(XferAbort) }},
	KindSaveFailed:          {"save-failed", func() Msg { return new(SaveFailed) }},
	KindGatewayHello:        {"gateway-hello", func() Msg { return new(GatewayHello) }},
	KindMuxData:             {"mux-data", func() Msg { return new(MuxData) }},
	KindSessionClose:        {"session-close", func() Msg { return new(SessionClose) }},
	KindAdmissionReject:     {"admission-reject", func() Msg { return new(AdmissionReject) }},
	KindFleetWarm:           {"fleet-warm", func() Msg { return new(FleetWarm) }},
	KindFleetWarmAck:        {"fleet-warm-ack", func() Msg { return new(FleetWarmAck) }},
	KindFleetReady:          {"fleet-ready", func() Msg { return new(FleetReady) }},
	KindFleetDrain:          {"fleet-drain", func() Msg { return new(FleetDrain) }},
	KindFleetDecommission:   {"fleet-decommission", func() Msg { return new(FleetDecommission) }},
}

// String returns the message kind name.
func (k MsgKind) String() string {
	if k == KindBatch {
		return "batch"
	}
	if k < KindMax && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("msg(%d)", uint8(k))
}

// newMsg returns an empty message of the given kind, or nil for a kind
// with no table row.
func newMsg(kind MsgKind) Msg {
	if kind >= KindMax || kinds[kind].new == nil {
		return nil
	}
	return kinds[kind].new()
}

// Marshal encodes m with its kind prefix.
func Marshal(m Msg) []byte { return MarshalAppend(make([]byte, 0, 64), m) }

// MarshalAppend encodes m (kind prefix included) onto buf and returns the
// extended slice. With a buffer of sufficient capacity — e.g. one from
// GetBuf — it performs no allocations, which is what keeps the controller's
// steady-state instantiation path allocation-free.
func MarshalAppend(buf []byte, m Msg) []byte {
	c := encoder(buf)
	c.W.Byte(byte(m.Kind()))
	m.fields(c)
	return putCoder(c)
}

// Unmarshal decodes one message from b. Batch frames need ForEachMsg.
func Unmarshal(b []byte) (Msg, error) {
	c := decoder(b, false)
	defer putCoder(c)
	kind := MsgKind(c.R.Byte())
	if c.R.Err != nil {
		return nil, c.R.Err
	}
	return unmarshalBody(kind, c)
}

// ---------------------------------------------------------------------------
// Registration

// RegisterWorker is the first message a worker sends on every control
// connection. DataAddr is the worker's data-plane listen address, which the
// controller distributes so workers can exchange data directly
// (control-plane requirement 2, paper §3.1). Worker is NoWorker for a fresh
// worker, which the controller assigns the next ID; a worker back after a
// controller outage presents its prior ID, so the controller reconciles it
// against the replicated roster instead of treating it as new capacity.
// Either way the controller answers with a RegisterWorkerAck.
type RegisterWorker struct {
	Worker   ids.WorkerID
	DataAddr string
	// Slots is the number of tasks the worker executes concurrently
	// (c3.2xlarge workers in the paper have 8 cores).
	Slots int
}

// Kind implements Msg.
func (*RegisterWorker) Kind() MsgKind { return KindRegisterWorker }

func (m *RegisterWorker) fields(c *wire.Coder) {
	wire.Uv(c, &m.Worker)
	c.Str(&m.DataAddr)
	wire.Uv(c, &m.Slots)
}

// RegisterWorkerAck is the one admission ack: it assigns the worker its ID
// (or echoes its prior one) and tells it about its peers' data-plane
// addresses. Peers is keyed by worker ID; later acks refresh the map as
// workers join and leave.
type RegisterWorkerAck struct {
	Worker ids.WorkerID
	Peers  map[ids.WorkerID]string
	// Eager selects per-command completion reporting (central/Spark-like
	// mode, where the controller dispatches successors itself) instead of
	// batched reporting (Nimbus mode).
	Eager bool
}

// Kind implements Msg.
func (*RegisterWorkerAck) Kind() MsgKind { return KindRegisterWorkerAck }

func (m *RegisterWorkerAck) fields(c *wire.Coder) {
	wire.Uv(c, &m.Worker)
	peers(c, &m.Peers)
	c.Bool(&m.Eager)
}

// peer is one entry of a peer map on the wire.
type peer struct {
	id   ids.WorkerID
	addr string
}

func (p *peer) fields(c *wire.Coder) {
	wire.Uv(c, &p.id)
	c.Str(&p.addr)
}

// peers walks a peer map as a sequence of entries. They are written in
// ascending key order, so a frame is a function of its message; a decoder
// accepts any order.
func peers(c *wire.Coder, v *map[ids.WorkerID]string) {
	var ps []peer
	if !c.Decoding {
		for id, addr := range *v {
			ps = append(ps, peer{id, addr})
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	}
	wire.Each(c, &ps, (*peer).fields)
	if c.Decoding {
		*v = nil
		if len(ps) > 0 {
			*v = make(map[ids.WorkerID]string, len(ps))
		}
		for _, p := range ps {
			(*v)[p.id] = p.addr
		}
	}
}

// RegisterDriver is the first message a driver sends to the controller.
// Admission creates a new job: the controller replies with a
// RegisterDriverAck carrying the job handle, and every operation on the
// connection thereafter is scoped to that job.
type RegisterDriver struct {
	Name string
	// Weight biases the fair-share slot allocator (zero means 1). A job
	// with weight 2 receives twice the executor-slot share of a weight-1
	// job on every worker.
	Weight int
	// Tenant groups jobs for hierarchical fair share and per-tenant rate
	// limits; empty means the default tenant.
	Tenant string
	// Priority orders the admission queue (higher first; FIFO within a
	// priority band).
	Priority uint8
}

// Kind implements Msg.
func (*RegisterDriver) Kind() MsgKind { return KindRegisterDriver }

func (m *RegisterDriver) fields(c *wire.Coder) {
	c.Str(&m.Name)
	wire.Uv(c, &m.Weight)
	c.Str(&m.Tenant)
	c.Byte(&m.Priority)
}

// RegisterDriverAck admits a driver and hands it its job handle.
type RegisterDriverAck struct {
	Job ids.JobID
}

// Kind implements Msg.
func (*RegisterDriverAck) Kind() MsgKind { return KindRegisterDriverAck }

func (m *RegisterDriverAck) fields(c *wire.Coder) { wire.Uv(c, &m.Job) }

// JobEnd ends a job. Driver → controller it is the graceful variant of a
// disconnect (the controller tears the job down either way); controller →
// worker it tells the worker to drop the job's entire namespace —
// templates, patches, arenas, completion records and datastore objects.
type JobEnd struct {
	Job ids.JobID
}

// Kind implements Msg.
func (*JobEnd) Kind() MsgKind { return KindJobEnd }

func (m *JobEnd) fields(c *wire.Coder) { wire.Uv(c, &m.Job) }

// JobQuota sets one job's executor-slot share on a worker. The controller
// recomputes shares whenever a job arrives or exits (weighted fair share
// over the admitted jobs) so one hot tenant cannot starve the rest.
type JobQuota struct {
	Job ids.JobID
	// Slots is the number of executor slots the job may occupy
	// concurrently on this worker.
	Slots int
}

// Kind implements Msg.
func (*JobQuota) Kind() MsgKind { return KindJobQuota }

func (m *JobQuota) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	wire.Uv(c, &m.Slots)
}

// ---------------------------------------------------------------------------
// Driver → controller: data model and stages

// DefineVariable declares an application variable with a partition count.
type DefineVariable struct {
	Var        ids.VariableID
	Name       string
	Partitions int
}

// Kind implements Msg.
func (*DefineVariable) Kind() MsgKind { return KindDefineVariable }

func (m *DefineVariable) fields(c *wire.Coder) {
	wire.Uv(c, &m.Var)
	c.Str(&m.Name)
	wire.Uv(c, &m.Partitions)
}

// Put uploads initial contents for one partition of a variable. The
// controller forwards the bytes to the owning worker.
type Put struct {
	Var       ids.VariableID
	Partition int
	Data      []byte
}

// Kind implements Msg.
func (*Put) Kind() MsgKind { return KindPut }

func (m *Put) fields(c *wire.Coder) {
	wire.Uv(c, &m.Var)
	wire.Uv(c, &m.Partition)
	wire.BytesOf(c, &m.Data)
}

// Get requests the current contents of one partition. It is a
// synchronization point: the controller answers after all submitted work
// that writes the partition has completed. Data-dependent loop conditions
// (paper §2.4) are driven by Gets.
type Get struct {
	Seq       uint64
	Var       ids.VariableID
	Partition int
}

// Kind implements Msg.
func (*Get) Kind() MsgKind { return KindGet }

func (m *Get) fields(c *wire.Coder) {
	c.U64(&m.Seq)
	wire.Uv(c, &m.Var)
	wire.Uv(c, &m.Partition)
}

// GetResult answers a Get.
type GetResult struct {
	Seq  uint64
	Data []byte
}

// Kind implements Msg.
func (*GetResult) Kind() MsgKind { return KindGetResult }

func (m *GetResult) fields(c *wire.Coder) {
	c.U64(&m.Seq)
	wire.BytesOf(c, &m.Data)
}

// AccessPattern describes how a stage's tasks map onto a variable's
// partitions.
type AccessPattern uint8

// Access patterns.
const (
	// OnePerTask: task t accesses partition t. Requires the variable's
	// partition count to equal the stage's task count.
	OnePerTask AccessPattern = iota + 1
	// Shared: every task accesses partition 0 (broadcast reads of scalars
	// such as model parameters; single-writer scalars when Tasks == 1).
	Shared
	// Grouped: task t accesses the contiguous group of partitions
	// [t*K, (t+1)*K) where K = partitions/tasks. Reduction trees use this.
	Grouped
	// FixedPartition: every task accesses the partition named in the ref.
	FixedPartition
	// Stencil: task t accesses partitions [t-r, t+r] clamped to the
	// variable's range, where r is the ref's Fixed field (default radius
	// 1 when Fixed is 0). Grid codes use it for halo exchange between
	// neighboring strips; the copies it implies live inside templates.
	Stencil
)

// VarRef names one variable access of a stage.
type VarRef struct {
	Var     ids.VariableID
	Write   bool
	Pattern AccessPattern
	// Fixed is the partition for FixedPartition.
	Fixed int
}

func (m *VarRef) fields(c *wire.Coder) {
	wire.Uv(c, &m.Var)
	c.Bool(&m.Write)
	wire.U8(c, &m.Pattern)
	wire.Uv(c, &m.Fixed)
}

// SubmitStage submits one parallel operation. The controller expands it
// into Tasks task commands plus whatever copy commands data placement
// requires.
type SubmitStage struct {
	Stage ids.StageID
	Fn    ids.FunctionID
	Tasks int
	Refs  []VarRef
	// Params is the shared parameter blob passed to every task. Inside a
	// template recording it becomes a parameter slot (re-supplied on each
	// instantiation); outside, it is sent as-is.
	Params params.Blob
	// PerTask optionally carries distinct parameters per task (used by
	// data-generation stages). Stages with PerTask parameters cannot be
	// recorded into templates.
	PerTask []params.Blob
}

// Kind implements Msg.
func (*SubmitStage) Kind() MsgKind { return KindSubmitStage }

func (m *SubmitStage) fields(c *wire.Coder) {
	wire.Uv(c, &m.Stage)
	wire.Uv(c, &m.Fn)
	wire.Uv(c, &m.Tasks)
	wire.Each(c, &m.Refs, (*VarRef).fields)
	wire.BytesOf(c, &m.Params)
	wire.List(c, &m.PerTask, wire.BytesOf[params.Blob])
}

// TemplateStart marks the beginning of a basic block in the driver's task
// stream (paper §4.1: the programmer marks basic blocks explicitly).
type TemplateStart struct {
	Name string
}

// Kind implements Msg.
func (*TemplateStart) Kind() MsgKind { return KindTemplateStart }

func (m *TemplateStart) fields(c *wire.Coder) { c.Str(&m.Name) }

// TemplateEnd marks the end of a basic block. On receipt the controller
// post-processes the recorded task graph into a controller template and
// generates the associated worker templates.
type TemplateEnd struct {
	Name string
}

// Kind implements Msg.
func (*TemplateEnd) Kind() MsgKind { return KindTemplateEnd }

func (m *TemplateEnd) fields(c *wire.Coder) { c.Str(&m.Name) }

// InstantiateBlock asks the controller to execute an installed controller
// template again. ParamArray is indexed by the parameter slots recorded at
// install time (one slot per parameterized stage).
type InstantiateBlock struct {
	Name       string
	ParamArray []params.Blob
}

// Kind implements Msg.
func (*InstantiateBlock) Kind() MsgKind { return KindInstantiateBlock }

func (m *InstantiateBlock) fields(c *wire.Coder) {
	c.Str(&m.Name)
	wire.List(c, &m.ParamArray, wire.BytesOf[params.Blob])
}

// PredOp is a loop predicate's comparison operator.
type PredOp uint8

// Predicate operators. A loop continues while `value <op> threshold`
// holds.
const (
	PredLT PredOp = iota + 1 // value < threshold
	PredLE                   // value <= threshold
	PredGT                   // value > threshold
	PredGE                   // value >= threshold
)

// Valid reports whether op is a known comparison.
func (op PredOp) Valid() bool { return op >= PredLT && op <= PredGE }

// Holds evaluates `v <op> threshold`.
func (op PredOp) Holds(v, threshold float64) bool {
	switch op {
	case PredLT:
		return v < threshold
	case PredLE:
		return v <= threshold
	case PredGT:
		return v > threshold
	case PredGE:
		return v >= threshold
	}
	return false
}

// Pred is a controller-evaluated loop predicate: the first float64 of one
// partition's contents (the reduced scalar a basic block writes, paper
// §2.4) compared against a threshold.
type Pred struct {
	Var       ids.VariableID
	Partition int
	Op        PredOp
	Threshold float64
}

func (p *Pred) fields(c *wire.Coder) {
	wire.Uv(c, &p.Var)
	wire.Uv(c, &p.Partition)
	wire.U8(c, &p.Op)
	c.F64(&p.Threshold)
}

// Holds evaluates the predicate against a fetched scalar.
func (p Pred) Holds(v float64) bool { return p.Op.Holds(v, p.Threshold) }

// InstantiateWhile submits a whole data-dependent loop in one message
// (driver API v2): the controller instantiates the named template
// back-to-back, evaluating Pred against the reduced scalar after each
// completion, and answers with a single LoopDone — turning one
// driver↔controller round trip per iteration (the Figure 3 Get loop) into
// one per loop. The loop runs at least once and at most MaxIters times,
// continuing while Pred holds.
type InstantiateWhile struct {
	Seq      uint64
	Name     string
	Pred     Pred
	MaxIters int
	// ParamArray is passed to every iteration's instantiation.
	ParamArray []params.Blob
}

// Kind implements Msg.
func (*InstantiateWhile) Kind() MsgKind { return KindInstantiateWhile }

func (m *InstantiateWhile) fields(c *wire.Coder) {
	c.U64(&m.Seq)
	c.Str(&m.Name)
	m.Pred.fields(c)
	wire.Uv(c, &m.MaxIters)
	wire.List(c, &m.ParamArray, wire.BytesOf[params.Blob])
}

// LoopDone answers an InstantiateWhile once its loop exits: how many
// iterations ran and the scalar the final predicate evaluation saw. A
// loop that could not run (or failed mid-iteration) still answers, with
// Err set: the reply is seq-addressed, so the driver's loop future always
// resolves even when the driver is currently waiting on a different
// pipelined operation.
type LoopDone struct {
	Seq       uint64
	Iters     int
	LastValue float64
	Err       string
}

// Kind implements Msg.
func (*LoopDone) Kind() MsgKind { return KindLoopDone }

func (m *LoopDone) fields(c *wire.Coder) {
	c.U64(&m.Seq)
	wire.Uv(c, &m.Iters)
	c.F64(&m.LastValue)
	c.Str(&m.Err)
}

// Barrier asks the controller to reply (BarrierDone) once all previously
// submitted work has completed.
type Barrier struct {
	Seq uint64
}

// Kind implements Msg.
func (*Barrier) Kind() MsgKind { return KindBarrier }

func (m *Barrier) fields(c *wire.Coder) { c.U64(&m.Seq) }

// BarrierDone answers a Barrier (and a CheckpointReq, whose commit is a
// barrier from the driver's point of view). Applied is the job's logged
// driver-operation count that every controller this session could ever
// reattach to is guaranteed to report at least — the driver drops its
// failover journal entries at or below it, bounding journal growth.
type BarrierDone struct {
	Seq     uint64
	Applied uint64
	// Err is non-empty when the barrier was a checkpoint that failed to
	// commit (a worker's durable Save errored); the driver surfaces it as
	// a typed checkpoint failure instead of success.
	Err string
}

// Kind implements Msg.
func (*BarrierDone) Kind() MsgKind { return KindBarrierDone }

func (m *BarrierDone) fields(c *wire.Coder) {
	c.U64(&m.Seq)
	c.U64(&m.Applied)
	c.Str(&m.Err)
}

// CheckpointReq asks the controller to take a checkpoint (paper §4.4):
// drain worker queues, snapshot the execution state, save live objects.
type CheckpointReq struct {
	Seq uint64
}

// Kind implements Msg.
func (*CheckpointReq) Kind() MsgKind { return KindCheckpointReq }

func (m *CheckpointReq) fields(c *wire.Coder) { c.U64(&m.Seq) }

// Shutdown terminates a node.
type Shutdown struct{}

// Kind implements Msg.
func (*Shutdown) Kind() MsgKind { return KindShutdown }

func (*Shutdown) fields(*wire.Coder) {}

// ---------------------------------------------------------------------------
// Controller → worker

// SpawnCommands dispatches concrete commands to a worker. This is the
// non-template path (and the uncached-patch path). In central mode it
// carries one command at a time; in Nimbus mode whole stages are batched.
type SpawnCommands struct {
	// Job scopes the commands: they execute in, and record completions
	// against, the job's namespace on the worker.
	Job  ids.JobID
	Cmds []*command.Command
	// Barrier orders the batch as a unit: its commands activate only after
	// all previously enqueued work of the same job on the worker
	// completes. Patches use it, which is why patch commands need no
	// before sets.
	Barrier bool
}

// Kind implements Msg.
func (*SpawnCommands) Kind() MsgKind { return KindSpawnCommands }

func (m *SpawnCommands) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.Bool(&m.Barrier)
	wire.EachPtr(c, &m.Cmds, (*command.Command).Fields)
}

// InstallTemplate installs a worker template: the worker's slice of a basic
// block with index-based dependencies (paper §4.1, Figure 5b).
type InstallTemplate struct {
	// Job namespaces the installed template: two jobs may install
	// templates with the same name (and, with per-job ID allocators, the
	// same TemplateID) without colliding.
	Job      ids.JobID
	Template ids.TemplateID
	Name     string
	Entries  []command.TemplateEntry
}

// Kind implements Msg.
func (*InstallTemplate) Kind() MsgKind { return KindInstallTemplate }

func (m *InstallTemplate) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	wire.Uv(c, &m.Template)
	c.Str(&m.Name)
	wire.Each(c, &m.Entries, (*command.TemplateEntry).Fields)
}

// InstantiateTemplate executes an installed worker template: one message
// per worker per block in the steady state (paper §2.2). Edits, if present,
// are applied to the installed template before materialization (paper
// §4.3). DoneWatermark tells the worker that every command with an ID below
// it has been fully accounted for, letting it prune its completion set.
type InstantiateTemplate struct {
	// Job selects the namespace the template was installed under. It is
	// the only multi-tenancy cost on the steady-state fan-out path: one
	// varint per message.
	Job      ids.JobID
	Template ids.TemplateID
	// Instance identifies this instantiation for BlockDone reporting.
	Instance uint64
	// Base is the first CommandID of the instance's contiguous ID block.
	Base ids.CommandID
	// ParamArray is indexed by the entries' ParamSlot values.
	ParamArray []params.Blob
	// Edits are applied (persistently) before materialization.
	Edits []command.Edit
	// DoneWatermark allows pruning the worker's completed-command set.
	DoneWatermark ids.CommandID
}

// Kind implements Msg.
func (*InstantiateTemplate) Kind() MsgKind { return KindInstantiateTemplate }

func (m *InstantiateTemplate) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	wire.Uv(c, &m.Template)
	c.U64(&m.Instance)
	wire.Uv(c, &m.Base)
	wire.List(c, &m.ParamArray, wire.BytesOf[params.Blob])
	wire.Each(c, &m.Edits, (*command.Edit).Fields)
	wire.Uv(c, &m.DoneWatermark)
}

// InstallPatch caches a patch (a small block of copy commands that
// satisfies template preconditions) on a worker so later instantiations of
// the same control-flow transition cost one message (paper §4.2).
type InstallPatch struct {
	Job     ids.JobID
	Patch   ids.PatchID
	Entries []command.TemplateEntry
}

// Kind implements Msg.
func (*InstallPatch) Kind() MsgKind { return KindInstallPatch }

func (m *InstallPatch) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	wire.Uv(c, &m.Patch)
	wire.Each(c, &m.Entries, (*command.TemplateEntry).Fields)
}

// InstantiatePatch executes a cached patch.
type InstantiatePatch struct {
	Job   ids.JobID
	Patch ids.PatchID
	Base  ids.CommandID
}

// Kind implements Msg.
func (*InstantiatePatch) Kind() MsgKind { return KindInstantiatePatch }

func (m *InstantiatePatch) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	wire.Uv(c, &m.Patch)
	wire.Uv(c, &m.Base)
}

// Halt tells a worker to stop executing one job's work, flush that job's
// queues and acknowledge (fault recovery, paper §4.4). Halts are
// job-scoped: recovery of one failed job must not flush another job's
// in-flight arenas.
type Halt struct {
	Job ids.JobID
	Seq uint64
}

// Kind implements Msg.
func (*Halt) Kind() MsgKind { return KindHalt }

func (m *Halt) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.U64(&m.Seq)
}

// HaltAck acknowledges a Halt.
type HaltAck struct {
	Job    ids.JobID
	Seq    uint64
	Worker ids.WorkerID
}

// Kind implements Msg.
func (*HaltAck) Kind() MsgKind { return KindHaltAck }

func (m *HaltAck) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.U64(&m.Seq)
	wire.Uv(c, &m.Worker)
}

// SaveFailed reports a durable Save that errored on a worker
// (worker → controller). It is sent immediately — ahead of the batched
// Complete for the same command on the FIFO control link — so the
// controller learns of the failure before the checkpoint could commit
// and aborts it instead of committing a manifest that references an
// object that was never durably written.
type SaveFailed struct {
	Job     ids.JobID
	Ckpt    uint64
	Logical ids.LogicalID
	Err     string
}

// Kind implements Msg.
func (*SaveFailed) Kind() MsgKind { return KindSaveFailed }

func (m *SaveFailed) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.U64(&m.Ckpt)
	wire.Uv(c, &m.Logical)
	c.Str(&m.Err)
}

// Resume lifts one job's Halt.
type Resume struct {
	Job ids.JobID
}

// Kind implements Msg.
func (*Resume) Kind() MsgKind { return KindResume }

func (m *Resume) fields(c *wire.Coder) { wire.Uv(c, &m.Job) }

// ---------------------------------------------------------------------------
// Worker → controller

// Complete reports finished commands. Workers batch completions to keep
// control traffic proportional to progress, not task count; in central
// (Spark-like) mode every command is reported individually because the
// controller dispatches successors itself.
type Complete struct {
	// Job scopes the completions: command IDs are allocated per job, so
	// the controller must route them to the right job's outstanding set.
	Job    ids.JobID
	Worker ids.WorkerID
	IDs    []ids.CommandID
}

// Kind implements Msg.
func (*Complete) Kind() MsgKind { return KindComplete }

func (m *Complete) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	wire.Uv(c, &m.Worker)
	wire.List(c, &m.IDs, wire.Uv[ids.CommandID])
}

// BlockDone reports that every command of a template instance assigned to
// this worker has completed.
type BlockDone struct {
	Job      ids.JobID
	Worker   ids.WorkerID
	Instance uint64
}

// Kind implements Msg.
func (*BlockDone) Kind() MsgKind { return KindBlockDone }

func (m *BlockDone) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	wire.Uv(c, &m.Worker)
	c.U64(&m.Instance)
}

// Heartbeat carries liveness and load statistics. Missed heartbeats mark a
// worker failed (paper §4.4).
type Heartbeat struct {
	Worker  ids.WorkerID
	Pending int
	Done    uint64
}

// Kind implements Msg.
func (*Heartbeat) Kind() MsgKind { return KindHeartbeat }

func (m *Heartbeat) fields(c *wire.Coder) {
	wire.Uv(c, &m.Worker)
	wire.Uv(c, &m.Pending)
	c.U64(&m.Done)
}

// FetchObject asks a worker for a physical object's contents (serving
// driver Gets and checkpoint verification).
type FetchObject struct {
	// Job selects the datastore namespace to read from (object IDs are
	// allocated per job).
	Job    ids.JobID
	Seq    uint64
	Object ids.ObjectID
}

// Kind implements Msg.
func (*FetchObject) Kind() MsgKind { return KindFetchObject }

func (m *FetchObject) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.U64(&m.Seq)
	wire.Uv(c, &m.Object)
}

// ObjectData answers FetchObject.
type ObjectData struct {
	Seq     uint64
	Object  ids.ObjectID
	Version uint64
	Data    []byte
}

// Kind implements Msg.
func (*ObjectData) Kind() MsgKind { return KindObjectData }

func (m *ObjectData) fields(c *wire.Coder) {
	c.U64(&m.Seq)
	wire.Uv(c, &m.Object)
	c.U64(&m.Version)
	wire.BytesOf(c, &m.Data)
}

// ---------------------------------------------------------------------------
// Worker ↔ worker (data plane)

// DataPayload pushes object contents to the worker running the matching
// CopyRecv command (paper §3.4: asynchronous push model).
type DataPayload struct {
	// Job routes the payload to the destination command's namespace:
	// command and object IDs are per-job, so the data plane must carry
	// the job alongside them.
	Job        ids.JobID
	DstCommand ids.CommandID
	Object     ids.ObjectID
	Logical    ids.LogicalID
	Version    uint64
	Data       []byte
}

// Kind implements Msg.
func (*DataPayload) Kind() MsgKind { return KindDataPayload }

func (m *DataPayload) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	wire.Uv(c, &m.DstCommand)
	wire.Uv(c, &m.Object)
	wire.Uv(c, &m.Logical)
	c.U64(&m.Version)
	wire.BytesOf(c, &m.Data)
}

// DataChunk flag bits. Bit 0 marked flate-compressed chunks until that
// option was deleted (it never beat the wire it saved); it stays retired,
// and a receiver aborts a transfer carrying any bit it does not know.
const (
	// ChunkFetch marks a chunked FetchObject reply riding the control
	// connection: Fetch carries the FetchObject sequence number and the
	// controller reassembles the chunks into one ObjectData.
	ChunkFetch uint8 = 1 << 1
)

// DataChunk is one slice of a streamed transfer. Large objects no longer
// travel as monolithic DataPayload frames: the sender slices them into
// fixed-size chunks so the receiver can bound its reassembly memory
// (spilling to disk past a budget) and meter the sender with per-transfer
// credits. Every chunk repeats the routing header — a handful of varints
// against a quarter-megabyte body — so chunks are self-describing and the
// receiver needs no per-transfer setup message.
type DataChunk struct {
	Job ids.JobID
	// Xfer identifies the transfer within its connection (sender-unique).
	Xfer uint64
	// Seq is the chunk's position; chunks are sent and landed in order.
	Seq  uint32
	Last bool
	// Flags carries the Chunk* bits.
	Flags uint8
	// DstCommand/Object/Logical/Version mirror DataPayload's routing for
	// copy-command transfers; Fetch carries the FetchObject Seq for
	// ChunkFetch transfers.
	DstCommand ids.CommandID
	Object     ids.ObjectID
	Logical    ids.LogicalID
	Version    uint64
	Fetch      uint64
	// Total is the transfer's full size in bytes; the
	// receiver validates reassembly against it.
	Total uint64
	Raw   []byte
}

// Kind implements Msg.
func (*DataChunk) Kind() MsgKind { return KindDataChunk }

// header walks everything that precedes Raw. Raw is the last field so that
// a sender can put the header and the payload on the wire as two slices.
func (m *DataChunk) header(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.U64(&m.Xfer)
	wire.Uv(c, &m.Seq)
	c.Bool(&m.Last)
	c.Byte(&m.Flags)
	wire.Uv(c, &m.DstCommand)
	wire.Uv(c, &m.Object)
	wire.Uv(c, &m.Logical)
	c.U64(&m.Version)
	c.U64(&m.Fetch)
	c.U64(&m.Total)
}

// fields is the header plus Raw, the one field a decoder may leave as a
// window into the frame (ForEachMsgAliasChunks).
func (m *DataChunk) fields(c *wire.Coder) {
	m.header(c)
	c.Window(&m.Raw)
}

// AppendChunkHeader appends the encoding of m up to, not including, Raw's
// bytes: AppendChunkHeader(buf, m) followed by m.Raw is byte for byte
// MarshalAppend(buf, m). Senders hand the two to transport.SendVec so the
// payload is never copied into an encode buffer.
func AppendChunkHeader(buf []byte, m *DataChunk) []byte {
	c := wire.Coder{W: wire.Writer{Buf: buf}}
	c.W.Byte(byte(KindDataChunk))
	m.header(&c)
	c.W.Uvarint(uint64(len(m.Raw)))
	return c.W.Buf
}

// DataCredit replenishes a transfer's flow-control window: the receiver
// grants Chunks more chunks as it lands (or spills) previous ones, keeping
// the amount of data in flight toward a slow receiver bounded.
type DataCredit struct {
	Xfer   uint64
	Chunks uint32
}

// Kind implements Msg.
func (*DataCredit) Kind() MsgKind { return KindDataCredit }

func (m *DataCredit) fields(c *wire.Coder) {
	c.U64(&m.Xfer)
	wire.Uv(c, &m.Chunks)
}

// XferAbort cancels a transfer (receiver → sender): the receiver hit a
// protocol violation (sequence gap, corrupt chunk, size overflow) or lost
// interest (job teardown). The sender drops the transfer's unsent chunks.
type XferAbort struct {
	Xfer   uint64
	Reason string
}

// Kind implements Msg.
func (*XferAbort) Kind() MsgKind { return KindXferAbort }

func (m *XferAbort) fields(c *wire.Coder) {
	c.U64(&m.Xfer)
	c.Str(&m.Reason)
}

// ErrorMsg reports a fatal error to the peer.
type ErrorMsg struct {
	Text string
}

// Kind implements Msg.
func (*ErrorMsg) Kind() MsgKind { return KindErrorMsg }

func (m *ErrorMsg) fields(c *wire.Coder) { c.Str(&m.Text) }

// ---------------------------------------------------------------------------
// Controller failover: replication, lease and reconnect reconcile
//
// A hot standby attaches to the primary over the ordinary control listen
// address (ReplAttach), receives one full ReplSnapshot, then tails the
// primary's applied driver ops (ReplOp, acked with ReplAck so the primary
// can bound the replication window), checkpoint commits (ReplCkpt), job
// admissions/teardowns (ReplJobStart/ReplJobEnd) and lease renewals
// (LeaseRenew). After a takeover, workers re-present their identity in
// RegisterWorker and drivers re-bind their job with DriverReattach /
// ReattachAck.

// ReplAttach is the first message a hot-standby controller sends on its
// replication connection. The primary answers with a ReplSnapshot and then
// streams incremental state.
type ReplAttach struct{}

// Kind implements Msg.
func (*ReplAttach) Kind() MsgKind { return KindReplAttach }

func (*ReplAttach) fields(*wire.Coder) {}

// ManifestEntry names one logical object's durably saved version inside a
// replicated checkpoint manifest.
type ManifestEntry struct {
	Logical ids.LogicalID
	Version uint64
}

func (m *ManifestEntry) fields(c *wire.Coder) {
	wire.Uv(c, &m.Logical)
	c.U64(&m.Version)
}

// ReplJob is one job's replicated shadow inside a ReplSnapshot: everything
// a standby needs to rebuild the job after a takeover. Defs carries the
// job's full definition history (variables and template recordings, which
// checkpoints never truncate); Oplog carries the raw ops applied since the
// last committed checkpoint; NextCmd/NextObj are allocator high-water
// marks so a promoted controller never re-issues an ID that live workers
// may still hold state under.
type ReplJob struct {
	Job    ids.JobID
	Name   string
	Weight int
	// Tenant preserves the job's fair-share tenant across a failover.
	Tenant    string
	Applied   uint64
	Ckpt      uint64
	CkptCount uint64
	Manifest  []ManifestEntry
	Defs      [][]byte
	Oplog     [][]byte
	NextCmd   uint64
	NextObj   uint64
}

func (m *ReplJob) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.Str(&m.Name)
	wire.Uv(c, &m.Weight)
	c.Str(&m.Tenant)
	c.U64(&m.Applied)
	c.U64(&m.Ckpt)
	c.U64(&m.CkptCount)
	wire.Each(c, &m.Manifest, (*ManifestEntry).fields)
	wire.List(c, &m.Defs, wire.BytesOf[[]byte])
	wire.List(c, &m.Oplog, wire.BytesOf[[]byte])
	c.U64(&m.NextCmd)
	c.U64(&m.NextObj)
}

// ReplSnapshot is the primary's full state transfer to a freshly attached
// standby: the admitted jobs' shadows plus the identity allocators and the
// live worker roster (the set a promoted controller waits to see
// reconnect before it starts takeover recovery).
type ReplSnapshot struct {
	JobSeq     uint32
	NextWorker uint32
	Workers    []ids.WorkerID
	Jobs       []*ReplJob
}

// Kind implements Msg.
func (*ReplSnapshot) Kind() MsgKind { return KindReplSnapshot }

func (m *ReplSnapshot) fields(c *wire.Coder) {
	wire.Uv(c, &m.JobSeq)
	wire.Uv(c, &m.NextWorker)
	wire.List(c, &m.Workers, wire.Uv[ids.WorkerID])
	wire.EachPtr(c, &m.Jobs, (*ReplJob).fields)
}

// ReplOp streams one applied driver op to the standby. Index is the job's
// cumulative applied-op count (the same counter ReattachAck reports to a
// reattaching driver); Raw is the op's marshaled frame; NextCmd/NextObj
// are the job's allocator high-water marks after applying the op.
type ReplOp struct {
	Job     ids.JobID
	Index   uint64
	NextCmd uint64
	NextObj uint64
	Raw     []byte
}

// Kind implements Msg.
func (*ReplOp) Kind() MsgKind { return KindReplOp }

func (m *ReplOp) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.U64(&m.Index)
	c.U64(&m.NextCmd)
	c.U64(&m.NextObj)
	wire.BytesOf(c, &m.Raw)
}

// ReplAck acknowledges a ReplOp. The primary counts unacked ops and
// queues further driver ops behind the replication window, keeping the
// standby within one applied-op of the primary.
type ReplAck struct {
	Job   ids.JobID
	Index uint64
}

// Kind implements Msg.
func (*ReplAck) Kind() MsgKind { return KindReplAck }

func (m *ReplAck) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.U64(&m.Index)
}

// ReplCkpt replicates a committed checkpoint: the standby adopts the
// manifest and drops the first Drop entries of its shadow oplog (the
// prefix the checkpoint subsumes), mirroring the primary's truncation.
type ReplCkpt struct {
	Job      ids.JobID
	Ckpt     uint64
	Count    uint64
	Drop     uint64
	Manifest []ManifestEntry
}

// Kind implements Msg.
func (*ReplCkpt) Kind() MsgKind { return KindReplCkpt }

func (m *ReplCkpt) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.U64(&m.Ckpt)
	c.U64(&m.Count)
	c.U64(&m.Drop)
	wire.Each(c, &m.Manifest, (*ManifestEntry).fields)
}

// ReplJobStart replicates a job admission that happened after the
// snapshot.
type ReplJobStart struct {
	Job    ids.JobID
	Name   string
	Weight int
	// Tenant preserves the job's fair-share tenant across a failover.
	Tenant string
}

// Kind implements Msg.
func (*ReplJobStart) Kind() MsgKind { return KindReplJobStart }

func (m *ReplJobStart) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.Str(&m.Name)
	wire.Uv(c, &m.Weight)
	c.Str(&m.Tenant)
}

// ReplJobEnd replicates a job teardown: the standby drops the shadow.
type ReplJobEnd struct {
	Job ids.JobID
}

// Kind implements Msg.
func (*ReplJobEnd) Kind() MsgKind { return KindReplJobEnd }

func (m *ReplJobEnd) fields(c *wire.Coder) { wire.Uv(c, &m.Job) }

// LeaseRenew is the primary's leadership lease heartbeat on the
// replication stream (the transport-level lease service). The standby
// promotes itself once TTLMillis elapses without a renewal and the
// replication connection is gone. Epoch increases across takeovers so a
// deposed primary's stale renewals are recognizable.
type LeaseRenew struct {
	Epoch     uint64
	TTLMillis uint64
}

// Kind implements Msg.
func (*LeaseRenew) Kind() MsgKind { return KindLeaseRenew }

func (m *LeaseRenew) fields(c *wire.Coder) {
	c.U64(&m.Epoch)
	c.U64(&m.TTLMillis)
}

// DriverReattach re-binds a driver to its job after a controller switch.
// Name must match the job's admitted name (a cheap identity check).
type DriverReattach struct {
	Job    ids.JobID
	Name   string
	Weight int
}

// Kind implements Msg.
func (*DriverReattach) Kind() MsgKind { return KindDriverReattach }

func (m *DriverReattach) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.Str(&m.Name)
	wire.Uv(c, &m.Weight)
}

// ReattachAck answers a DriverReattach. Applied is the job's cumulative
// applied-op count: the driver re-sends every journaled op with a higher
// index, so the op stream resumes exactly where the controller's state
// ends — nothing lost, nothing applied twice.
type ReattachAck struct {
	Job     ids.JobID
	Applied uint64
	Ok      bool
	Err     string
}

// Kind implements Msg.
func (*ReattachAck) Kind() MsgKind { return KindReattachAck }

func (m *ReattachAck) fields(c *wire.Coder) {
	wire.Uv(c, &m.Job)
	c.U64(&m.Applied)
	c.Bool(&m.Ok)
	c.Str(&m.Err)
}

// ---------------------------------------------------------------------------
// Gateway front door: session multiplexing and bounded admission

// GatewayHello opens a shared gateway connection. Many lightweight driver
// sessions are multiplexed over it as MuxData envelopes; the connection
// itself carries no job identity.
type GatewayHello struct{}

// Kind implements Msg.
func (*GatewayHello) Kind() MsgKind { return KindGatewayHello }

func (*GatewayHello) fields(*wire.Coder) {}

// MuxData carries one session's traffic across a shared gateway
// connection. Raw is a standard frame — a single message or a KindBatch
// batch — decoded with ForEachMsg; the inner protocol is identical to a
// dedicated driver connection's, so the session handshake
// (RegisterDriver/RegisterDriverAck) and every later op ride inside
// envelopes unchanged.
//
// Seq is a per-connection, per-direction envelope counter starting at 1.
// A receiver that observes a gap or disorder treats the whole shared
// connection as corrupt and closes it: a dropped or reordered wire frame
// becomes a connection error (failing only that connection's sessions)
// instead of a silently lost op that would hang a session forever.
type MuxData struct {
	Session uint64
	Seq     uint64
	Raw     []byte
}

// Kind implements Msg.
func (*MuxData) Kind() MsgKind { return KindMuxData }

func (m *MuxData) fields(c *wire.Coder) {
	c.U64(&m.Session)
	c.U64(&m.Seq)
	wire.BytesOf(c, &m.Raw)
}

// SessionClose closes one session on a shared gateway connection — the
// per-session equivalent of a dedicated connection closing. Either side
// may send it; the controller tears the session's job down as if its
// connection dropped, and the driver fails the session's pending futures.
// The dialing side answers the gateway's close with its own, after which
// the gateway forgets the session (transport/mux.go).
type SessionClose struct {
	Session uint64
}

// Kind implements Msg.
func (*SessionClose) Kind() MsgKind { return KindSessionClose }

func (m *SessionClose) fields(c *wire.Coder) { c.U64(&m.Session) }

// Admission rejection codes.
const (
	// RejectQueueFull: the bounded admission queue is at capacity.
	RejectQueueFull uint8 = 1 + iota
	// RejectMaxJobs: the controller is at its MaxJobs cap and the
	// admission queue is disabled.
	RejectMaxJobs
	// RejectRateLimited: the tenant exceeded its admission rate limit.
	RejectRateLimited
	// RejectShuttingDown: the controller is draining.
	RejectShuttingDown
)

// AdmissionReject answers a RegisterDriver the controller will not admit:
// the queue is full, the MaxJobs cap is reached, or the tenant is over its
// rate limit. It replaces block-forever admission — the driver surfaces a
// typed error with the retry hint instead of hanging.
type AdmissionReject struct {
	Code             uint8
	RetryAfterMillis uint64
	Err              string
}

// Kind implements Msg.
func (*AdmissionReject) Kind() MsgKind { return KindAdmissionReject }

func (m *AdmissionReject) fields(c *wire.Coder) {
	c.Byte(&m.Code)
	c.U64(&m.RetryAfterMillis)
	c.Str(&m.Err)
}

// ---------------------------------------------------------------------------
// Elastic fleet lifecycle (hello → ack → warm → ready; drain →
// decommission). A fresh worker that registers while a job is live is
// admitted outside the active set: the controller streams every live job's
// active templates at it and only enters it into placement once the worker
// acknowledges the warm marker — so a new worker never takes traffic with a
// cold template cache.

// FleetWarm is the controller's warm marker: it follows the batch of
// template installs for a joining worker on the FIFO control channel, so
// when the worker sees it every preceding install has been processed and
// compiled. Seq guards against a stale ack after the controller re-plans
// (a build or migration committed mid-warm).
type FleetWarm struct {
	Seq uint64
}

// Kind implements Msg.
func (*FleetWarm) Kind() MsgKind { return KindFleetWarm }

func (m *FleetWarm) fields(c *wire.Coder) { c.U64(&m.Seq) }

// FleetWarmAck is the worker's reply to FleetWarm: all installs up to Seq
// are resident and compiled.
type FleetWarmAck struct {
	Worker ids.WorkerID
	Seq    uint64
}

// Kind implements Msg.
func (*FleetWarmAck) Kind() MsgKind { return KindFleetWarmAck }

func (m *FleetWarmAck) fields(c *wire.Coder) {
	wire.Uv(c, &m.Worker)
	c.U64(&m.Seq)
}

// FleetReady tells a worker it has entered the active set and will start
// receiving traffic: in the turn that admitted it, or once its warm round
// completes.
type FleetReady struct {
	Worker ids.WorkerID
}

// Kind implements Msg.
func (*FleetReady) Kind() MsgKind { return KindFleetReady }

func (m *FleetReady) fields(c *wire.Coder) { wire.Uv(c, &m.Worker) }

// FleetDrain tells a worker it is leaving the fleet: it keeps serving
// in-flight work but the controller has stopped placing new partitions on
// it. FleetDecommission follows once the worker is quiet.
type FleetDrain struct {
	Worker ids.WorkerID
}

// Kind implements Msg.
func (*FleetDrain) Kind() MsgKind { return KindFleetDrain }

func (m *FleetDrain) fields(c *wire.Coder) { wire.Uv(c, &m.Worker) }

// FleetDecommission releases a drained worker: no outstanding commands or
// live data remain on it, and it may shut down.
type FleetDecommission struct {
	Worker ids.WorkerID
}

// Kind implements Msg.
func (*FleetDecommission) Kind() MsgKind { return KindFleetDecommission }

func (m *FleetDecommission) fields(c *wire.Coder) { wire.Uv(c, &m.Worker) }
