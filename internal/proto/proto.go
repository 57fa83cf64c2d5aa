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
package proto

import (
	"fmt"

	"nimbus/internal/command"
	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/wire"
)

// Msg is implemented by every control-plane message.
type Msg interface {
	// Kind returns the message discriminator byte.
	Kind() MsgKind
	encode(w *wire.Writer)
	decode(r *wire.Reader) error
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
	KindWorkerReconnect
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
	KindFleetAnnounce
	KindFleetAdmit
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

// kindNames is the static name table indexed by MsgKind; it exists so
// String never allocates on the hot logging/error paths.
var kindNames = [...]string{
	KindRegisterWorker:      "register-worker",
	KindRegisterWorkerAck:   "register-worker-ack",
	KindRegisterDriver:      "register-driver",
	KindDefineVariable:      "define-variable",
	KindPut:                 "put",
	KindGet:                 "get",
	KindGetResult:           "get-result",
	KindSubmitStage:         "submit-stage",
	KindTemplateStart:       "template-start",
	KindTemplateEnd:         "template-end",
	KindInstantiateBlock:    "instantiate-block",
	KindBarrier:             "barrier",
	KindBarrierDone:         "barrier-done",
	KindCheckpointReq:       "checkpoint",
	KindShutdown:            "shutdown",
	KindSpawnCommands:       "spawn-commands",
	KindInstallTemplate:     "install-template",
	KindInstantiateTemplate: "instantiate-template",
	KindInstallPatch:        "install-patch",
	KindInstantiatePatch:    "instantiate-patch",
	KindComplete:            "complete",
	KindBlockDone:           "block-done",
	KindHeartbeat:           "heartbeat",
	KindFetchObject:         "fetch-object",
	KindObjectData:          "object-data",
	KindHalt:                "halt",
	KindHaltAck:             "halt-ack",
	KindResume:              "resume",
	KindDataPayload:         "data-payload",
	KindErrorMsg:            "error",
	KindRegisterDriverAck:   "register-driver-ack",
	KindJobEnd:              "job-end",
	KindJobQuota:            "job-quota",
	KindInstantiateWhile:    "instantiate-while",
	KindLoopDone:            "loop-done",
	KindReplAttach:          "repl-attach",
	KindReplSnapshot:        "repl-snapshot",
	KindReplOp:              "repl-op",
	KindReplAck:             "repl-ack",
	KindReplCkpt:            "repl-ckpt",
	KindReplJobStart:        "repl-job-start",
	KindReplJobEnd:          "repl-job-end",
	KindLeaseRenew:          "lease-renew",
	KindWorkerReconnect:     "worker-reconnect",
	KindDriverReattach:      "driver-reattach",
	KindReattachAck:         "reattach-ack",
	KindDataChunk:           "data-chunk",
	KindDataCredit:          "data-credit",
	KindXferAbort:           "xfer-abort",
	KindSaveFailed:          "save-failed",
	KindGatewayHello:        "gateway-hello",
	KindMuxData:             "mux-data",
	KindSessionClose:        "session-close",
	KindAdmissionReject:     "admission-reject",
	KindFleetAnnounce:       "fleet-announce",
	KindFleetAdmit:          "fleet-admit",
	KindFleetWarm:           "fleet-warm",
	KindFleetWarmAck:        "fleet-warm-ack",
	KindFleetReady:          "fleet-ready",
	KindFleetDrain:          "fleet-drain",
	KindFleetDecommission:   "fleet-decommission",
}

// String returns the message kind name.
func (k MsgKind) String() string {
	if k == KindBatch {
		return "batch"
	}
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("msg(%d)", uint8(k))
}

// Marshal encodes m with its kind prefix.
func Marshal(m Msg) []byte {
	var w wire.Writer
	w.Buf = make([]byte, 0, 64)
	w.Byte(byte(m.Kind()))
	m.encode(&w)
	return w.Buf
}

// MarshalAppend encodes m (kind prefix included) onto buf and returns the
// extended slice. With a buffer of sufficient capacity — e.g. one from
// GetBuf — it performs no allocations, which is what keeps the controller's
// steady-state instantiation path allocation-free. (The Writer is pooled:
// encode is an interface call, so a stack Writer would escape and cost one
// allocation per message.)
func MarshalAppend(buf []byte, m Msg) []byte {
	w := getWriter(buf)
	w.Byte(byte(m.Kind()))
	m.encode(w)
	return putWriter(w)
}

// MarshalInto encodes m into w (kind prefix included), reusing w's buffer.
func MarshalInto(m Msg, w *wire.Writer) {
	w.Byte(byte(m.Kind()))
	m.encode(w)
}

// Unmarshal decodes one message from b. Batch frames need ForEachMsg.
func Unmarshal(b []byte) (Msg, error) {
	r := wire.NewReader(b)
	kind := MsgKind(r.Byte())
	if r.Err != nil {
		return nil, r.Err
	}
	return unmarshalBody(kind, r, false)
}

func newMsg(kind MsgKind) Msg {
	switch kind {
	case KindRegisterWorker:
		return &RegisterWorker{}
	case KindRegisterWorkerAck:
		return &RegisterWorkerAck{}
	case KindRegisterDriver:
		return &RegisterDriver{}
	case KindDefineVariable:
		return &DefineVariable{}
	case KindPut:
		return &Put{}
	case KindGet:
		return &Get{}
	case KindGetResult:
		return &GetResult{}
	case KindSubmitStage:
		return &SubmitStage{}
	case KindTemplateStart:
		return &TemplateStart{}
	case KindTemplateEnd:
		return &TemplateEnd{}
	case KindInstantiateBlock:
		return &InstantiateBlock{}
	case KindBarrier:
		return &Barrier{}
	case KindBarrierDone:
		return &BarrierDone{}
	case KindCheckpointReq:
		return &CheckpointReq{}
	case KindShutdown:
		return &Shutdown{}
	case KindSpawnCommands:
		return &SpawnCommands{}
	case KindInstallTemplate:
		return &InstallTemplate{}
	case KindInstantiateTemplate:
		return &InstantiateTemplate{}
	case KindInstallPatch:
		return &InstallPatch{}
	case KindInstantiatePatch:
		return &InstantiatePatch{}
	case KindComplete:
		return &Complete{}
	case KindBlockDone:
		return &BlockDone{}
	case KindHeartbeat:
		return &Heartbeat{}
	case KindFetchObject:
		return &FetchObject{}
	case KindObjectData:
		return &ObjectData{}
	case KindHalt:
		return &Halt{}
	case KindHaltAck:
		return &HaltAck{}
	case KindResume:
		return &Resume{}
	case KindDataPayload:
		return &DataPayload{}
	case KindErrorMsg:
		return &ErrorMsg{}
	case KindRegisterDriverAck:
		return &RegisterDriverAck{}
	case KindJobEnd:
		return &JobEnd{}
	case KindJobQuota:
		return &JobQuota{}
	case KindInstantiateWhile:
		return &InstantiateWhile{}
	case KindLoopDone:
		return &LoopDone{}
	case KindReplAttach:
		return &ReplAttach{}
	case KindReplSnapshot:
		return &ReplSnapshot{}
	case KindReplOp:
		return &ReplOp{}
	case KindReplAck:
		return &ReplAck{}
	case KindReplCkpt:
		return &ReplCkpt{}
	case KindReplJobStart:
		return &ReplJobStart{}
	case KindReplJobEnd:
		return &ReplJobEnd{}
	case KindLeaseRenew:
		return &LeaseRenew{}
	case KindWorkerReconnect:
		return &WorkerReconnect{}
	case KindDriverReattach:
		return &DriverReattach{}
	case KindReattachAck:
		return &ReattachAck{}
	case KindDataChunk:
		return &DataChunk{}
	case KindDataCredit:
		return &DataCredit{}
	case KindXferAbort:
		return &XferAbort{}
	case KindSaveFailed:
		return &SaveFailed{}
	case KindGatewayHello:
		return &GatewayHello{}
	case KindMuxData:
		return &MuxData{}
	case KindSessionClose:
		return &SessionClose{}
	case KindAdmissionReject:
		return &AdmissionReject{}
	case KindFleetAnnounce:
		return &FleetAnnounce{}
	case KindFleetAdmit:
		return &FleetAdmit{}
	case KindFleetWarm:
		return &FleetWarm{}
	case KindFleetWarmAck:
		return &FleetWarmAck{}
	case KindFleetReady:
		return &FleetReady{}
	case KindFleetDrain:
		return &FleetDrain{}
	case KindFleetDecommission:
		return &FleetDecommission{}
	default:
		return nil
	}
}

// ---------------------------------------------------------------------------
// Registration

// RegisterWorker is the first message a worker sends to the controller.
// DataAddr is the worker's data-plane listen address, which the controller
// distributes so workers can exchange data directly (control-plane
// requirement 2, paper §3.1).
type RegisterWorker struct {
	DataAddr string
	// Slots is the number of tasks the worker executes concurrently
	// (c3.2xlarge workers in the paper have 8 cores).
	Slots int
}

// Kind implements Msg.
func (*RegisterWorker) Kind() MsgKind { return KindRegisterWorker }

func (m *RegisterWorker) encode(w *wire.Writer) {
	w.String(m.DataAddr)
	w.Uvarint(uint64(m.Slots))
}

func (m *RegisterWorker) decode(r *wire.Reader) error {
	m.DataAddr = r.String()
	m.Slots = int(r.Uvarint())
	return r.Err
}

// RegisterWorkerAck assigns the worker its ID and tells it about its peers'
// data-plane addresses. Peers is keyed by worker ID; updates arrive as new
// workers join.
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

func (m *RegisterWorkerAck) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Worker))
	w.Uvarint(uint64(len(m.Peers)))
	for id, addr := range m.Peers {
		w.Uvarint(uint64(id))
		w.String(addr)
	}
	w.Bool(m.Eager)
}

func (m *RegisterWorkerAck) decode(r *wire.Reader) error {
	m.Worker = ids.WorkerID(r.Uvarint())
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.Peers = make(map[ids.WorkerID]string, n)
	for i := 0; i < n; i++ {
		id := ids.WorkerID(r.Uvarint())
		m.Peers[id] = r.String()
	}
	m.Eager = r.Bool()
	return r.Err
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

func (m *RegisterDriver) encode(w *wire.Writer) {
	w.String(m.Name)
	w.Uvarint(uint64(m.Weight))
	w.String(m.Tenant)
	w.Byte(m.Priority)
}

func (m *RegisterDriver) decode(r *wire.Reader) error {
	m.Name = r.String()
	m.Weight = int(r.Uvarint())
	m.Tenant = r.String()
	m.Priority = r.Byte()
	return r.Err
}

// RegisterDriverAck admits a driver and hands it its job handle.
type RegisterDriverAck struct {
	Job ids.JobID
}

// Kind implements Msg.
func (*RegisterDriverAck) Kind() MsgKind { return KindRegisterDriverAck }

func (m *RegisterDriverAck) encode(w *wire.Writer) { w.Uvarint(uint64(m.Job)) }

func (m *RegisterDriverAck) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	return r.Err
}

// JobEnd ends a job. Driver → controller it is the graceful variant of a
// disconnect (the controller tears the job down either way); controller →
// worker it tells the worker to drop the job's entire namespace —
// templates, patches, arenas, completion records and datastore objects.
type JobEnd struct {
	Job ids.JobID
}

// Kind implements Msg.
func (*JobEnd) Kind() MsgKind { return KindJobEnd }

func (m *JobEnd) encode(w *wire.Writer) { w.Uvarint(uint64(m.Job)) }

func (m *JobEnd) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	return r.Err
}

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

func (m *JobQuota) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(uint64(m.Slots))
}

func (m *JobQuota) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Slots = int(r.Uvarint())
	return r.Err
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

func (m *DefineVariable) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Var))
	w.String(m.Name)
	w.Uvarint(uint64(m.Partitions))
}

func (m *DefineVariable) decode(r *wire.Reader) error {
	m.Var = ids.VariableID(r.Uvarint())
	m.Name = r.String()
	m.Partitions = int(r.Uvarint())
	return r.Err
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

func (m *Put) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Var))
	w.Uvarint(uint64(m.Partition))
	w.Bytes(m.Data)
}

func (m *Put) decode(r *wire.Reader) error {
	m.Var = ids.VariableID(r.Uvarint())
	m.Partition = int(r.Uvarint())
	m.Data = r.BytesCopy()
	return r.Err
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

func (m *Get) encode(w *wire.Writer) {
	w.Uvarint(m.Seq)
	w.Uvarint(uint64(m.Var))
	w.Uvarint(uint64(m.Partition))
}

func (m *Get) decode(r *wire.Reader) error {
	m.Seq = r.Uvarint()
	m.Var = ids.VariableID(r.Uvarint())
	m.Partition = int(r.Uvarint())
	return r.Err
}

// GetResult answers a Get.
type GetResult struct {
	Seq  uint64
	Data []byte
}

// Kind implements Msg.
func (*GetResult) Kind() MsgKind { return KindGetResult }

func (m *GetResult) encode(w *wire.Writer) {
	w.Uvarint(m.Seq)
	w.Bytes(m.Data)
}

func (m *GetResult) decode(r *wire.Reader) error {
	m.Seq = r.Uvarint()
	m.Data = r.BytesCopy()
	return r.Err
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

func (v *VarRef) encode(w *wire.Writer) {
	w.Uvarint(uint64(v.Var))
	w.Bool(v.Write)
	w.Byte(byte(v.Pattern))
	w.Uvarint(uint64(v.Fixed))
}

func (v *VarRef) decode(r *wire.Reader) error {
	v.Var = ids.VariableID(r.Uvarint())
	v.Write = r.Bool()
	v.Pattern = AccessPattern(r.Byte())
	v.Fixed = int(r.Uvarint())
	return r.Err
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

func (m *SubmitStage) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Stage))
	w.Uvarint(uint64(m.Fn))
	w.Uvarint(uint64(m.Tasks))
	w.Uvarint(uint64(len(m.Refs)))
	for i := range m.Refs {
		m.Refs[i].encode(w)
	}
	w.Bytes(m.Params)
	w.Uvarint(uint64(len(m.PerTask)))
	for _, p := range m.PerTask {
		w.Bytes(p)
	}
}

func (m *SubmitStage) decode(r *wire.Reader) error {
	m.Stage = ids.StageID(r.Uvarint())
	m.Fn = ids.FunctionID(r.Uvarint())
	m.Tasks = int(r.Uvarint())
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.Refs = make([]VarRef, n)
	for i := range m.Refs {
		if err := m.Refs[i].decode(r); err != nil {
			return err
		}
	}
	m.Params = params.Blob(r.BytesCopy())
	np := r.Count()
	if r.Err != nil {
		return r.Err
	}
	if np > 0 {
		m.PerTask = make([]params.Blob, np)
		for i := range m.PerTask {
			m.PerTask[i] = params.Blob(r.BytesCopy())
		}
	}
	return r.Err
}

// TemplateStart marks the beginning of a basic block in the driver's task
// stream (paper §4.1: the programmer marks basic blocks explicitly).
type TemplateStart struct {
	Name string
}

// Kind implements Msg.
func (*TemplateStart) Kind() MsgKind { return KindTemplateStart }

func (m *TemplateStart) encode(w *wire.Writer) { w.String(m.Name) }

func (m *TemplateStart) decode(r *wire.Reader) error {
	m.Name = r.String()
	return r.Err
}

// TemplateEnd marks the end of a basic block. On receipt the controller
// post-processes the recorded task graph into a controller template and
// generates the associated worker templates.
type TemplateEnd struct {
	Name string
}

// Kind implements Msg.
func (*TemplateEnd) Kind() MsgKind { return KindTemplateEnd }

func (m *TemplateEnd) encode(w *wire.Writer) { w.String(m.Name) }

func (m *TemplateEnd) decode(r *wire.Reader) error {
	m.Name = r.String()
	return r.Err
}

// InstantiateBlock asks the controller to execute an installed controller
// template again. ParamArray is indexed by the parameter slots recorded at
// install time (one slot per parameterized stage).
type InstantiateBlock struct {
	Name       string
	ParamArray []params.Blob
}

// Kind implements Msg.
func (*InstantiateBlock) Kind() MsgKind { return KindInstantiateBlock }

func (m *InstantiateBlock) encode(w *wire.Writer) {
	w.String(m.Name)
	w.Uvarint(uint64(len(m.ParamArray)))
	for _, p := range m.ParamArray {
		w.Bytes(p)
	}
}

func (m *InstantiateBlock) decode(r *wire.Reader) error {
	m.Name = r.String()
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.ParamArray = make([]params.Blob, n)
	for i := range m.ParamArray {
		m.ParamArray[i] = params.Blob(r.BytesCopy())
	}
	return r.Err
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

// Holds evaluates the predicate against a fetched scalar.
func (p Pred) Holds(v float64) bool { return p.Op.Holds(v, p.Threshold) }

func (p *Pred) encode(w *wire.Writer) {
	w.Uvarint(uint64(p.Var))
	w.Uvarint(uint64(p.Partition))
	w.Byte(byte(p.Op))
	w.Float64(p.Threshold)
}

func (p *Pred) decode(r *wire.Reader) error {
	p.Var = ids.VariableID(r.Uvarint())
	p.Partition = int(r.Uvarint())
	p.Op = PredOp(r.Byte())
	p.Threshold = r.Float64()
	return r.Err
}

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

func (m *InstantiateWhile) encode(w *wire.Writer) {
	w.Uvarint(m.Seq)
	w.String(m.Name)
	m.Pred.encode(w)
	w.Uvarint(uint64(m.MaxIters))
	w.Uvarint(uint64(len(m.ParamArray)))
	for _, p := range m.ParamArray {
		w.Bytes(p)
	}
}

func (m *InstantiateWhile) decode(r *wire.Reader) error {
	m.Seq = r.Uvarint()
	m.Name = r.String()
	if err := m.Pred.decode(r); err != nil {
		return err
	}
	m.MaxIters = int(r.Uvarint())
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.ParamArray = make([]params.Blob, n)
	for i := range m.ParamArray {
		m.ParamArray[i] = params.Blob(r.BytesCopy())
	}
	return r.Err
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

func (m *LoopDone) encode(w *wire.Writer) {
	w.Uvarint(m.Seq)
	w.Uvarint(uint64(m.Iters))
	w.Float64(m.LastValue)
	w.String(m.Err)
}

func (m *LoopDone) decode(r *wire.Reader) error {
	m.Seq = r.Uvarint()
	m.Iters = int(r.Uvarint())
	m.LastValue = r.Float64()
	m.Err = r.String()
	return r.Err
}

// Barrier asks the controller to reply (BarrierDone) once all previously
// submitted work has completed.
type Barrier struct {
	Seq uint64
}

// Kind implements Msg.
func (*Barrier) Kind() MsgKind { return KindBarrier }

func (m *Barrier) encode(w *wire.Writer) { w.Uvarint(m.Seq) }

func (m *Barrier) decode(r *wire.Reader) error {
	m.Seq = r.Uvarint()
	return r.Err
}

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

func (m *BarrierDone) encode(w *wire.Writer) {
	w.Uvarint(m.Seq)
	w.Uvarint(m.Applied)
	w.String(m.Err)
}

func (m *BarrierDone) decode(r *wire.Reader) error {
	m.Seq = r.Uvarint()
	m.Applied = r.Uvarint()
	m.Err = r.String()
	return r.Err
}

// CheckpointReq asks the controller to take a checkpoint (paper §4.4):
// drain worker queues, snapshot the execution state, save live objects.
type CheckpointReq struct {
	Seq uint64
}

// Kind implements Msg.
func (*CheckpointReq) Kind() MsgKind { return KindCheckpointReq }

func (m *CheckpointReq) encode(w *wire.Writer) { w.Uvarint(m.Seq) }

func (m *CheckpointReq) decode(r *wire.Reader) error {
	m.Seq = r.Uvarint()
	return r.Err
}

// Shutdown terminates a node.
type Shutdown struct{}

// Kind implements Msg.
func (*Shutdown) Kind() MsgKind { return KindShutdown }

func (m *Shutdown) encode(*wire.Writer)         {}
func (m *Shutdown) decode(r *wire.Reader) error { return r.Err }

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

func (m *SpawnCommands) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Bool(m.Barrier)
	w.Uvarint(uint64(len(m.Cmds)))
	for _, c := range m.Cmds {
		c.Encode(w)
	}
}

func (m *SpawnCommands) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Barrier = r.Bool()
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.Cmds = make([]*command.Command, n)
	for i := range m.Cmds {
		m.Cmds[i] = &command.Command{}
		if err := m.Cmds[i].Decode(r); err != nil {
			return err
		}
	}
	return r.Err
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

func (m *InstallTemplate) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(uint64(m.Template))
	w.String(m.Name)
	w.Uvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].Encode(w)
	}
}

func (m *InstallTemplate) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Template = ids.TemplateID(r.Uvarint())
	m.Name = r.String()
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.Entries = make([]command.TemplateEntry, n)
	for i := range m.Entries {
		if err := m.Entries[i].Decode(r); err != nil {
			return err
		}
	}
	return r.Err
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

func (m *InstantiateTemplate) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(uint64(m.Template))
	w.Uvarint(m.Instance)
	w.Uvarint(uint64(m.Base))
	w.Uvarint(uint64(len(m.ParamArray)))
	for _, p := range m.ParamArray {
		w.Bytes(p)
	}
	w.Uvarint(uint64(len(m.Edits)))
	for i := range m.Edits {
		m.Edits[i].Encode(w)
	}
	w.Uvarint(uint64(m.DoneWatermark))
}

func (m *InstantiateTemplate) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Template = ids.TemplateID(r.Uvarint())
	m.Instance = r.Uvarint()
	m.Base = ids.CommandID(r.Uvarint())
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.ParamArray = make([]params.Blob, n)
	for i := range m.ParamArray {
		m.ParamArray[i] = params.Blob(r.BytesCopy())
	}
	ne := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.Edits = make([]command.Edit, ne)
	for i := range m.Edits {
		if err := m.Edits[i].Decode(r); err != nil {
			return err
		}
	}
	m.DoneWatermark = ids.CommandID(r.Uvarint())
	return r.Err
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

func (m *InstallPatch) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(uint64(m.Patch))
	w.Uvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].Encode(w)
	}
}

func (m *InstallPatch) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Patch = ids.PatchID(r.Uvarint())
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.Entries = make([]command.TemplateEntry, n)
	for i := range m.Entries {
		if err := m.Entries[i].Decode(r); err != nil {
			return err
		}
	}
	return r.Err
}

// InstantiatePatch executes a cached patch.
type InstantiatePatch struct {
	Job   ids.JobID
	Patch ids.PatchID
	Base  ids.CommandID
}

// Kind implements Msg.
func (*InstantiatePatch) Kind() MsgKind { return KindInstantiatePatch }

func (m *InstantiatePatch) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(uint64(m.Patch))
	w.Uvarint(uint64(m.Base))
}

func (m *InstantiatePatch) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Patch = ids.PatchID(r.Uvarint())
	m.Base = ids.CommandID(r.Uvarint())
	return r.Err
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

func (m *Halt) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(m.Seq)
}

func (m *Halt) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Seq = r.Uvarint()
	return r.Err
}

// HaltAck acknowledges a Halt.
type HaltAck struct {
	Job    ids.JobID
	Seq    uint64
	Worker ids.WorkerID
}

// Kind implements Msg.
func (*HaltAck) Kind() MsgKind { return KindHaltAck }

func (m *HaltAck) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(m.Seq)
	w.Uvarint(uint64(m.Worker))
}

func (m *HaltAck) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Seq = r.Uvarint()
	m.Worker = ids.WorkerID(r.Uvarint())
	return r.Err
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

func (m *SaveFailed) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(m.Ckpt)
	w.Uvarint(uint64(m.Logical))
	w.String(m.Err)
}

func (m *SaveFailed) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Ckpt = r.Uvarint()
	m.Logical = ids.LogicalID(r.Uvarint())
	m.Err = r.String()
	return r.Err
}

// Resume lifts one job's Halt.
type Resume struct {
	Job ids.JobID
}

// Kind implements Msg.
func (*Resume) Kind() MsgKind { return KindResume }

func (m *Resume) encode(w *wire.Writer) { w.Uvarint(uint64(m.Job)) }

func (m *Resume) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	return r.Err
}

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

func (m *Complete) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(uint64(m.Worker))
	w.Uvarint(uint64(len(m.IDs)))
	for _, id := range m.IDs {
		w.Uvarint(uint64(id))
	}
}

func (m *Complete) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Worker = ids.WorkerID(r.Uvarint())
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.IDs = make([]ids.CommandID, n)
	for i := range m.IDs {
		m.IDs[i] = ids.CommandID(r.Uvarint())
	}
	return r.Err
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

func (m *BlockDone) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(uint64(m.Worker))
	w.Uvarint(m.Instance)
}

func (m *BlockDone) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Worker = ids.WorkerID(r.Uvarint())
	m.Instance = r.Uvarint()
	return r.Err
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

func (m *Heartbeat) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Worker))
	w.Uvarint(uint64(m.Pending))
	w.Uvarint(m.Done)
}

func (m *Heartbeat) decode(r *wire.Reader) error {
	m.Worker = ids.WorkerID(r.Uvarint())
	m.Pending = int(r.Uvarint())
	m.Done = r.Uvarint()
	return r.Err
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

func (m *FetchObject) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(m.Seq)
	w.Uvarint(uint64(m.Object))
}

func (m *FetchObject) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Seq = r.Uvarint()
	m.Object = ids.ObjectID(r.Uvarint())
	return r.Err
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

func (m *ObjectData) encode(w *wire.Writer) {
	w.Uvarint(m.Seq)
	w.Uvarint(uint64(m.Object))
	w.Uvarint(m.Version)
	w.Bytes(m.Data)
}

func (m *ObjectData) decode(r *wire.Reader) error {
	m.Seq = r.Uvarint()
	m.Object = ids.ObjectID(r.Uvarint())
	m.Version = r.Uvarint()
	m.Data = r.BytesCopy()
	return r.Err
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

func (m *DataPayload) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(uint64(m.DstCommand))
	w.Uvarint(uint64(m.Object))
	w.Uvarint(uint64(m.Logical))
	w.Uvarint(m.Version)
	w.Bytes(m.Data)
}

func (m *DataPayload) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.DstCommand = ids.CommandID(r.Uvarint())
	m.Object = ids.ObjectID(r.Uvarint())
	m.Logical = ids.LogicalID(r.Uvarint())
	m.Version = r.Uvarint()
	m.Data = r.BytesCopy()
	return r.Err
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

func (m *DataChunk) encode(w *wire.Writer) {
	m.encodeHeader(w)
	w.Buf = append(w.Buf, m.Raw...)
}

// encodeHeader writes everything that precedes Raw's bytes, its length
// prefix included. Raw is the last field so that a sender can put the
// header and the payload on the wire as two slices.
func (m *DataChunk) encodeHeader(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(m.Xfer)
	w.Uvarint(uint64(m.Seq))
	w.Bool(m.Last)
	w.Byte(m.Flags)
	w.Uvarint(uint64(m.DstCommand))
	w.Uvarint(uint64(m.Object))
	w.Uvarint(uint64(m.Logical))
	w.Uvarint(m.Version)
	w.Uvarint(m.Fetch)
	w.Uvarint(m.Total)
	w.Uvarint(uint64(len(m.Raw)))
}

// AppendChunkHeader appends the encoding of m up to, not including, Raw's
// bytes: AppendChunkHeader(buf, m) followed by m.Raw is byte for byte
// MarshalAppend(buf, m). Senders hand the two to transport.SendVec so the
// payload is never copied into an encode buffer.
func AppendChunkHeader(buf []byte, m *DataChunk) []byte {
	w := wire.Writer{Buf: buf}
	w.Byte(byte(KindDataChunk))
	m.encodeHeader(&w)
	return w.Buf
}

func (m *DataChunk) decode(r *wire.Reader) error {
	m.decodeHeader(r)
	m.Raw = r.BytesCopy()
	return r.Err
}

// decodeAliased is decode with Raw left as a window into r's buffer
// (ForEachMsgAliasChunks).
func (m *DataChunk) decodeAliased(r *wire.Reader) error {
	m.decodeHeader(r)
	m.Raw = r.Bytes()
	return r.Err
}

// decodeHeader reads every field but Raw, leaving r at Raw's length prefix.
func (m *DataChunk) decodeHeader(r *wire.Reader) {
	m.Job = ids.JobID(r.Uvarint())
	m.Xfer = r.Uvarint()
	m.Seq = uint32(r.Uvarint())
	m.Last = r.Bool()
	m.Flags = r.Byte()
	m.DstCommand = ids.CommandID(r.Uvarint())
	m.Object = ids.ObjectID(r.Uvarint())
	m.Logical = ids.LogicalID(r.Uvarint())
	m.Version = r.Uvarint()
	m.Fetch = r.Uvarint()
	m.Total = r.Uvarint()
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

func (m *DataCredit) encode(w *wire.Writer) {
	w.Uvarint(m.Xfer)
	w.Uvarint(uint64(m.Chunks))
}

func (m *DataCredit) decode(r *wire.Reader) error {
	m.Xfer = r.Uvarint()
	m.Chunks = uint32(r.Uvarint())
	return r.Err
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

func (m *XferAbort) encode(w *wire.Writer) {
	w.Uvarint(m.Xfer)
	w.String(m.Reason)
}

func (m *XferAbort) decode(r *wire.Reader) error {
	m.Xfer = r.Uvarint()
	m.Reason = r.String()
	return r.Err
}

// ErrorMsg reports a fatal error to the peer.
type ErrorMsg struct {
	Text string
}

// Kind implements Msg.
func (*ErrorMsg) Kind() MsgKind { return KindErrorMsg }

func (m *ErrorMsg) encode(w *wire.Writer) { w.String(m.Text) }

func (m *ErrorMsg) decode(r *wire.Reader) error {
	m.Text = r.String()
	return r.Err
}

// ---------------------------------------------------------------------------
// Controller failover: replication, lease and reconnect reconcile
//
// A hot standby attaches to the primary over the ordinary control listen
// address (ReplAttach), receives one full ReplSnapshot, then tails the
// primary's applied driver ops (ReplOp, acked with ReplAck so the primary
// can bound the replication window), checkpoint commits (ReplCkpt), job
// admissions/teardowns (ReplJobStart/ReplJobEnd) and lease renewals
// (LeaseRenew). After a takeover, workers re-present their identity with
// WorkerReconnect and drivers re-bind their job with DriverReattach /
// ReattachAck.

// ReplAttach is the first message a hot-standby controller sends on its
// replication connection. The primary answers with a ReplSnapshot and then
// streams incremental state.
type ReplAttach struct{}

// Kind implements Msg.
func (*ReplAttach) Kind() MsgKind { return KindReplAttach }

func (m *ReplAttach) encode(*wire.Writer)         {}
func (m *ReplAttach) decode(r *wire.Reader) error { return r.Err }

// ManifestEntry names one logical object's durably saved version inside a
// replicated checkpoint manifest.
type ManifestEntry struct {
	Logical ids.LogicalID
	Version uint64
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

func (jb *ReplJob) encode(w *wire.Writer) {
	w.Uvarint(uint64(jb.Job))
	w.String(jb.Name)
	w.Uvarint(uint64(jb.Weight))
	w.String(jb.Tenant)
	w.Uvarint(jb.Applied)
	w.Uvarint(jb.Ckpt)
	w.Uvarint(jb.CkptCount)
	w.Uvarint(uint64(len(jb.Manifest)))
	for _, e := range jb.Manifest {
		w.Uvarint(uint64(e.Logical))
		w.Uvarint(e.Version)
	}
	w.Uvarint(uint64(len(jb.Defs)))
	for _, b := range jb.Defs {
		w.Bytes(b)
	}
	w.Uvarint(uint64(len(jb.Oplog)))
	for _, b := range jb.Oplog {
		w.Bytes(b)
	}
	w.Uvarint(jb.NextCmd)
	w.Uvarint(jb.NextObj)
}

func (jb *ReplJob) decode(r *wire.Reader) error {
	jb.Job = ids.JobID(r.Uvarint())
	jb.Name = r.String()
	jb.Weight = int(r.Uvarint())
	jb.Tenant = r.String()
	jb.Applied = r.Uvarint()
	jb.Ckpt = r.Uvarint()
	jb.CkptCount = r.Uvarint()
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	if n > 0 {
		jb.Manifest = make([]ManifestEntry, n)
		for i := range jb.Manifest {
			jb.Manifest[i].Logical = ids.LogicalID(r.Uvarint())
			jb.Manifest[i].Version = r.Uvarint()
		}
	}
	nd := r.Count()
	if r.Err != nil {
		return r.Err
	}
	if nd > 0 {
		jb.Defs = make([][]byte, nd)
		for i := range jb.Defs {
			jb.Defs[i] = r.BytesCopy()
		}
	}
	no := r.Count()
	if r.Err != nil {
		return r.Err
	}
	if no > 0 {
		jb.Oplog = make([][]byte, no)
		for i := range jb.Oplog {
			jb.Oplog[i] = r.BytesCopy()
		}
	}
	jb.NextCmd = r.Uvarint()
	jb.NextObj = r.Uvarint()
	return r.Err
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

func (m *ReplSnapshot) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.JobSeq))
	w.Uvarint(uint64(m.NextWorker))
	w.Uvarint(uint64(len(m.Workers)))
	for _, id := range m.Workers {
		w.Uvarint(uint64(id))
	}
	w.Uvarint(uint64(len(m.Jobs)))
	for _, jb := range m.Jobs {
		jb.encode(w)
	}
}

func (m *ReplSnapshot) decode(r *wire.Reader) error {
	m.JobSeq = uint32(r.Uvarint())
	m.NextWorker = uint32(r.Uvarint())
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	if n > 0 {
		m.Workers = make([]ids.WorkerID, n)
		for i := range m.Workers {
			m.Workers[i] = ids.WorkerID(r.Uvarint())
		}
	}
	nj := r.Count()
	if r.Err != nil {
		return r.Err
	}
	if nj > 0 {
		m.Jobs = make([]*ReplJob, nj)
		for i := range m.Jobs {
			m.Jobs[i] = &ReplJob{}
			if err := m.Jobs[i].decode(r); err != nil {
				return err
			}
		}
	}
	return r.Err
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

func (m *ReplOp) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(m.Index)
	w.Uvarint(m.NextCmd)
	w.Uvarint(m.NextObj)
	w.Bytes(m.Raw)
}

func (m *ReplOp) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Index = r.Uvarint()
	m.NextCmd = r.Uvarint()
	m.NextObj = r.Uvarint()
	m.Raw = r.BytesCopy()
	return r.Err
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

func (m *ReplAck) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(m.Index)
}

func (m *ReplAck) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Index = r.Uvarint()
	return r.Err
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

func (m *ReplCkpt) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(m.Ckpt)
	w.Uvarint(m.Count)
	w.Uvarint(m.Drop)
	w.Uvarint(uint64(len(m.Manifest)))
	for _, e := range m.Manifest {
		w.Uvarint(uint64(e.Logical))
		w.Uvarint(e.Version)
	}
}

func (m *ReplCkpt) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Ckpt = r.Uvarint()
	m.Count = r.Uvarint()
	m.Drop = r.Uvarint()
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	if n > 0 {
		m.Manifest = make([]ManifestEntry, n)
		for i := range m.Manifest {
			m.Manifest[i].Logical = ids.LogicalID(r.Uvarint())
			m.Manifest[i].Version = r.Uvarint()
		}
	}
	return r.Err
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

func (m *ReplJobStart) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.String(m.Name)
	w.Uvarint(uint64(m.Weight))
	w.String(m.Tenant)
}

func (m *ReplJobStart) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Name = r.String()
	m.Weight = int(r.Uvarint())
	m.Tenant = r.String()
	return r.Err
}

// ReplJobEnd replicates a job teardown: the standby drops the shadow.
type ReplJobEnd struct {
	Job ids.JobID
}

// Kind implements Msg.
func (*ReplJobEnd) Kind() MsgKind { return KindReplJobEnd }

func (m *ReplJobEnd) encode(w *wire.Writer) { w.Uvarint(uint64(m.Job)) }

func (m *ReplJobEnd) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	return r.Err
}

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

func (m *LeaseRenew) encode(w *wire.Writer) {
	w.Uvarint(m.Epoch)
	w.Uvarint(m.TTLMillis)
}

func (m *LeaseRenew) decode(r *wire.Reader) error {
	m.Epoch = r.Uvarint()
	m.TTLMillis = r.Uvarint()
	return r.Err
}

// WorkerReconnect re-registers a worker that survived a controller
// outage: it presents its previously assigned identity so the promoted
// controller can match it against the replicated roster and reconcile
// instead of treating it as new capacity. The controller answers with the
// usual RegisterWorkerAck echoing the preserved ID.
type WorkerReconnect struct {
	Worker   ids.WorkerID
	DataAddr string
	Slots    int
}

// Kind implements Msg.
func (*WorkerReconnect) Kind() MsgKind { return KindWorkerReconnect }

func (m *WorkerReconnect) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Worker))
	w.String(m.DataAddr)
	w.Uvarint(uint64(m.Slots))
}

func (m *WorkerReconnect) decode(r *wire.Reader) error {
	m.Worker = ids.WorkerID(r.Uvarint())
	m.DataAddr = r.String()
	m.Slots = int(r.Uvarint())
	return r.Err
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

func (m *DriverReattach) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.String(m.Name)
	w.Uvarint(uint64(m.Weight))
}

func (m *DriverReattach) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Name = r.String()
	m.Weight = int(r.Uvarint())
	return r.Err
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

func (m *ReattachAck) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Job))
	w.Uvarint(m.Applied)
	w.Bool(m.Ok)
	w.String(m.Err)
}

func (m *ReattachAck) decode(r *wire.Reader) error {
	m.Job = ids.JobID(r.Uvarint())
	m.Applied = r.Uvarint()
	m.Ok = r.Bool()
	m.Err = r.String()
	return r.Err
}

// ---------------------------------------------------------------------------
// Gateway front door: session multiplexing and bounded admission

// GatewayHello opens a shared gateway connection. Many lightweight driver
// sessions are multiplexed over it as MuxData envelopes; the connection
// itself carries no job identity.
type GatewayHello struct{}

// Kind implements Msg.
func (*GatewayHello) Kind() MsgKind { return KindGatewayHello }

func (m *GatewayHello) encode(w *wire.Writer) {}

func (m *GatewayHello) decode(r *wire.Reader) error { return r.Err }

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

func (m *MuxData) encode(w *wire.Writer) {
	w.Uvarint(m.Session)
	w.Uvarint(m.Seq)
	w.Bytes(m.Raw)
}

func (m *MuxData) decode(r *wire.Reader) error {
	m.Session = r.Uvarint()
	m.Seq = r.Uvarint()
	m.Raw = r.BytesCopy()
	return r.Err
}

// SessionClose closes one session on a shared gateway connection — the
// per-session equivalent of a dedicated connection closing. Either side
// may send it; the controller tears the session's job down as if its
// connection dropped, and the driver fails the session's pending futures.
type SessionClose struct {
	Session uint64
}

// Kind implements Msg.
func (*SessionClose) Kind() MsgKind { return KindSessionClose }

func (m *SessionClose) encode(w *wire.Writer) { w.Uvarint(m.Session) }

func (m *SessionClose) decode(r *wire.Reader) error {
	m.Session = r.Uvarint()
	return r.Err
}

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

func (m *AdmissionReject) encode(w *wire.Writer) {
	w.Byte(m.Code)
	w.Uvarint(m.RetryAfterMillis)
	w.String(m.Err)
}

func (m *AdmissionReject) decode(r *wire.Reader) error {
	m.Code = r.Byte()
	m.RetryAfterMillis = r.Uvarint()
	m.Err = r.String()
	return r.Err
}

// ---------------------------------------------------------------------------
// Elastic fleet lifecycle (announce → admit → warm → ready; drain →
// decommission). A joining worker announces itself instead of registering:
// the controller admits it outside the active set, streams every live job's
// active templates at it, and only enters it into placement once the worker
// acknowledges the warm marker — so a new worker never takes traffic with a
// cold template cache.

// FleetAnnounce is the first message an elastically-joining worker sends.
// Unlike RegisterWorker it does not enter the worker into the active set:
// the controller replies with FleetAdmit and runs the warm protocol first.
type FleetAnnounce struct {
	DataAddr string
	Slots    int
}

// Kind implements Msg.
func (*FleetAnnounce) Kind() MsgKind { return KindFleetAnnounce }

func (m *FleetAnnounce) encode(w *wire.Writer) {
	w.String(m.DataAddr)
	w.Uvarint(uint64(m.Slots))
}

func (m *FleetAnnounce) decode(r *wire.Reader) error {
	m.DataAddr = r.String()
	m.Slots = int(r.Uvarint())
	return r.Err
}

// FleetAdmit assigns an announcing worker its ID and peer map. The worker
// is admitted but not yet active: template installs follow, then a
// FleetWarm marker.
type FleetAdmit struct {
	Worker ids.WorkerID
	Peers  map[ids.WorkerID]string
	Eager  bool
}

// Kind implements Msg.
func (*FleetAdmit) Kind() MsgKind { return KindFleetAdmit }

func (m *FleetAdmit) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Worker))
	w.Uvarint(uint64(len(m.Peers)))
	for id, addr := range m.Peers {
		w.Uvarint(uint64(id))
		w.String(addr)
	}
	w.Bool(m.Eager)
}

func (m *FleetAdmit) decode(r *wire.Reader) error {
	m.Worker = ids.WorkerID(r.Uvarint())
	n := r.Count()
	if r.Err != nil {
		return r.Err
	}
	m.Peers = make(map[ids.WorkerID]string, n)
	for i := 0; i < n; i++ {
		id := ids.WorkerID(r.Uvarint())
		m.Peers[id] = r.String()
	}
	m.Eager = r.Bool()
	return r.Err
}

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

func (m *FleetWarm) encode(w *wire.Writer) { w.Uvarint(m.Seq) }

func (m *FleetWarm) decode(r *wire.Reader) error {
	m.Seq = r.Uvarint()
	return r.Err
}

// FleetWarmAck is the worker's reply to FleetWarm: all installs up to Seq
// are resident and compiled.
type FleetWarmAck struct {
	Worker ids.WorkerID
	Seq    uint64
}

// Kind implements Msg.
func (*FleetWarmAck) Kind() MsgKind { return KindFleetWarmAck }

func (m *FleetWarmAck) encode(w *wire.Writer) {
	w.Uvarint(uint64(m.Worker))
	w.Uvarint(m.Seq)
}

func (m *FleetWarmAck) decode(r *wire.Reader) error {
	m.Worker = ids.WorkerID(r.Uvarint())
	m.Seq = r.Uvarint()
	return r.Err
}

// FleetReady tells a warmed worker it has entered the active set and will
// start receiving traffic.
type FleetReady struct {
	Worker ids.WorkerID
}

// Kind implements Msg.
func (*FleetReady) Kind() MsgKind { return KindFleetReady }

func (m *FleetReady) encode(w *wire.Writer) { w.Uvarint(uint64(m.Worker)) }

func (m *FleetReady) decode(r *wire.Reader) error {
	m.Worker = ids.WorkerID(r.Uvarint())
	return r.Err
}

// FleetDrain tells a worker it is leaving the fleet: it keeps serving
// in-flight work but the controller has stopped placing new partitions on
// it. FleetDecommission follows once the worker is quiet.
type FleetDrain struct {
	Worker ids.WorkerID
}

// Kind implements Msg.
func (*FleetDrain) Kind() MsgKind { return KindFleetDrain }

func (m *FleetDrain) encode(w *wire.Writer) { w.Uvarint(uint64(m.Worker)) }

func (m *FleetDrain) decode(r *wire.Reader) error {
	m.Worker = ids.WorkerID(r.Uvarint())
	return r.Err
}

// FleetDecommission releases a drained worker: no outstanding commands or
// live data remain on it, and it may shut down.
type FleetDecommission struct {
	Worker ids.WorkerID
}

// Kind implements Msg.
func (*FleetDecommission) Kind() MsgKind { return KindFleetDecommission }

func (m *FleetDecommission) encode(w *wire.Writer) { w.Uvarint(uint64(m.Worker)) }

func (m *FleetDecommission) decode(r *wire.Reader) error {
	m.Worker = ids.WorkerID(r.Uvarint())
	return r.Err
}
