// Package command defines the Nimbus control-plane command model.
//
// The Nimbus control plane has four major command groups (paper §3.4):
//
//   - task commands execute an application function;
//   - copy commands move a data object between two physical instances,
//     either within a worker (local copy) or across workers (an
//     asynchronous send/receive pair following a push model);
//   - data commands create and destroy physical data objects;
//   - file commands save and load data objects to/from durable storage
//     (used by checkpointing).
//
// Every command has five fields: a unique identifier, a read set, a write
// set, a before set of same-worker commands that must complete first, and a
// binary parameter blob. Task commands carry a sixth field naming the
// application function. Cross-worker dependencies are never expressed in
// before sets; they are always encoded as a copy pair, so a worker can
// resolve every dependency locally (control-plane requirement 1, paper
// §3.1).
package command

import (
	"fmt"
	"strings"

	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/wire"
)

// Kind discriminates the command types.
type Kind uint8

// Command kinds. The zero value is invalid so that forgotten initialization
// is caught early.
const (
	// Task runs an application function over its read/write sets.
	Task Kind = iota + 1
	// CopySend pushes the contents of a local object to a receive command
	// on another worker. It starts transmitting as soon as its before set
	// is satisfied (push model).
	CopySend
	// CopyRecv installs a pushed payload into a local object. It completes
	// when both the payload has arrived and its before set is satisfied.
	CopyRecv
	// LocalCopy copies one local object into another on the same worker.
	LocalCopy
	// Create allocates a physical object in the worker's memory.
	Create
	// Destroy frees a physical object.
	Destroy
	// Save writes a physical object to durable storage (checkpointing).
	Save
	// Load reads a physical object back from durable storage (recovery).
	Load
)

// String returns the lowercase command kind name.
func (k Kind) String() string {
	switch k {
	case Task:
		return "task"
	case CopySend:
		return "copy-send"
	case CopyRecv:
		return "copy-recv"
	case LocalCopy:
		return "local-copy"
	case Create:
		return "create"
	case Destroy:
		return "destroy"
	case Save:
		return "save"
	case Load:
		return "load"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Command is one unit of control-plane work dispatched to a worker.
//
// Object references are physical: Nimbus data objects are mutable, so a
// logical object's physical instance on a given worker keeps a stable
// ObjectID across loop iterations. This stability is what lets execution
// templates cache object IDs instead of re-parameterizing them on every
// instantiation (paper §3.3).
type Command struct {
	// ID uniquely identifies the command within a job.
	ID ids.CommandID
	// Kind selects the command type.
	Kind Kind
	// Function names the application function to run (Task only).
	Function ids.FunctionID
	// Reads lists physical objects the command reads. For copies, Reads[0]
	// is the source object (CopySend, LocalCopy).
	Reads []ids.ObjectID
	// Writes lists physical objects the command writes. For copies,
	// Writes[0] is the destination object (CopyRecv, LocalCopy). For
	// Create/Destroy/Save/Load, Writes[0] (or Reads[0] for Save) names the
	// affected object.
	Writes []ids.ObjectID
	// Before lists same-worker commands that must complete before this one
	// can run.
	Before []ids.CommandID
	// Params is the opaque application parameter blob (Task), or the
	// checkpoint key (Save/Load), or the initial contents (Create).
	Params params.Blob

	// DstWorker and DstCommand route a CopySend's payload: the payload is
	// delivered to DstWorker tagged with the CommandID of the matching
	// CopyRecv there.
	DstWorker  ids.WorkerID
	DstCommand ids.CommandID

	// Logical records the logical identity of the object a data/copy/file
	// command materializes. Workers use it to create instances lazily and
	// to label checkpoints.
	Logical ids.LogicalID
	// Version is the data version produced by this command's write, as
	// assigned by the controller's directory. Workers carry it through the
	// data plane so receivers can label installed buffers.
	Version uint64
}

// IsCopy reports whether the command is one of the copy kinds.
func (c *Command) IsCopy() bool {
	return c.Kind == CopySend || c.Kind == CopyRecv || c.Kind == LocalCopy
}

// Clone returns a deep copy of the command.
func (c *Command) Clone() *Command {
	d := *c
	d.Reads = append([]ids.ObjectID(nil), c.Reads...)
	d.Writes = append([]ids.ObjectID(nil), c.Writes...)
	d.Before = append([]ids.CommandID(nil), c.Before...)
	d.Params = append(params.Blob(nil), c.Params...)
	return &d
}

// String renders a compact human-readable form for logs and tests.
func (c *Command) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", c.ID, c.Kind)
	if c.Kind == Task {
		fmt.Fprintf(&b, " %s", c.Function)
	}
	if len(c.Reads) > 0 {
		fmt.Fprintf(&b, " r%v", c.Reads)
	}
	if len(c.Writes) > 0 {
		fmt.Fprintf(&b, " w%v", c.Writes)
	}
	if len(c.Before) > 0 {
		fmt.Fprintf(&b, " before%v", c.Before)
	}
	if c.Kind == CopySend {
		fmt.Fprintf(&b, " ->%s/%s", c.DstWorker, c.DstCommand)
	}
	return b.String()
}

// Fields walks the command's wire form: encoding or decoding, as wc says.
func (c *Command) Fields(wc *wire.Coder) {
	wire.Uv(wc, &c.ID)
	wire.U8(wc, &c.Kind)
	wire.Uv(wc, &c.Function)
	wire.List(wc, &c.Reads, wire.Uv[ids.ObjectID])
	wire.List(wc, &c.Writes, wire.Uv[ids.ObjectID])
	wire.List(wc, &c.Before, wire.Uv[ids.CommandID])
	wire.BytesOf(wc, &c.Params)
	wire.Uv(wc, &c.DstWorker)
	wire.Uv(wc, &c.DstCommand)
	wire.Uv(wc, &c.Logical)
	wc.U64(&c.Version)
}
