package command

import (
	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/wire"
)

// TemplateEntry is the cached, parameterizable form of a command inside an
// execution template (paper §2.1, §4.1).
//
// The fixed structure — kind, function, data access sets, relative ordering
// and copy routing — is stored once at install time. What varies between
// instantiations is factored out: the command ID becomes base+Index (one
// base CommandID parameterizes the whole template) and the task parameters
// become a slot index into the instantiation message's parameter array.
// Dependencies are stored as indexes into the same template (BeforeIdx), so
// translating an entry to a concrete Command is a handful of integer adds —
// this is what makes instantiation orders of magnitude cheaper than
// scheduling (Table 2 vs Table 1).
type TemplateEntry struct {
	// Index is this entry's position in the controller template's global
	// command array. Worker templates hold a subset of the global entries
	// but keep global indexes so that one base ID parameterizes every
	// worker's slice consistently.
	Index int32
	// Kind, Function, Reads, Writes and Logical mirror Command.
	Kind     Kind
	Function ids.FunctionID
	Reads    []ids.ObjectID
	Writes   []ids.ObjectID
	Logical  ids.LogicalID
	// BeforeIdx lists the global indexes of same-worker entries that must
	// complete before this one.
	BeforeIdx []int32
	// ParamSlot selects which entry of the instantiation parameter array
	// this command receives, or NoParamSlot to use Fixed.
	ParamSlot int32
	// Fixed is the parameter blob cached in the template when the
	// parameters do not vary between instantiations.
	Fixed params.Blob
	// DstWorker and DstIdx route CopySend entries: the payload goes to
	// DstWorker addressed to command base+DstIdx (the matching CopyRecv).
	DstWorker ids.WorkerID
	DstIdx    int32
}

// NoParamSlot marks an entry whose parameters are cached in Fixed.
const NoParamSlot int32 = -1

// Materialize converts the entry into a concrete Command for the
// instantiation identified by base. params is the instantiation parameter
// array. The returned command shares the entry's read/write/param slices;
// callers must treat them as immutable.
func (e *TemplateEntry) Materialize(base ids.CommandID, paramArray []params.Blob, out *Command) {
	out.ID = base + ids.CommandID(e.Index)
	out.Kind = e.Kind
	out.Function = e.Function
	out.Reads = e.Reads
	out.Writes = e.Writes
	out.Logical = e.Logical
	if cap(out.Before) < len(e.BeforeIdx) {
		out.Before = make([]ids.CommandID, len(e.BeforeIdx))
	} else {
		out.Before = out.Before[:len(e.BeforeIdx)]
	}
	for i, idx := range e.BeforeIdx {
		out.Before[i] = base + ids.CommandID(idx)
	}
	if e.ParamSlot >= 0 && int(e.ParamSlot) < len(paramArray) {
		out.Params = paramArray[e.ParamSlot]
	} else {
		out.Params = e.Fixed
	}
	out.DstWorker = e.DstWorker
	if e.Kind == CopySend {
		out.DstCommand = base + ids.CommandID(e.DstIdx)
	} else {
		out.DstCommand = ids.NoCommand
	}
	out.Version = 0
}

// Clone returns a deep copy of the entry.
func (e *TemplateEntry) Clone() *TemplateEntry {
	d := *e
	d.Reads = append([]ids.ObjectID(nil), e.Reads...)
	d.Writes = append([]ids.ObjectID(nil), e.Writes...)
	d.BeforeIdx = append([]int32(nil), e.BeforeIdx...)
	d.Fixed = append(params.Blob(nil), e.Fixed...)
	return &d
}

// Fields walks the entry's wire form: encoding or decoding, as c says.
func (e *TemplateEntry) Fields(c *wire.Coder) {
	wire.Sv(c, &e.Index)
	wire.U8(c, &e.Kind)
	wire.Uv(c, &e.Function)
	wire.List(c, &e.Reads, wire.Uv[ids.ObjectID])
	wire.List(c, &e.Writes, wire.Uv[ids.ObjectID])
	wire.Uv(c, &e.Logical)
	wire.List(c, &e.BeforeIdx, wire.Sv[int32])
	wire.Sv(c, &e.ParamSlot)
	wire.BytesOf(c, &e.Fixed)
	wire.Uv(c, &e.DstWorker)
	wire.Sv(c, &e.DstIdx)
}

// Edit is an in-place modification to an installed worker template
// (paper §2.3, §4.3). Edits ride on instantiation messages: the worker
// removes the entries named in Remove (by global index) and splices in the
// Add entries before materializing the instance. Edits are persistent —
// they modify the installed template, not just one instance.
type Edit struct {
	// Remove lists global entry indexes to delete from the template.
	Remove []int32
	// Add lists entries to insert. Added entries carry fresh global
	// indexes beyond the template's previous maximum, assigned by the
	// controller.
	Add []TemplateEntry
}

// Fields walks the edit's wire form: encoding or decoding, as c says.
func (e *Edit) Fields(c *wire.Coder) {
	wire.List(c, &e.Remove, wire.Sv[int32])
	wire.Each(c, &e.Add, (*TemplateEntry).Fields)
}
