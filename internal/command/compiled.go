package command

import (
	"cmp"
	"slices"

	"nimbus/internal/ids"
	"nimbus/internal/params"
)

// CompiledEntry is the immutable, instantiation-ready form of one template
// entry. Where TemplateEntry stores dependencies as global indexes that the
// worker must resolve through completion maps at every instantiation, a
// compiled entry pre-resolves everything that does not vary between
// instances:
//
//   - LocalBefore holds the *positions* (not global indexes) of
//     same-template dependencies, so the scheduler wires intra-instance
//     edges with array indexing instead of map lookups;
//   - LocalWaiters is the reverse adjacency — the positions of entries that
//     list this one in their before set — so a completion wakes its waiters
//     without consulting a waiter map;
//   - ExtBefore keeps the (rare) global indexes with no matching entry in
//     this template; they still resolve through the worker's completion
//     state at activation, preserving the map-based path's semantics for
//     dangling edges.
//
// Reads, Writes and Fixed are shared with the installed template entries
// and must be treated as immutable.
type CompiledEntry struct {
	Index    int32
	Kind     Kind
	Function ids.FunctionID
	Reads    []ids.ObjectID
	Writes   []ids.ObjectID
	Logical  ids.LogicalID
	// ParamSlot selects the instantiation parameter array entry, or
	// NoParamSlot to use Fixed.
	ParamSlot int32
	Fixed     params.Blob
	DstWorker ids.WorkerID
	DstIdx    int32

	LocalBefore  []int32
	LocalWaiters []int32
	ExtBefore    []int32
}

// CompiledTemplate is an installed worker template compiled to a dense
// immutable form (built once at install/edit time, shared by every
// subsequent instantiation). Entries are sorted by ascending global index —
// the controller assigns indexes in program order, so this is a
// topologically friendly order in which before-edges predominantly point
// backwards and inline cascades resolve in one pass.
//
// A CompiledTemplate is never mutated after Compile returns: template edits
// produce a fresh compilation. Completed-instance records may therefore
// hold references to the compilation they ran with even after further
// edits.
type CompiledTemplate struct {
	Entries []CompiledEntry
	// pos maps a global entry index (offset by Lo) to its position in
	// Entries, or -1 for a hole (index absent from this template). nil
	// when the index range is too sparse to back densely — hostile
	// frames may scatter indexes across the whole int32 range — in which
	// case sparse carries the mapping instead.
	pos    []int32
	sparse map[int32]int32
	// Lo is the smallest entry index. Controller-built templates use
	// non-negative dense indexes (Lo is then the worker slice's first
	// global index); hostile frames may carry anything, so lookups offset
	// by Lo rather than assume zero.
	Lo int32
	// Span is MaxIndex+1: instance command IDs cover [base+Lo, base+Span).
	Span int32
	// Tasks counts Task-kind entries (executor-slot consumers).
	Tasks int
}

// Has reports whether the template contains an entry with the given global
// index. IDs of completed instances are answered with Has instead of a hash
// lookup: id is done iff id-base is a real entry's index.
func (ct *CompiledTemplate) Has(index int32) bool { return ct.PosOf(index) >= 0 }

// PosOf returns the position in Entries of the entry with the given global
// index, or -1. The dense table answers without hashing; the sparse
// fallback only exists for hostile index distributions.
func (ct *CompiledTemplate) PosOf(index int32) int32 {
	if ct.sparse != nil {
		if p, ok := ct.sparse[index]; ok {
			return p
		}
		return -1
	}
	i := int64(index) - int64(ct.Lo)
	if i < 0 || i >= int64(len(ct.pos)) {
		return -1
	}
	return ct.pos[i]
}

// Dense reports whether index lookups go through the dense table rather
// than the sparse map.
func (ct *CompiledTemplate) Dense() bool { return ct.sparse == nil }

// Compile builds the dense form from a template's entries (any order,
// typically the values of the installed entry map). The input entries are
// not retained, but their Reads/Writes/Fixed slices are shared with the
// compiled entries.
func Compile(entries []*TemplateEntry) *CompiledTemplate {
	// Sort the pointers, then fill the compiled entries in order: sorting
	// the compiled entries themselves would swap ~200-byte structs.
	entries = slices.Clone(entries)
	slices.SortFunc(entries, func(a, b *TemplateEntry) int { return cmp.Compare(a.Index, b.Index) })
	ct := &CompiledTemplate{Entries: make([]CompiledEntry, len(entries))}
	for i, e := range entries {
		ct.Entries[i] = CompiledEntry{
			Index:     e.Index,
			Kind:      e.Kind,
			Function:  e.Function,
			Reads:     e.Reads,
			Writes:    e.Writes,
			Logical:   e.Logical,
			ParamSlot: e.ParamSlot,
			Fixed:     e.Fixed,
			DstWorker: e.DstWorker,
			DstIdx:    e.DstIdx,
		}
	}
	minIdx, maxIdx := int32(0), int32(-1)
	if len(entries) > 0 {
		minIdx, maxIdx = entries[0].Index, entries[len(entries)-1].Index
	}
	ct.Lo = minIdx
	ct.Span = maxIdx + 1
	if span := int64(maxIdx) - int64(minIdx) + 1; len(entries) > 0 && span <= 4*int64(len(entries))+1024 {
		ct.pos = make([]int32, span)
		for i := range ct.pos {
			ct.pos[i] = -1
		}
		for i := range ct.Entries {
			ct.pos[int64(ct.Entries[i].Index)-int64(minIdx)] = int32(i)
		}
	} else if len(entries) > 0 {
		ct.sparse = make(map[int32]int32, len(entries))
		for i := range ct.Entries {
			ct.sparse[ct.Entries[i].Index] = int32(i)
		}
	}

	// Resolve before-edges. Edge lists for the whole template live in two
	// shared backing arrays (one forward, one reverse) carved into
	// per-entry sub-slices, so compilation allocates O(1) slices however
	// many entries there are.
	var nLocal, nExt int
	for _, e := range entries {
		for _, gi := range e.BeforeIdx {
			if ct.Has(gi) {
				nLocal++
			} else {
				nExt++
			}
		}
	}
	localBuf := make([]int32, 0, nLocal)
	extBuf := make([]int32, 0, nExt)
	waiterCount := make([]int32, len(ct.Entries))
	for _, e := range entries {
		ce := &ct.Entries[ct.PosOf(e.Index)]
		lb, eb := len(localBuf), len(extBuf)
		for _, gi := range e.BeforeIdx {
			if dep := ct.PosOf(gi); dep >= 0 {
				localBuf = append(localBuf, dep)
				waiterCount[dep]++
			} else {
				extBuf = append(extBuf, gi)
			}
		}
		ce.LocalBefore = localBuf[lb:len(localBuf):len(localBuf)]
		ce.ExtBefore = extBuf[eb:len(extBuf):len(extBuf)]
	}
	waiterBuf := make([]int32, nLocal)
	// Carve each entry's waiter sub-slice, then fill by a second pass over
	// the forward edges.
	off := int32(0)
	for i := range ct.Entries {
		n := waiterCount[i]
		ct.Entries[i].LocalWaiters = waiterBuf[off : off : off+n]
		off += n
	}
	for i := range ct.Entries {
		for _, dep := range ct.Entries[i].LocalBefore {
			d := &ct.Entries[dep]
			d.LocalWaiters = d.LocalWaiters[:len(d.LocalWaiters)+1]
			d.LocalWaiters[len(d.LocalWaiters)-1] = int32(i)
		}
		if ct.Entries[i].Kind == Task {
			ct.Tasks++
		}
	}
	return ct
}

// MaterializeInto patches the entry into out for the instance identified by
// base: ID arithmetic, parameter selection and copy routing only. Unlike
// TemplateEntry.Materialize it does not build a Before slice — intra-
// instance edges are pre-resolved in the compilation and external edges are
// resolved by the scheduler from ExtBefore. out's other fields are fully
// overwritten, so arenas can reuse command storage across instances.
func (ce *CompiledEntry) MaterializeInto(base ids.CommandID, paramArray []params.Blob, out *Command) {
	out.ID = base + ids.CommandID(ce.Index)
	out.Kind = ce.Kind
	out.Function = ce.Function
	out.Reads = ce.Reads
	out.Writes = ce.Writes
	out.Logical = ce.Logical
	out.Before = nil
	if ce.ParamSlot >= 0 && int(ce.ParamSlot) < len(paramArray) {
		out.Params = paramArray[ce.ParamSlot]
	} else {
		out.Params = ce.Fixed
	}
	out.DstWorker = ce.DstWorker
	if ce.Kind == CopySend {
		out.DstCommand = base + ids.CommandID(ce.DstIdx)
	} else {
		out.DstCommand = ids.NoCommand
	}
	out.Version = 0
}
