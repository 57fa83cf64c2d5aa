package core

import (
	"slices"

	"nimbus/internal/command"
	"nimbus/internal/ids"
)

// DiffResult is the outcome of comparing a rebuilt assignment against the
// one currently installed: per-worker edits for workers that keep their
// template, full installs for workers new to the assignment, and the list
// of workers that lose all their entries.
type DiffResult struct {
	// Edits maps workers to the in-place modifications of their installed
	// template (paper §4.3).
	Edits map[ids.WorkerID]*command.Edit
	// NewWorkers had no entries before and need a full install.
	NewWorkers []ids.WorkerID
	// EmptiedWorkers lost every entry; their cached template is stale but
	// harmless (it is simply never instantiated again until re-edited).
	EmptiedWorkers []ids.WorkerID
	// Changed counts entries added plus removed — the size of the
	// scheduling change, which the control-plane cost scales with.
	Changed int
	// Visited counts the entries and accessor records the path that made
	// the result examined: every index for Diff, the moved tasks' cone for
	// Migrate.
	Visited int
	// Rebuilt reports that Migrate could not edit exactly and fell back to
	// Rebuild + Diff.
	Rebuilt bool
}

// Diff computes the minimal per-worker edits transforming prev into next.
// next must have been produced by Template.Rebuild with prev as its
// predecessor, so unchanged entries share indexes.
func Diff(prev, next *Assignment) *DiffResult {
	res := &DiffResult{Edits: make(map[ids.WorkerID]*command.Edit)}
	n := max(len(prev.Entries), len(next.Entries))
	for i := 0; i < n; i++ {
		res.compare(prev, next, int32(i))
	}
	res.Visited = n
	res.classifyWorkers(prev, next)
	return res
}

// compare adds the edits index i needs to turn prev's entry there into
// next's. Called in ascending index order, it keeps every worker's Remove
// and Add lists ascending.
func (res *DiffResult) compare(prev, next *Assignment, i int32) {
	var oldE, newE *command.TemplateEntry
	var oldW, newW ids.WorkerID
	if int(i) < len(prev.Entries) && prev.Entries[i].Kind != 0 {
		oldE = &prev.Entries[i]
		oldW = prev.WorkerOf[i]
	}
	if int(i) < len(next.Entries) && next.Entries[i].Kind != 0 {
		newE = &next.Entries[i]
		newW = next.WorkerOf[i]
	}
	switch {
	case oldE == nil && newE == nil:
	case oldE == nil:
		res.editOf(newW).Add = append(res.editOf(newW).Add, *newE)
		res.Changed++
	case newE == nil:
		res.editOf(oldW).Remove = append(res.editOf(oldW).Remove, i)
		res.Changed++
	case oldW == newW && entriesEqual(oldE, newE):
		// Unchanged.
	default:
		res.editOf(oldW).Remove = append(res.editOf(oldW).Remove, i)
		res.editOf(newW).Add = append(res.editOf(newW).Add, *newE)
		res.Changed += 2
	}
}

func (res *DiffResult) editOf(w ids.WorkerID) *command.Edit {
	e, ok := res.Edits[w]
	if !ok {
		e = &command.Edit{}
		res.Edits[w] = e
	}
	return e
}

// classifyWorkers lists the workers next adds and the workers it empties.
// Workers appearing in next but absent from prev need installs, not edits
// (they have no cached template to modify).
func (res *DiffResult) classifyWorkers(prev, next *Assignment) {
	for w, idxs := range next.PerWorker {
		if len(idxs) > 0 && len(prev.PerWorker[w]) == 0 {
			res.NewWorkers = append(res.NewWorkers, w)
			delete(res.Edits, w)
		}
	}
	slices.Sort(res.NewWorkers)
	for w, idxs := range prev.PerWorker {
		if len(idxs) > 0 && len(next.PerWorker[w]) == 0 {
			res.EmptiedWorkers = append(res.EmptiedWorkers, w)
		}
	}
	slices.Sort(res.EmptiedWorkers)
}

// entriesEqual reports whether two entries are semantically identical.
func entriesEqual(a, b *command.TemplateEntry) bool {
	if a.Kind != b.Kind || a.Function != b.Function || a.Logical != b.Logical ||
		a.ParamSlot != b.ParamSlot || a.DstWorker != b.DstWorker || a.DstIdx != b.DstIdx {
		return false
	}
	if !slices.Equal(a.Reads, b.Reads) || !slices.Equal(a.Writes, b.Writes) {
		return false
	}
	if !sameIndexSet(a.BeforeIdx, b.BeforeIdx) {
		return false
	}
	if len(a.Fixed) != len(b.Fixed) {
		return false
	}
	for i := range a.Fixed {
		if a.Fixed[i] != b.Fixed[i] {
			return false
		}
	}
	return true
}

// sameIndexSet reports whether two before sets hold the same indexes.
// Before sets are duplicate-free and their order carries no meaning. They
// are small (a reduction's fan-in) and two builds usually emit them in the
// same order, so membership is tested in place; only a long set is worth
// sorting copies of.
func sameIndexSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 32 {
		as, bs := slices.Clone(a), slices.Clone(b)
		slices.Sort(as)
		slices.Sort(bs)
		return slices.Equal(as, bs)
	}
	for i, x := range a {
		if b[i] != x && !slices.Contains(b, x) {
			return false
		}
	}
	return true
}
