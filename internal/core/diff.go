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
}

// Diff computes the minimal per-worker edits transforming prev into next.
// next must have been produced by Template.Rebuild with prev as its
// predecessor, so unchanged entries share indexes.
func Diff(prev, next *Assignment) *DiffResult {
	res := &DiffResult{Edits: make(map[ids.WorkerID]*command.Edit)}
	max := len(next.Entries)
	if len(prev.Entries) > max {
		max = len(prev.Entries)
	}
	editOf := func(w ids.WorkerID) *command.Edit {
		e, ok := res.Edits[w]
		if !ok {
			e = &command.Edit{}
			res.Edits[w] = e
		}
		return e
	}
	for i := 0; i < max; i++ {
		var oldE, newE *command.TemplateEntry
		var oldW, newW ids.WorkerID
		if i < len(prev.Entries) && prev.Entries[i].Kind != 0 {
			oldE = &prev.Entries[i]
			oldW = prev.WorkerOf[i]
		}
		if i < len(next.Entries) && next.Entries[i].Kind != 0 {
			newE = &next.Entries[i]
			newW = next.WorkerOf[i]
		}
		switch {
		case oldE == nil && newE == nil:
		case oldE == nil:
			editOf(newW).Add = append(editOf(newW).Add, *newE)
			res.Changed++
		case newE == nil:
			editOf(oldW).Remove = append(editOf(oldW).Remove, int32(i))
			res.Changed++
		case oldW == newW && entriesEqual(oldE, newE):
			// Unchanged.
		default:
			editOf(oldW).Remove = append(editOf(oldW).Remove, int32(i))
			editOf(newW).Add = append(editOf(newW).Add, *newE)
			res.Changed += 2
		}
	}
	// Workers appearing in next but absent from prev need installs, not
	// edits (they have no cached template to modify).
	prevWorkers := make(map[ids.WorkerID]bool, len(prev.PerWorker))
	for w, idxs := range prev.PerWorker {
		if len(idxs) > 0 {
			prevWorkers[w] = true
		}
	}
	for w, idxs := range next.PerWorker {
		if len(idxs) > 0 && !prevWorkers[w] {
			res.NewWorkers = append(res.NewWorkers, w)
			delete(res.Edits, w)
		}
	}
	slices.Sort(res.NewWorkers)
	for w := range prevWorkers {
		if len(next.PerWorker[w]) == 0 {
			res.EmptiedWorkers = append(res.EmptiedWorkers, w)
		}
	}
	slices.Sort(res.EmptiedWorkers)
	return res
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

// ApplyEdit applies one worker's edit to the assignment's controller-half
// state (mirroring what the worker does to its installed template), so the
// controller's view stays consistent when it chooses the edit path instead
// of swapping whole assignments.
func (a *Assignment) ApplyEdit(w ids.WorkerID, e *command.Edit, prov map[int32]Provenance) {
	for _, idx := range e.Remove {
		if int(idx) < len(a.Entries) {
			if a.Entries[idx].Kind != 0 {
				a.live--
			}
			a.Entries[idx] = command.TemplateEntry{}
		}
	}
	for i := range e.Add {
		ne := e.Add[i]
		for int(ne.Index) >= len(a.Entries) {
			a.Entries = append(a.Entries, command.TemplateEntry{})
			a.WorkerOf = append(a.WorkerOf, ids.NoWorker)
			a.Prov = append(a.Prov, Provenance{})
		}
		if a.Entries[ne.Index].Kind == 0 && ne.Kind != 0 {
			a.live++
		} else if a.Entries[ne.Index].Kind != 0 && ne.Kind == 0 {
			a.live--
		}
		a.Entries[ne.Index] = ne
		a.WorkerOf[ne.Index] = w
		if p, ok := prov[ne.Index]; ok {
			a.Prov[ne.Index] = p
		}
	}
	// Rebuild the per-worker index lists.
	perWorker := make(map[ids.WorkerID][]int32)
	for i := range a.Entries {
		if a.Entries[i].Kind != 0 {
			perWorker[a.WorkerOf[i]] = append(perWorker[a.WorkerOf[i]], int32(i))
		}
	}
	a.PerWorker = perWorker
}
