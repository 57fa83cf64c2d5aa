package core

import (
	"cmp"
	"fmt"
	"sort"
	"sync"

	"nimbus/internal/command"
	"nimbus/internal/flow"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// Template is a controller template: the cached result of scheduling one
// basic block (paper §2.2). It owns the recorded stage sequence (so
// assignments can be rebuilt under new placements) and the active
// assignment — one per-placement worker-template set. Workers cache
// multiple worker templates, so a controller can move between several
// schedules by invoking different assignments (paper §2.3); the controller
// keeps the inactive ones per worker set.
type Template struct {
	ID   ids.TemplateID
	Name string
	// Stages is the recorded basic block, in submission order.
	Stages []*proto.SubmitStage
	// TaskCount is the number of task commands (not copies) per instance.
	TaskCount int
	// Active is the assignment new instantiations use.
	Active *Assignment

	// The cone index Migrate works from, built from Stages on first use.
	coneOnce sync.Once
	cone     *coneIndex
	coneErr  error
}

// Assignment is one worker-template set for a Template: the controller
// half (paper §4.1) holding the full entry array, the per-worker slices,
// the preconditions to validate and the cached instantiation effects.
type Assignment struct {
	ID ids.TemplateID
	// Entries is the global command array, indexed by entry Index. Edits
	// leave tombstones (Kind 0) at removed indexes; the next rebuild hands
	// them to its new entries and the array ends at its last live entry, so
	// its length stays within one rebuild's churn of the live count.
	Entries  []command.TemplateEntry
	WorkerOf []ids.WorkerID
	Prov     []Provenance
	// PerWorker lists each worker's live entry indexes.
	PerWorker map[ids.WorkerID][]int32
	Preconds  []Precond
	Effects   Effects
	// Slots is the number of parameter slots (one per parameterized
	// stage).
	Slots int
	// Installed tracks which workers hold this worker template.
	Installed map[ids.WorkerID]bool
	// live counts non-tombstone entries, maintained incrementally by the
	// build and edit paths so Size is O(1) instead of an O(entries)
	// tombstone scan.
	live int

	// What Migrate needs to edit the assignment instead of rebuilding it.
	// Every assignment carries it, however it was made; all of it is
	// immutable once the assignment is returned, like the entries.
	//
	// key is every entry's program-order key (see copyKey), taskIdx every
	// flat task's entry index, holes the tombstoned indexes in ascending
	// order, and pcKey the access position that made each precondition.
	key     []int32
	taskIdx []int32
	holes   []int32
	pcKey   []int32
	// history holds, per worker, the epochs of the physical objects whose
	// epochs do not follow from their ledger effect (see plainHistory).
	// copyOf lists every copy pair and pcOf every precondition, both sorted
	// by logical object, then key.
	history map[ids.WorkerID]map[ids.ObjectID][]epoch
	copyOf  []copyRec
	pcOf    []pcRec
}

// copyRec is one copy pair of a logical object: its send and receive
// indexes and the send's key.
type copyRec struct {
	Logical    ids.LogicalID
	Send, Recv int32
	Key        int32
}

// pcRec is one precondition's logical object and key.
type pcRec struct {
	Logical ids.LogicalID
	Key     int32
}

func compareCopies(a, b copyRec) int {
	if c := cmp.Compare(a.Logical, b.Logical); c != 0 {
		return c
	}
	return cmp.Compare(a.Key, b.Key)
}

func comparePCs(a, b pcRec) int {
	if c := cmp.Compare(a.Logical, b.Logical); c != 0 {
		return c
	}
	return cmp.Compare(a.Key, b.Key)
}

// Size returns the number of live entries.
func (a *Assignment) Size() int { return a.live }

// Workers returns the sorted set of workers with at least one entry.
func (a *Assignment) Workers() []ids.WorkerID {
	out := make([]ids.WorkerID, 0, len(a.PerWorker))
	for w, idxs := range a.PerWorker {
		if len(idxs) > 0 {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InstallMessage builds the InstallTemplate message for one worker.
func (a *Assignment) InstallMessage(w ids.WorkerID, name string) *proto.InstallTemplate {
	idxs := a.PerWorker[w]
	entries := make([]command.TemplateEntry, 0, len(idxs))
	for _, i := range idxs {
		if a.Entries[i].Kind != 0 {
			entries = append(entries, a.Entries[i])
		}
	}
	return &proto.InstallTemplate{Template: a.ID, Name: name, Entries: entries}
}

// Violation reports one failed precondition.
type Violation struct {
	Precond
	// Holder is a worker holding the latest version, or NoWorker if the
	// object has no live replica (requires recovery, not patching).
	Holder ids.WorkerID
}

// Validate checks every precondition against the directory and returns the
// violations (paper §4.2). A nil result means the assignment can be
// instantiated as-is.
func (a *Assignment) Validate(dir *flow.Directory) []Violation {
	var out []Violation
	for _, pc := range a.Preconds {
		if dir.IsLatest(pc.Logical, pc.Worker) {
			continue
		}
		out = append(out, Violation{Precond: pc, Holder: dir.LatestHolder(pc.Logical)})
	}
	return out
}

// ApplyEffects advances the controller's directory and ledgers past one
// instance of the assignment with the given command-ID base. This replaces
// the per-task bookkeeping a non-templated controller would do — it is the
// cached "results of dependency analysis and data lineage" of paper §2.2.
func (a *Assignment) ApplyEffects(base ids.CommandID, dir *flow.Directory, ledgers map[ids.WorkerID]*flow.Ledger) {
	for i := range a.Effects.Objects {
		oe := &a.Effects.Objects[i]
		dir.ApplyBlockEffect(oe.Logical, oe.Bumps, oe.FinalHolders)
	}
	var readers []ids.CommandID
	for w, les := range a.Effects.Ledger {
		led := ledgers[w]
		if led == nil {
			continue
		}
		for i := range les {
			le := &les[i]
			readers = readers[:0]
			for _, r := range le.Readers {
				readers = append(readers, base+ids.CommandID(r))
			}
			if le.LastWriterIdx >= 0 {
				led.SetState(le.Object, base+ids.CommandID(le.LastWriterIdx), readers)
			} else if len(readers) > 0 {
				// Read-only object: keep the pre-instance writer, replace
				// the reader set (older readers are ordered before the
				// instance by the worker's block barrier).
				led.SetState(le.Object, led.LastWriter(le.Object), readers)
			}
		}
	}
}

// MaxIndex returns the highest entry index in use plus one (the ID-block
// size an instantiation must reserve).
func (a *Assignment) MaxIndex() int {
	return len(a.Entries)
}

// Rebuild constructs a fresh assignment for the template's stages under
// the given placement, drawing object instances from inst (the live
// directory on-loop, or a snapshot build view off-loop). The new
// assignment's entries are numbered by provenance against prev (if
// non-nil) so unchanged entries keep their indexes and new ones fill prev's
// tombstones; see buildAssignment and Diff.
func (t *Template) Rebuild(id ids.TemplateID, inst Instances, place Placement, prev *Assignment) (*Assignment, error) {
	return t.RebuildPar(id, inst, place, prev, 0)
}

// RebuildPar is Rebuild with an explicit goroutine-pool bound (0 =
// GOMAXPROCS, 1 = serial); the controller's build executor uses it to
// split cores between concurrent template builds.
func (t *Template) RebuildPar(id ids.TemplateID, inst Instances, place Placement, prev *Assignment, par int) (*Assignment, error) {
	a, err := buildAssignment(id, inst, place, t.Stages, prev, par)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding %q: %w", t.Name, err)
	}
	return a, nil
}
