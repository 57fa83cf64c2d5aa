package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nimbus/internal/command"
	"nimbus/internal/flow"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/proto"
)

// TestBuilderDeterminism: two builds from identical inputs must produce
// identical assignments — the controller relies on this when rebuilding
// for a previously seen placement.
func TestBuilderDeterminism(t *testing.T) {
	build := func() *Assignment {
		place := NewStaticPlacement(4)
		place.Define(1, 8)
		place.Define(2, 1)
		place.Define(3, 8)
		place.Define(4, 2)
		var alloc ids.ObjectIDs
		dir := flow.NewDirectory(&alloc)
		b := NewBuilder(dir, place)
		for _, s := range lrLikeStages(8, 4) {
			if err := b.AddStage(s); err != nil {
				t.Fatal(err)
			}
		}
		return b.Finalize(1)
	}
	a1, a2 := build(), build()
	if !reflect.DeepEqual(a1.Entries, a2.Entries) {
		t.Fatal("entries differ across identical builds")
	}
	if !reflect.DeepEqual(a1.WorkerOf, a2.WorkerOf) {
		t.Fatal("worker assignment differs across identical builds")
	}
	if !reflect.DeepEqual(a1.Preconds, a2.Preconds) {
		t.Fatal("preconditions differ across identical builds")
	}
	if !reflect.DeepEqual(a1.Effects, a2.Effects) {
		t.Fatal("effects differ across identical builds")
	}
}

// TestMaterializedGraphAcyclic: materializing a template instance must
// yield commands whose before edges reference lower-or-other entries
// without cycles (every BeforeIdx edge points to an already-emitted
// entry, since the builder appends in dependency order).
func TestMaterializedGraphAcyclic(t *testing.T) {
	a, _, _ := buildLRAssignment(t, 4, 8, 4)
	for i := range a.Entries {
		e := &a.Entries[i]
		if e.Kind == 0 {
			continue
		}
		for _, dep := range e.BeforeIdx {
			if dep >= e.Index {
				t.Fatalf("entry %d depends on later entry %d", e.Index, dep)
			}
		}
	}
}

// TestMaterializeConsistency: a materialized command's IDs must be
// base-relative and its structure must mirror the entry.
func TestMaterializeConsistency(t *testing.T) {
	a, _, _ := buildLRAssignment(t, 4, 8, 4)
	const base ids.CommandID = 5000
	var c command.Command
	for i := range a.Entries {
		e := &a.Entries[i]
		if e.Kind == 0 {
			continue
		}
		e.Materialize(base, nil, &c)
		if c.ID != base+ids.CommandID(e.Index) {
			t.Fatalf("entry %d: id %v", e.Index, c.ID)
		}
		for j, dep := range e.BeforeIdx {
			if c.Before[j] != base+ids.CommandID(dep) {
				t.Fatalf("entry %d: before[%d] = %v", e.Index, j, c.Before[j])
			}
		}
		if e.Kind == command.CopySend && c.DstCommand != base+ids.CommandID(e.DstIdx) {
			t.Fatalf("entry %d: dst %v", e.Index, c.DstCommand)
		}
	}
}

// TestRepeatedMigrationConverges: migrating a partition away and back
// must return the assignment to an equivalent schedule (same per-worker
// entry counts), and diffs must stay bounded.
func TestRepeatedMigrationConverges(t *testing.T) {
	place := NewStaticPlacement(4)
	place.Define(1, 8)
	place.Define(2, 1)
	place.Define(3, 8)
	place.Define(4, 2)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	stages := lrLikeStages(8, 4)
	tmpl := &Template{ID: 1, Name: "t", Stages: stages}
	b := NewBuilder(dir, place)
	for _, s := range stages {
		if err := b.AddStage(s); err != nil {
			t.Fatal(err)
		}
	}
	orig := b.Finalize(1)
	counts := func(a *Assignment) map[ids.WorkerID]int {
		out := make(map[ids.WorkerID]int)
		for w, idxs := range a.PerWorker {
			out[w] = len(idxs)
		}
		return out
	}
	origCounts := counts(orig)
	origWorker := place.WorkerOf(1, 1)

	cur := orig
	// Away...
	place.Reassign(1, 1, 1)
	place.Reassign(3, 1, 1)
	next, err := tmpl.Rebuild(1, dir, place, cur)
	if err != nil {
		t.Fatal(err)
	}
	if Diff(cur, next).Changed == 0 {
		t.Fatal("migration away produced no diff")
	}
	cur = next
	// ...and back.
	place.Reassign(1, 1, origWorker)
	place.Reassign(3, 1, origWorker)
	back, err := tmpl.Rebuild(1, dir, place, cur)
	if err != nil {
		t.Fatal(err)
	}
	if Diff(cur, back).Changed == 0 {
		t.Fatal("migration back produced no diff")
	}
	if !reflect.DeepEqual(counts(back), origCounts) {
		t.Fatalf("round-trip migration changed the schedule: %v vs %v",
			counts(back), origCounts)
	}
}

// TestPerTaskParamsRejected: stages with per-task parameters cannot be
// recorded into templates.
func TestPerTaskParamsRejected(t *testing.T) {
	place := NewStaticPlacement(2)
	place.Define(1, 2)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	b := NewBuilder(dir, place)
	spec := lrLikeStages(8, 4)[0]
	bad := *spec
	bad.Tasks = 2
	bad.PerTask = []params.Blob{{1}, {2}}
	if err := b.AddStage(&bad); err == nil {
		t.Fatal("per-task parameters must be rejected in templates")
	}
}

// checkStructure verifies what every assignment must satisfy however its
// indexes were handed out: a live entry sits at its own index, PerWorker is
// an ascending recount of the live entries, Size agrees, the array ends at
// a live entry, and every BeforeIdx/DstIdx names a live entry on the right
// worker.
func checkStructure(t *testing.T, a *Assignment) {
	t.Helper()
	if n := len(a.Entries); n > 0 && a.Entries[n-1].Kind == 0 {
		t.Fatalf("entry array ends in a tombstone (len %d)", n)
	}
	if len(a.WorkerOf) != len(a.Entries) || len(a.Prov) != len(a.Entries) {
		t.Fatalf("array lengths differ: %d entries, %d workers, %d provenances", len(a.Entries), len(a.WorkerOf), len(a.Prov))
	}
	recount := make(map[ids.WorkerID][]int32)
	live := 0
	for i := range a.Entries {
		e := &a.Entries[i]
		if e.Kind == 0 {
			continue
		}
		live++
		if int(e.Index) != i {
			t.Fatalf("entry at %d carries index %d", i, e.Index)
		}
		w := a.WorkerOf[i]
		recount[w] = append(recount[w], int32(i))
		for _, dep := range e.BeforeIdx {
			if int(dep) >= len(a.Entries) || a.Entries[dep].Kind == 0 {
				t.Fatalf("entry %d: before edge to dead index %d", i, dep)
			}
			if a.WorkerOf[dep] != w {
				t.Fatalf("entry %d on %v: before edge to %d on %v", i, w, dep, a.WorkerOf[dep])
			}
		}
		if e.Kind == command.CopySend {
			if int(e.DstIdx) >= len(a.Entries) || a.Entries[e.DstIdx].Kind != command.CopyRecv {
				t.Fatalf("send %d targets %d, not a live receive", i, e.DstIdx)
			}
			if a.WorkerOf[e.DstIdx] != e.DstWorker {
				t.Fatalf("send %d: DstWorker %v but receive on %v", i, e.DstWorker, a.WorkerOf[e.DstIdx])
			}
		}
	}
	if a.Size() != live {
		t.Fatalf("Size=%d, recount %d", a.Size(), live)
	}
	if !reflect.DeepEqual(a.PerWorker, recount) {
		t.Fatalf("PerWorker is not an ascending recount of the live entries")
	}
}

// byProvenance renders an assignment with every index replaced by the
// provenance of the entry it names, so two assignments that differ only in
// numbering render identically.
func byProvenance(t *testing.T, a *Assignment) map[Provenance]any {
	t.Helper()
	type entry struct {
		e      command.TemplateEntry
		worker ids.WorkerID
		before map[Provenance]bool
		dst    Provenance
	}
	type ledger struct {
		writer  Provenance
		readers []Provenance
	}
	out := make(map[Provenance]any)
	for i := range a.Entries {
		e := a.Entries[i]
		if e.Kind == 0 {
			continue
		}
		r := entry{worker: a.WorkerOf[i], before: make(map[Provenance]bool)}
		for _, dep := range e.BeforeIdx {
			r.before[a.Prov[dep]] = true
		}
		if e.Kind == command.CopySend {
			r.dst = a.Prov[e.DstIdx]
		}
		e.Index, e.BeforeIdx, e.DstIdx = 0, nil, 0
		r.e = e
		if _, dup := out[a.Prov[i]]; dup {
			t.Fatalf("provenance %+v names two live entries", a.Prov[i])
		}
		out[a.Prov[i]] = r
	}
	// Ledger effects ride under keys no entry uses (Kind 0).
	for w, les := range a.Effects.Ledger {
		for _, le := range les {
			var r ledger
			if le.LastWriterIdx >= 0 {
				r.writer = a.Prov[le.LastWriterIdx]
			}
			for _, idx := range le.Readers {
				r.readers = append(r.readers, a.Prov[idx])
			}
			out[Provenance{To: w, Logical: ids.LogicalID(le.Object)}] = r
		}
	}
	return out
}

// lrPlacement defines lrLikeStages' four variables over the given workers.
func lrPlacement(workers, parts, fan int) *StaticPlacement {
	place := NewStaticPlacement(workers)
	place.Define(1, parts)
	place.Define(2, 1)
	place.Define(3, parts)
	place.Define(4, parts/fan)
	return place
}

// TestMigrationChainStaysBounded: a thousand chained migrations of the
// churn_mem shape (5% of the partitions of two variables to a random
// worker, prev = next) must leave the index space within one migration's
// churn of the live entries, and every rebuilt assignment structurally
// sound and equal, up to numbering, to a fresh build under the same
// placement.
func TestMigrationChainStaysBounded(t *testing.T) {
	const workers, parts, fan, steps = 4, 160, 8, 1000
	place := lrPlacement(workers, parts, fan)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	stages := lrLikeStages(parts, fan)
	tmpl := &Template{ID: 1, Name: "t", Stages: stages}
	prev, err := BuildAssignment(1, dir, place, stages, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	maxChanged, bound := 0, prev.Size()
	for step := 0; step < steps; step++ {
		dst := ids.WorkerID(1 + rng.Intn(workers))
		for _, p := range rng.Perm(parts)[:parts/20] {
			place.Reassign(1, p, dst)
			place.Reassign(3, p, dst)
		}
		next, err := tmpl.Rebuild(1, dir, place, prev)
		if err != nil {
			t.Fatal(err)
		}
		d := Diff(prev, next)
		removed := 0
		for _, e := range d.Edits {
			removed += len(e.Remove)
		}
		maxChanged = max(maxChanged, d.Changed)
		bound = max(bound, next.Size()+removed)
		if len(next.Entries) > next.Size()+2*maxChanged {
			t.Fatalf("step %d: %d indexes for %d live entries; the largest migration so far changed %d",
				step, len(next.Entries), next.Size(), maxChanged)
		}
		// The exact invariant: a rebuild only grows the array when it has
		// used up every hole, and then to its live entries plus what it
		// removed.
		if len(next.Entries) > bound {
			t.Fatalf("step %d: %d indexes, past the largest live+removed of any step so far (%d)",
				step, len(next.Entries), bound)
		}
		checkStructure(t, next)
		prev = next
		if step%10 != 0 && step != steps-1 {
			continue // the comparison is most of the test's time
		}
		fresh, err := BuildAssignment(1, dir, place, stages, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(byProvenance(t, next), byProvenance(t, fresh)) {
			t.Fatalf("step %d: rebuilt assignment differs from a fresh build by more than numbering", step)
		}
		if !reflect.DeepEqual(next.Preconds, fresh.Preconds) || !reflect.DeepEqual(next.Effects.Objects, fresh.Effects.Objects) || next.Slots != fresh.Slots {
			t.Fatalf("step %d: preconditions, object effects or slots differ from a fresh build", step)
		}
	}
}

// TestDiffStaysProportionalAfterChurn: TestRebuildDiffStability's
// one-partition move must cost the same edits on an assignment that has
// been through 500 migrations (and back to the round-robin placement) as
// on a virgin one.
func TestDiffStaysProportionalAfterChurn(t *testing.T) {
	const workers, parts, fan = 4, 8, 4
	place := lrPlacement(workers, parts, fan)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	stages := lrLikeStages(parts, fan)
	tmpl := &Template{ID: 1, Name: "t", Stages: stages}
	prev, err := BuildAssignment(1, dir, place, stages, 0)
	if err != nil {
		t.Fatal(err)
	}
	move := func(from *Assignment) int {
		t.Helper()
		place.Reassign(1, 1, 1)
		place.Reassign(3, 1, 1)
		next, err := tmpl.Rebuild(1, dir, place, from)
		if err != nil {
			t.Fatal(err)
		}
		place.Reassign(1, 1, 2)
		place.Reassign(3, 1, 2)
		return Diff(from, next).Changed
	}
	virgin := move(prev)

	rng := rand.New(rand.NewSource(28))
	for step := 0; step <= 500; step++ {
		if step < 500 {
			p, dst := rng.Intn(parts), ids.WorkerID(1+rng.Intn(workers))
			place.Reassign(1, p, dst)
			place.Reassign(3, p, dst)
		} else {
			for p := 0; p < parts; p++ {
				place.Reassign(1, p, ids.WorkerID(1+p%workers))
				place.Reassign(3, p, ids.WorkerID(1+p%workers))
			}
		}
		if prev, err = tmpl.Rebuild(1, dir, place, prev); err != nil {
			t.Fatal(err)
		}
	}
	checkStructure(t, prev)
	if len(prev.Entries) > 2*prev.Size() {
		t.Fatalf("%d indexes for %d live entries after 500 migrations", len(prev.Entries), prev.Size())
	}
	if got := move(prev); got != virgin || got == 0 || got > 12 {
		t.Fatalf("one-partition move changed %d entries after 500 migrations, %d on a virgin assignment (bound 12)", got, virgin)
	}
}

// TestRebuildReusesHoles: the entries a migration adds take the indexes the
// migration before it removed, lowest first, before the array grows.
func TestRebuildReusesHoles(t *testing.T) {
	const workers, parts, fan = 4, 16, 4
	place := lrPlacement(workers, parts, fan)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	stages := lrLikeStages(parts, fan)
	tmpl := &Template{ID: 1, Name: "t", Stages: stages}
	virgin, err := BuildAssignment(1, dir, place, stages, 0)
	if err != nil {
		t.Fatal(err)
	}
	migrate := func(prev *Assignment, p int, dst ids.WorkerID) (*Assignment, []int32, []int32) {
		t.Helper()
		place.Reassign(1, p, dst)
		place.Reassign(3, p, dst)
		next, err := tmpl.Rebuild(1, dir, place, prev)
		if err != nil {
			t.Fatal(err)
		}
		var removed, added []int32
		for _, e := range Diff(prev, next).Edits {
			removed = append(removed, e.Remove...)
			for i := range e.Add {
				added = append(added, e.Add[i].Index)
			}
		}
		slices.Sort(removed)
		slices.Sort(added)
		return next, removed, added
	}
	// Partition 1 lives on worker 2, partition 6 on worker 3; both move to
	// worker 1.
	first, removed, added := migrate(virgin, 1, 1)
	holes := make(map[int32]bool)
	for _, idx := range removed {
		if first.Entries[idx].Kind == 0 {
			holes[idx] = true
		}
	}
	if len(holes) == 0 {
		t.Fatalf("first migration left no tombstone (removed %v, added %v)", removed, added)
	}
	for _, idx := range added {
		if int(idx) < len(virgin.Entries) && virgin.Entries[idx].Kind == 0 {
			t.Fatalf("first migration added at %d, a hole a virgin assignment cannot have", idx)
		}
	}
	second, _, added := migrate(first, 6, 1)
	checkStructure(t, second)
	fresh := 0
	for _, idx := range added {
		if int(idx) < len(first.Entries) && first.Entries[idx].Kind != 0 {
			continue // an entry that changed in place, not a new one
		}
		if !holes[idx] {
			fresh++
		}
		delete(holes, idx)
	}
	if fresh > 0 && len(holes) > 0 {
		t.Fatalf("second migration grew the array by %d while holes %v were free", fresh, holes)
	}
	if fresh == len(added) {
		t.Fatalf("second migration reused no index: added %v", added)
	}
}

// TestRebuildDuplicateProvenance: a stage whose tasks read-modify-write one
// shared object from alternating workers copies it to the same worker twice
// within the stage, so two live entries share a provenance. A rebuild must
// still give every entry an index of its own.
func TestRebuildDuplicateProvenance(t *testing.T) {
	place := NewStaticPlacement(2)
	place.Define(1, 1)
	place.Define(2, 4)
	stages := []*proto.SubmitStage{{
		Stage: 1, Fn: fn.FuncSim, Tasks: 4,
		Refs: []proto.VarRef{
			{Var: 2, Write: true, Pattern: proto.OnePerTask},
			{Var: 1, Pattern: proto.Shared},
			{Var: 1, Write: true, Pattern: proto.Shared},
		},
	}}
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	tmpl := &Template{ID: 1, Name: "t", Stages: stages}
	prev, err := BuildAssignment(1, dir, place, stages, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Provenance]bool)
	dup := false
	for _, p := range prev.Prov {
		dup = dup || seen[p]
		seen[p] = true
	}
	if !dup {
		t.Fatal("the block no longer produces a duplicate provenance; pick another")
	}
	for i := 0; i < 3; i++ {
		next, err := tmpl.Rebuild(1, dir, place, prev)
		if err != nil {
			t.Fatal(err)
		}
		checkStructure(t, next)
		if next.Size() != prev.Size() {
			t.Fatalf("rebuild %d under the same placement has %d live entries, want %d", i, next.Size(), prev.Size())
		}
		prev = next
	}
}
