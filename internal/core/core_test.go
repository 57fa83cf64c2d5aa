package core

import (
	"reflect"
	"testing"

	"nimbus/internal/command"
	"nimbus/internal/flow"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// lrLikeStages builds a gradient/reduce/apply stage triple over the given
// placement (the LR shape the paper benchmarks).
func lrLikeStages(parts, fan int) []*proto.SubmitStage {
	return []*proto.SubmitStage{
		{
			Stage: 1, Fn: fn.FuncSim, Tasks: parts,
			Refs: []proto.VarRef{
				{Var: 1, Pattern: proto.OnePerTask},              // tdata
				{Var: 2, Pattern: proto.Shared},                  // coeff
				{Var: 3, Write: true, Pattern: proto.OnePerTask}, // grad
			},
		},
		{
			Stage: 2, Fn: fn.FuncSim, Tasks: parts / fan,
			Refs: []proto.VarRef{
				{Var: 3, Pattern: proto.Grouped},
				{Var: 4, Write: true, Pattern: proto.OnePerTask}, // gsum
			},
		},
		{
			Stage: 3, Fn: fn.FuncSim, Tasks: 1,
			Refs: []proto.VarRef{
				{Var: 4, Pattern: proto.Grouped},
				{Var: 2, Pattern: proto.Shared},
				{Var: 2, Write: true, Pattern: proto.Shared},
			},
		},
	}
}

func buildLRAssignment(t *testing.T, workers, parts, fan int) (*Assignment, *flow.Directory, *StaticPlacement) {
	t.Helper()
	place := NewStaticPlacement(workers)
	place.Define(1, parts)
	place.Define(2, 1)
	place.Define(3, parts)
	place.Define(4, parts/fan)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	b := NewBuilder(dir, place)
	for _, s := range lrLikeStages(parts, fan) {
		if err := b.AddStage(s); err != nil {
			t.Fatalf("add stage: %v", err)
		}
	}
	return b.Finalize(1), dir, place
}

// TestBuilderStructure checks the template's invariants: every entry's
// before edges stay on the same worker, copy pairs route correctly, and
// restore copies make the postcondition cover the precondition.
func TestBuilderStructure(t *testing.T) {
	a, _, _ := buildLRAssignment(t, 4, 8, 4)
	workerOf := a.WorkerOf
	for i := range a.Entries {
		e := &a.Entries[i]
		if e.Kind == 0 {
			continue
		}
		for _, dep := range e.BeforeIdx {
			if workerOf[dep] != workerOf[i] {
				t.Errorf("entry %d: before edge to %d crosses workers %v->%v",
					i, dep, workerOf[i], workerOf[dep])
			}
		}
		if e.Kind == command.CopySend {
			recv := &a.Entries[e.DstIdx]
			if recv.Kind != command.CopyRecv {
				t.Errorf("send %d targets non-recv %d", i, e.DstIdx)
			}
			if workerOf[e.DstIdx] != e.DstWorker {
				t.Errorf("send %d: DstWorker %v but recv on %v", i, e.DstWorker, workerOf[e.DstIdx])
			}
		}
	}

	// Postcondition must cover the precondition: every precondition's
	// logical object, if written by the template, ends with the worker
	// among the final holders.
	finalHolders := make(map[ids.LogicalID]map[ids.WorkerID]bool)
	for _, oe := range a.Effects.Objects {
		m := make(map[ids.WorkerID]bool)
		for _, w := range oe.FinalHolders {
			m[w] = true
		}
		finalHolders[oe.Logical] = m
	}
	for _, pc := range a.Preconds {
		if hs, written := finalHolders[pc.Logical]; written && !hs[pc.Worker] {
			t.Errorf("precondition (%s,%s) not restored by template end", pc.Logical, pc.Worker)
		}
	}
}

// TestAutoValidation: applying the template's effects to a directory that
// satisfies its preconditions must leave them satisfied (the inductive
// property behind auto-validation, paper §4.2).
func TestAutoValidation(t *testing.T) {
	a, dir, _ := buildLRAssignment(t, 4, 8, 4)
	// Put initial data so preconditions hold: first writer creates the
	// version, later workers receive copies.
	for _, pc := range a.Preconds {
		if dir.Latest(pc.Logical) == 0 {
			dir.RecordWrite(pc.Logical, pc.Worker)
		} else if !dir.IsLatest(pc.Logical, pc.Worker) {
			dir.RecordCopy(pc.Logical, pc.Worker)
		}
	}
	if v := a.Validate(dir); len(v) != 0 {
		t.Fatalf("initial violations: %v", v)
	}
	ledgers := map[ids.WorkerID]*flow.Ledger{}
	for w := ids.WorkerID(1); w <= 4; w++ {
		ledgers[w] = flow.NewLedger(w)
	}
	for i := 0; i < 5; i++ {
		a.ApplyEffects(ids.CommandID(1000*(i+1)), dir, ledgers)
		if v := a.Validate(dir); len(v) != 0 {
			t.Fatalf("iteration %d: violations %v (auto-validation broken)", i, v)
		}
	}
}

// TestRebuildDiffStability: rebuilding under an unchanged placement must
// produce zero edits; moving one partition must produce a small diff.
func TestRebuildDiffStability(t *testing.T) {
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
	prev := b.Finalize(1)

	same, err := tmpl.Rebuild(1, dir, place, prev)
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(prev, same)
	if d.Changed != 0 {
		t.Fatalf("identical rebuild produced %d changes: %+v", d.Changed, d.Edits)
	}

	// Move partition 1 of tdata and grad to worker 1.
	place.Reassign(1, 1, 1)
	place.Reassign(3, 1, 1)
	next, err := tmpl.Rebuild(1, dir, place, prev)
	if err != nil {
		t.Fatal(err)
	}
	d = Diff(prev, next)
	if d.Changed == 0 {
		t.Fatal("migration produced no edits")
	}
	if d.Changed > 12 {
		t.Fatalf("single-partition migration produced %d changes; edits must stay proportional", d.Changed)
	}
}

// TestPatchCovers exercises the patch cache's correctness predicate.
func TestPatchCovers(t *testing.T) {
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	const l ids.LogicalID = 1
	dir.Instance(l, 1)
	dir.Instance(l, 2)
	dir.RecordWrite(l, 1)
	viols := []Violation{{Precond: Precond{Logical: l, Worker: 2, Object: dir.Instance(l, 2)}, Holder: 1}}
	p, err := BuildPatch(1, dir, viols)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 {
		t.Fatalf("patch size = %d", p.Size())
	}
	if !p.Covers(dir, viols) {
		t.Fatal("fresh patch must cover its violations")
	}
	// If the source goes stale the patch must be rejected.
	dir.RecordWrite(l, 2)
	if p.Covers(dir, viols) {
		t.Fatal("patch with stale source must not cover")
	}
}

func TestPatchCacheHitMiss(t *testing.T) {
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	const l ids.LogicalID = 1
	dir.Instance(l, 1)
	dir.Instance(l, 2)
	dir.RecordWrite(l, 1)
	viols := []Violation{{Precond: Precond{Logical: l, Worker: 2, Object: dir.Instance(l, 2)}, Holder: 1}}
	cache := NewPatchCache()
	tr := Transition{Prev: 1, Next: 2}
	if cache.Lookup(tr, dir, viols) != nil {
		t.Fatal("empty cache hit")
	}
	p, _ := BuildPatch(1, dir, viols)
	cache.Store(tr, p)
	if cache.Lookup(tr, dir, viols) == nil {
		t.Fatal("cache miss after store")
	}
	if cache.Hits != 1 || cache.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", cache.Hits, cache.Misses)
	}
}

// TestStencilAccess verifies the stencil pattern's partition expansion.
func TestStencilAccess(t *testing.T) {
	place := NewStaticPlacement(2)
	place.Define(1, 4)
	place.Define(2, 4)
	spec := &proto.SubmitStage{
		Stage: 1, Fn: fn.FuncSim, Tasks: 4,
		Refs: []proto.VarRef{
			{Var: 1, Pattern: proto.Stencil, Fixed: 1},
			{Var: 2, Write: true, Pattern: proto.OnePerTask},
		},
	}
	wantReads := [][]int{{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}}
	for task, want := range wantReads {
		reads, writes, err := TaskAccesses(spec, place, task)
		if err != nil {
			t.Fatal(err)
		}
		if len(reads) != len(want) {
			t.Fatalf("task %d reads %d partitions, want %d", task, len(reads), len(want))
		}
		if len(writes) != 1 {
			t.Fatalf("task %d writes %d", task, len(writes))
		}
	}
}

// TestGroupedMismatch checks validation of inconsistent stage shapes.
func TestGroupedMismatch(t *testing.T) {
	place := NewStaticPlacement(2)
	place.Define(1, 7)
	spec := &proto.SubmitStage{
		Stage: 1, Fn: fn.FuncSim, Tasks: 2,
		Refs: []proto.VarRef{{Var: 1, Pattern: proto.Grouped}},
	}
	if _, _, err := TaskAccesses(spec, place, 0); err == nil {
		t.Fatal("grouped access with non-divisible partitions must fail")
	}
}

// TestBuildParallelMatchesSerial: the sharded build must be bit-identical
// to the serial build at every parallelism level — the controller relies
// on this when committing off-loop builds and diffing rebuilds.
func TestBuildParallelMatchesSerial(t *testing.T) {
	build := func(par int) *Assignment {
		place := NewStaticPlacement(8)
		place.Define(1, 64)
		place.Define(2, 1)
		place.Define(3, 64)
		place.Define(4, 16)
		var alloc ids.ObjectIDs
		dir := flow.NewDirectory(&alloc)
		a, err := BuildAssignment(1, dir, place, lrLikeStages(64, 4), par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return a
	}
	serial := build(1)
	for _, par := range []int{2, 4, 8, 0} {
		p := build(par)
		if !reflect.DeepEqual(serial.Entries, p.Entries) {
			t.Fatalf("par=%d: entries differ from serial build", par)
		}
		if !reflect.DeepEqual(serial.Effects, p.Effects) {
			t.Fatalf("par=%d: effects differ from serial build", par)
		}
		if !reflect.DeepEqual(serial.Preconds, p.Preconds) {
			t.Fatalf("par=%d: preconditions differ from serial build", par)
		}
		if !reflect.DeepEqual(serial.PerWorker, p.PerWorker) {
			t.Fatalf("par=%d: per-worker lists differ from serial build", par)
		}
		if serial.Size() != p.Size() {
			t.Fatalf("par=%d: size %d != %d", par, p.Size(), serial.Size())
		}
	}
}

// TestAssignmentSizeLiveCount: Size must stay correct through edit and
// tombstone churn without rescanning the entry array: migrations that move
// partitions away, back, and onto one worker until others empty.
func TestAssignmentSizeLiveCount(t *testing.T) {
	const workers, parts, fan = 4, 16, 4
	place := lrPlacement(workers, parts, fan)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	stages := lrLikeStages(parts, fan)
	tmpl := &Template{ID: 1, Name: "t", Stages: stages}
	a, err := BuildAssignment(1, dir, place, stages, 0)
	if err != nil {
		t.Fatal(err)
	}
	recount := func(a *Assignment) int {
		n := 0
		for i := range a.Entries {
			if a.Entries[i].Kind != 0 {
				n++
			}
		}
		return n
	}
	if a.Size() != recount(a) {
		t.Fatalf("fresh build: Size=%d recount=%d", a.Size(), recount(a))
	}
	steps := []struct {
		parts []int
		dst   ids.WorkerID
	}{
		{[]int{0, 1, 2, 3}, 2},
		{[]int{1}, 2},
		{[]int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 1},
		{[]int{0, 1, 2, 3}, 1}, // every partition on worker 1
		{[]int{3, 7}, 4},
		{[]int{3, 7, 9}, 3},
	}
	for i, st := range steps {
		var moves []Move
		for _, p := range st.parts {
			place.Reassign(1, p, st.dst)
			place.Reassign(3, p, st.dst)
			moves = append(moves, Move{1, p}, Move{3, p})
		}
		next, _, err := tmpl.Migrate(1, dir, place, a, moves, 0)
		if err != nil {
			t.Fatal(err)
		}
		if next.Size() != recount(next) {
			t.Fatalf("step %d: Size=%d recount=%d", i, next.Size(), recount(next))
		}
		if a.Size() != recount(a) {
			t.Fatalf("step %d changed its predecessor: Size=%d recount=%d", i, a.Size(), recount(a))
		}
		a = next
	}
}

// TestZeroTaskStageRecordable: a degenerate zero-task stage must validate
// and build to nothing, matching the live scheduling path.
func TestZeroTaskStageRecordable(t *testing.T) {
	place := NewStaticPlacement(2)
	place.Define(1, 4)
	spec := &proto.SubmitStage{
		Stage: 1, Fn: fn.FuncSim, Tasks: 0,
		Refs: []proto.VarRef{{Var: 1, Pattern: proto.OnePerTask}},
	}
	if err := ValidateStage(spec, place); err != nil {
		t.Fatalf("zero-task stage rejected: %v", err)
	}
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	a, err := BuildAssignment(1, dir, place, []*proto.SubmitStage{spec}, 0)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if a.Size() != 0 || len(a.Entries) != 0 {
		t.Fatalf("zero-task stage built %d entries", len(a.Entries))
	}
}
