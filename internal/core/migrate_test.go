package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nimbus/internal/command"
	"nimbus/internal/flow"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// migrationShape is one template a migration chain runs on: its stages,
// its variables' partition counts, and the variable groups a migration
// moves together.
type migrationShape struct {
	name   string
	stages []*proto.SubmitStage
	vars   map[ids.VariableID]int
	groups [][]ids.VariableID
}

// benchLRStages is the benchmark's LR block: lrLikeStages plus a counter
// the last task reads and writes.
func benchLRStages(parts, fan int) []*proto.SubmitStage {
	st := lrLikeStages(parts, fan)
	st[2].Refs = append(st[2].Refs,
		proto.VarRef{Var: 5, Pattern: proto.Shared},
		proto.VarRef{Var: 5, Write: true, Pattern: proto.Shared})
	return st
}

func migrationShapes() []migrationShape {
	const parts, fan = 64, 8
	lrVars := map[ids.VariableID]int{1: parts, 2: 1, 3: parts, 4: parts / fan}
	benchVars := map[ids.VariableID]int{1: parts, 2: 1, 3: parts, 4: parts / fan, 5: 1}
	return []migrationShape{
		{"lr", lrLikeStages(parts, fan), lrVars, [][]ids.VariableID{{1, 3}, {4}, {3}}},
		{"bench-lr", benchLRStages(parts, fan), benchVars, [][]ids.VariableID{{1, 3}, {4}}},
		{"stencil", []*proto.SubmitStage{
			{Stage: 1, Fn: fn.FuncSim, Tasks: parts, Refs: []proto.VarRef{
				{Var: 1, Pattern: proto.Stencil, Fixed: 1},
				{Var: 2, Write: true, Pattern: proto.OnePerTask}}},
			{Stage: 2, Fn: fn.FuncSim, Tasks: parts, Params: []byte{7}, Refs: []proto.VarRef{
				{Var: 2, Pattern: proto.Stencil, Fixed: 2},
				{Var: 1, Write: true, Pattern: proto.OnePerTask}}},
		}, map[ids.VariableID]int{1: parts, 2: parts}, [][]ids.VariableID{{1}, {2}, {1, 2}}},
		{"grouped-rw", []*proto.SubmitStage{
			{Stage: 1, Fn: fn.FuncSim, Tasks: parts / 4, Refs: []proto.VarRef{
				{Var: 1, Pattern: proto.Grouped},
				{Var: 1, Write: true, Pattern: proto.Grouped}}},
			{Stage: 2, Fn: fn.FuncSim, Tasks: parts, Refs: []proto.VarRef{
				{Var: 1, Pattern: proto.OnePerTask},
				{Var: 2, Write: true, Pattern: proto.OnePerTask}}},
		}, map[ids.VariableID]int{1: parts, 2: parts}, [][]ids.VariableID{{1}, {2}, {1, 2}}},
	}
}

// renderDiff renders a diff by provenance: per worker, the provenances it
// removes and the entries it adds (as byProvenance renders them, against
// next).
func renderDiff(prev, next *Assignment, d *DiffResult) map[ids.WorkerID]any {
	type added struct {
		e      command.TemplateEntry
		before map[Provenance]bool
		dst    Provenance
	}
	out := make(map[ids.WorkerID]any)
	for w, e := range d.Edits {
		if len(e.Remove) == 0 && len(e.Add) == 0 {
			continue
		}
		rm := make(map[Provenance]int)
		for _, idx := range e.Remove {
			rm[prev.Prov[idx]]++
		}
		add := make(map[Provenance]added)
		for _, ne := range e.Add {
			r := added{before: make(map[Provenance]bool)}
			for _, dep := range ne.BeforeIdx {
				r.before[next.Prov[dep]] = true
			}
			if ne.Kind == command.CopySend {
				r.dst = next.Prov[ne.DstIdx]
			}
			p := next.Prov[ne.Index]
			ne.Index, ne.BeforeIdx, ne.DstIdx = 0, nil, 0
			r.e = ne
			add[p] = r
		}
		out[w] = []any{rm, add}
	}
	return out
}

// editMeta renders what Migrate keeps beside the entries by provenance:
// every entry's key, every object's epochs, the copy and precondition
// records, and the tasks' entries.
func editMeta(a *Assignment) map[string]any {
	keys := make(map[Provenance]int32)
	for i, p := range a.Prov {
		if a.Entries[i].Kind != 0 {
			keys[p] = a.key[i]
		}
	}
	type ep struct {
		writer  Provenance
		wkey    int32
		readers []Provenance
	}
	hist := make(map[ids.WorkerID]map[ids.ObjectID][]ep)
	for w, les := range a.Effects.Ledger {
		hist[w] = make(map[ids.ObjectID][]ep)
		for i, h := range les {
			for _, e := range a.epochsOf(w, i) {
				r := ep{wkey: e.wkey}
				if e.writer >= 0 {
					r.writer = a.Prov[e.writer]
				}
				for _, idx := range e.readers {
					r.readers = append(r.readers, a.Prov[idx])
				}
				hist[w][h.Object] = append(hist[w][h.Object], r)
			}
		}
	}
	type cp struct {
		key        int32
		send, recv Provenance
	}
	var copies []cp
	for _, c := range a.copyOf {
		copies = append(copies, cp{c.Key, a.Prov[c.Send], a.Prov[c.Recv]})
	}
	tasks := make([]Provenance, len(a.taskIdx))
	for f, idx := range a.taskIdx {
		tasks[f] = a.Prov[idx]
	}
	return map[string]any{"keys": keys, "hist": hist, "copies": copies, "pcOf": a.pcOf, "pcKey": a.pcKey, "tasks": tasks}
}

// checkAgainstRebuild runs one migration both ways from prev — Migrate,
// then RebuildPar + Diff on the same directory, so both resolve the same
// instances — and fails unless they agree: by provenance, and in which
// index holds which provenance. It returns Migrate's result.
func checkAgainstRebuild(t *testing.T, label string, tmpl *Template, dir *flow.Directory, place Placement, prev *Assignment, moves []Move) (*Assignment, *DiffResult) {
	t.Helper()
	next, d, err := tmpl.Migrate(1, dir, place, prev, moves, 1)
	if err != nil {
		t.Fatalf("%s: migrate: %v", label, err)
	}
	oracle, err := tmpl.RebuildPar(1, dir, place, prev, 1)
	if err != nil {
		t.Fatalf("%s: rebuild: %v", label, err)
	}
	od := Diff(prev, oracle)
	checkStructure(t, next)
	if !slices.Equal(next.Prov, oracle.Prov) {
		t.Fatalf("%s: entries are numbered unlike a rebuild's", label)
	}
	if got, want := byProvenance(t, next), byProvenance(t, oracle); !reflect.DeepEqual(got, want) {
		var diffs []string
		for p, g := range got {
			if w := want[p]; !reflect.DeepEqual(g, w) {
				diffs = append(diffs, fmt.Sprintf("%+v:\n  got  %+v\n  want %+v", p, g, w))
			}
		}
		for p, w := range want {
			if _, ok := got[p]; !ok {
				diffs = append(diffs, fmt.Sprintf("%+v: missing, want %+v", p, w))
			}
		}
		slices.Sort(diffs)
		t.Fatalf("%s: entries, workers, before sets or ledger effects differ from a rebuild:\n%s", label, strings.Join(diffs[:min(len(diffs), 6)], "\n"))
	}
	if !reflect.DeepEqual(editMeta(next), editMeta(oracle)) {
		t.Fatalf("%s: edit metadata differs from a rebuild's:\n%v\n%v", label, editMeta(next), editMeta(oracle))
	}
	if !reflect.DeepEqual(next.Preconds, oracle.Preconds) {
		t.Fatalf("%s: preconditions differ from a rebuild:\n%v\n%v", label, next.Preconds, oracle.Preconds)
	}
	if !reflect.DeepEqual(next.Effects.Objects, oracle.Effects.Objects) || next.Slots != oracle.Slots {
		t.Fatalf("%s: object effects or slots differ from a rebuild", label)
	}
	if !reflect.DeepEqual(renderDiff(prev, next, d), renderDiff(prev, oracle, od)) {
		t.Fatalf("%s: edits differ from Diff against a rebuild", label)
	}
	if d.Changed != od.Changed || !slices.Equal(d.NewWorkers, od.NewWorkers) || !slices.Equal(d.EmptiedWorkers, od.EmptiedWorkers) {
		t.Fatalf("%s: changed %d, new %v, emptied %v; a rebuild gives %d, %v, %v",
			label, d.Changed, d.NewWorkers, d.EmptiedWorkers, od.Changed, od.NewWorkers, od.EmptiedWorkers)
	}
	return next, d
}

// TestMigrateMatchesRebuild: Migrate's assignment and edits equal
// RebuildPar + Diff's, numbering included, after every one
// of 1000 seeded chained migrations over four template shapes — the LR
// block, the benchmark's LR block with its counter, a stencil pair and a
// stage that reads and writes one grouped variable. Each migration moves
// 1 to 5% of one variable group's partitions to a random worker. The
// chain's index space must stay within TestMigrationChainStaysBounded's
// bound, and no migration may fall back to a rebuild.
func TestMigrateMatchesRebuild(t *testing.T) {
	const workers, steps = 5, 250
	for si, sh := range migrationShapes() {
		t.Run(sh.name, func(t *testing.T) {
			place := NewStaticPlacement(workers)
			for v := ids.VariableID(1); int(v) <= len(sh.vars); v++ {
				place.Define(v, sh.vars[v])
			}
			var alloc ids.ObjectIDs
			dir := flow.NewDirectory(&alloc)
			tmpl := &Template{ID: 1, Name: sh.name, Stages: sh.stages}
			prev, err := BuildAssignment(1, dir, place, sh.stages, 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(52 + si)))
			bound := prev.Size()
			for step := 0; step < steps; step++ {
				group := sh.groups[rng.Intn(len(sh.groups))]
				n := sh.vars[group[0]]
				k := max(1, n*(1+rng.Intn(5))/100)
				dst := ids.WorkerID(1 + rng.Intn(workers))
				var moves []Move
				for _, p := range rng.Perm(n)[:k] {
					for _, v := range group {
						place.Reassign(v, p, dst)
						moves = append(moves, Move{v, p})
					}
				}
				next, d := checkAgainstRebuild(t, fmt.Sprintf("step %d", step), tmpl, dir, place, prev, moves)
				if d.Rebuilt {
					t.Fatalf("step %d fell back to a rebuild", step)
				}
				removed := 0
				for _, e := range d.Edits {
					removed += len(e.Remove)
				}
				bound = max(bound, next.Size()+removed)
				if len(next.Entries) > bound {
					t.Fatalf("step %d: %d indexes, past the largest live+removed of any step so far (%d)",
						step, len(next.Entries), bound)
				}
				prev = next
			}
		})
	}
}

// TestMigrateAnyAnchor: with no moves named, Migrate compares every anchor,
// which is how an assignment made for another placement (one restored from
// a cache) is brought to the current one.
func TestMigrateAnyAnchor(t *testing.T) {
	const workers, parts, fan = 4, 32, 4
	place := lrPlacement(workers, parts, fan)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	stages := lrLikeStages(parts, fan)
	tmpl := &Template{ID: 1, Name: "t", Stages: stages}
	prev, err := BuildAssignment(1, dir, place, stages, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 50; step++ {
		for _, p := range rng.Perm(parts)[:1+rng.Intn(parts/2)] {
			w := ids.WorkerID(1 + rng.Intn(workers))
			place.Reassign(1, p, w)
			place.Reassign(3, p, w)
		}
		next, d := checkAgainstRebuild(t, fmt.Sprintf("step %d", step), tmpl, dir, place, prev, nil)
		if d.Rebuilt {
			t.Fatalf("step %d fell back to a rebuild", step)
		}
		prev = next
	}
}

// TestMigrateFallsBackOnDuplicateProvenance: in TestRebuildDuplicateProvenance's
// shape two live copies share a provenance, which Migrate cannot number
// exactly; it rebuilds instead and says so.
func TestMigrateFallsBackOnDuplicateProvenance(t *testing.T) {
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
	place.Reassign(2, 1, 1)
	next, d := checkAgainstRebuild(t, "duplicate", tmpl, dir, place, prev, []Move{{2, 1}})
	if !d.Rebuilt {
		t.Fatal("a cone with a duplicate provenance was edited, not rebuilt")
	}
	// The rebuilt assignment carries the metadata to be edited again.
	place.Reassign(2, 1, 2)
	if _, _, err := tmpl.Migrate(1, dir, place, next, []Move{{2, 1}}, 1); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateVisitsOnlyTheCone: on the benchmark's churn shape (the LR
// block with its counter at 512 partitions, 4 workers, 26 partitions of
// data and gradient moved to one worker per migration), the entries and
// accessor records a migration visits stay within 8 times the entries it
// adds and removes, and nothing falls back to a rebuild.
func TestMigrateVisitsOnlyTheCone(t *testing.T) {
	const workers, parts, fan, moved, steps = 4, 512, 8, 26, 200
	place := NewStaticPlacement(workers)
	place.Define(1, parts)
	place.Define(2, 1)
	place.Define(3, parts)
	place.Define(4, parts/fan)
	place.Define(5, 1)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	stages := benchLRStages(parts, fan)
	tmpl := &Template{ID: 1, Name: "t", Stages: stages}
	prev, err := BuildAssignment(1, dir, place, stages, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	visited, changed, worst := 0, 0, 0.0
	for step := 0; step < steps; step++ {
		dst := ids.WorkerID(1 + rng.Intn(workers))
		var moves []Move
		for _, p := range rng.Perm(parts)[:moved] {
			place.Reassign(1, p, dst)
			place.Reassign(3, p, dst)
			moves = append(moves, Move{1, p}, Move{3, p})
		}
		next, d, err := tmpl.Migrate(1, dir, place, prev, moves, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.Rebuilt {
			t.Fatalf("step %d fell back to a rebuild", step)
		}
		if d.Visited > 8*d.Changed {
			t.Fatalf("step %d visited %d entries and accessor records for %d entries changed", step, d.Visited, d.Changed)
		}
		visited += d.Visited
		changed += d.Changed
		worst = max(worst, float64(d.Visited)/float64(d.Changed))
		prev = next
	}
	t.Logf("visited/changed over %d migrations: %.2f (worst %.2f)", steps, float64(visited)/float64(changed), worst)
}
