// Package nimbus_bench wraps the experiment harness (internal/bench) as
// testing.B benchmarks — one per table and figure of the paper's
// evaluation — plus ablation benchmarks for the design choices DESIGN.md
// calls out. Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the experiment's headline quantity as a custom
// metric and logs the full regenerated table once (use -v to see it).
// These run at quick scale; cmd/nimbus-bench -scale paper runs the full
// configuration.
package nimbus_bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nimbus/internal/app/kmeans"
	"nimbus/internal/app/lr"
	"nimbus/internal/bench"
	"nimbus/internal/cluster"
	"nimbus/internal/command"
	"nimbus/internal/controller"
	"nimbus/internal/core"
	"nimbus/internal/datastore"
	"nimbus/internal/driver"
	"nimbus/internal/flow"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
	"nimbus/internal/worker"
)

// runTable executes one experiment per benchmark run and logs its table.
var tableOnce sync.Map

func runTable(b *testing.B, name string, f func(bench.Scale) (*bench.Table, error)) {
	b.Helper()
	s := bench.Quick()
	s.Iterations = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := f(s)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if _, logged := tableOnce.LoadOrStore(name, true); !logged {
			b.Logf("\n%s", t.Format())
		}
	}
}

func BenchmarkFig1ControlPlaneBottleneck(b *testing.B) { runTable(b, "fig1", bench.Fig1) }
func BenchmarkTable1Install(b *testing.B)              { runTable(b, "table1", bench.Table1) }
func BenchmarkTable2Instantiate(b *testing.B)          { runTable(b, "table2", bench.Table2) }
func BenchmarkTable3Edits(b *testing.B)                { runTable(b, "table3", bench.Table3) }
func BenchmarkFig7Iteration(b *testing.B)              { runTable(b, "fig7", bench.Fig7) }
func BenchmarkFig8Throughput(b *testing.B)             { runTable(b, "fig8", bench.Fig8) }
func BenchmarkFig9Adaptation(b *testing.B)             { runTable(b, "fig9", bench.Fig9) }
func BenchmarkFig10Migration(b *testing.B)             { runTable(b, "fig10", bench.Fig10) }
func BenchmarkFig11WaterSim(b *testing.B)              { runTable(b, "fig11", bench.Fig11) }
func BenchmarkShuffle(b *testing.B)                    { runTable(b, "shuffle", bench.Shuffle) }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core template operations (no cluster, pure
// controller-side costs). These are the tightest loops behind Table 2.

// benchStages is the LR-shaped stage triple the template micro-benchmarks
// build (gradient, reduce, apply).
func benchStages(parts, fan int) []*proto.SubmitStage {
	return []*proto.SubmitStage{
		{Stage: 1, Fn: fn.FuncSim, Tasks: parts,
			Refs: []proto.VarRef{
				{Var: 1, Pattern: proto.OnePerTask},
				{Var: 2, Pattern: proto.Shared},
				{Var: 3, Write: true, Pattern: proto.OnePerTask},
			}},
		{Stage: 2, Fn: fn.FuncSim, Tasks: parts / fan,
			Refs: []proto.VarRef{
				{Var: 3, Pattern: proto.Grouped},
				{Var: 4, Write: true, Pattern: proto.OnePerTask},
			}},
		{Stage: 3, Fn: fn.FuncSim, Tasks: 1,
			Refs: []proto.VarRef{
				{Var: 4, Pattern: proto.Grouped},
				{Var: 2, Pattern: proto.Shared},
				{Var: 2, Write: true, Pattern: proto.Shared},
			}},
	}
}

func benchPlacement(workers, parts, fan int) *core.StaticPlacement {
	place := core.NewStaticPlacement(workers)
	place.Define(1, parts)
	place.Define(2, 1)
	place.Define(3, parts)
	place.Define(4, parts/fan)
	return place
}

func buildAssignment(b *testing.B, workers, parts, fan int) (*core.Assignment, *flow.Directory, map[ids.WorkerID]*flow.Ledger) {
	b.Helper()
	place := benchPlacement(workers, parts, fan)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	bld := core.NewBuilder(dir, place)
	for _, s := range benchStages(parts, fan) {
		if err := bld.AddStage(s); err != nil {
			b.Fatal(err)
		}
	}
	a := bld.Finalize(1)
	ledgers := make(map[ids.WorkerID]*flow.Ledger, workers)
	for w := 1; w <= workers; w++ {
		ledgers[ids.WorkerID(w)] = flow.NewLedger(ids.WorkerID(w))
	}
	for _, pc := range a.Preconds {
		if dir.Latest(pc.Logical) == 0 {
			dir.RecordWrite(pc.Logical, pc.Worker)
		} else if !dir.IsLatest(pc.Logical, pc.Worker) {
			dir.RecordCopy(pc.Logical, pc.Worker)
		}
	}
	return a, dir, ledgers
}

// BenchmarkTemplateBuild measures building an 8000-task template (the
// controller-template install cost of Table 1), serial against the
// sharded multi-core build the off-loop pipeline uses.
func BenchmarkTemplateBuild(b *testing.B) {
	run := func(b *testing.B, par int) {
		place := benchPlacement(100, 8000, 80)
		stages := benchStages(8000, 80)
		var alloc ids.ObjectIDs
		dir := flow.NewDirectory(&alloc)
		// Warm the instance table so iterations measure construction, not
		// first-touch allocation.
		if _, err := core.BuildAssignment(1, dir, place, stages, par); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildAssignment(1, dir, place, stages, par); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/8101, "ns/task")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkRetargetAll measures SetActive over a cluster with several
// installed templates — the Figure 9 revoke/restore slow path — with the
// saved worker-set records invalidated every iteration so each SetActive
// rebuilds every template. serial pins the controller's build pool to one
// goroutine; parallel uses the default GOMAXPROCS pool.
func BenchmarkRetargetAll(b *testing.B) {
	run := func(b *testing.B, par int) {
		c, err := cluster.Start(cluster.Options{
			Workers: 8, Slots: 8, BuildParallelism: par,
			Registry: fn.NewRegistry(),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Stop()
		d, err := c.Driver("retarget-bench")
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		const tmpls, parts = 8, 512
		for i := 0; i < tmpls; i++ {
			name := fmt.Sprintf("blk%d", i)
			v := d.MustVar(name, parts)
			if err := d.BeginTemplate(name); err != nil {
				b.Fatal(err)
			}
			if err := d.Submit(fn.FuncNop, parts, nil, v.Write()); err != nil {
				b.Fatal(err)
			}
			if err := d.EndTemplate(name); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Barrier(); err != nil {
			b.Fatal(err)
		}
		var all []ids.WorkerID
		c.Controller.Do(func() { all = c.Controller.ActiveWorkers() })
		// The job runs on all, so the first move is to the other set:
		// SetActive onto the set a job already runs on changes nothing.
		sets := [][]ids.WorkerID{all[:len(all)/2], all}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var rerr error
			set := sets[i%2]
			c.Controller.Do(func() {
				c.Controller.InvalidateAssignmentCache()
				rerr = c.Controller.SetActive(set)
			})
			if rerr != nil {
				b.Fatal(rerr)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tmpls*parts), "ns/task")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkTemplateValidate measures full precondition validation.
func BenchmarkTemplateValidate(b *testing.B) {
	a, dir, _ := buildAssignment(b, 100, 8000, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := a.Validate(dir); len(v) != 0 {
			b.Fatalf("violations: %d", len(v))
		}
	}
}

// BenchmarkTemplateApplyEffects measures the controller-side instantiation
// bookkeeping (Table 2's 0.2µs/task path).
func BenchmarkTemplateApplyEffects(b *testing.B) {
	a, dir, ledgers := buildAssignment(b, 100, 8000, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ApplyEffects(ids.CommandID(uint64(i+1)*100000), dir, ledgers)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/8000, "ns/task")
}

// BenchmarkWorkerMaterialize measures the worker-side instantiation cost:
// translating cached entries to concrete commands (Table 2's 1.7µs/task).
func BenchmarkWorkerMaterialize(b *testing.B) {
	a, _, _ := buildAssignment(b, 100, 8000, 80)
	idxs := a.PerWorker[1]
	entries := make([]*command.TemplateEntry, len(idxs))
	for i, idx := range idxs {
		entries[i] = &a.Entries[idx]
	}
	out := make([]command.Command, len(entries))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := ids.CommandID(uint64(i+1) * 100000)
		for j, e := range entries {
			e.Materialize(base, nil, &out[j])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(entries)), "ns/task")
}

// BenchmarkRebuildDiff measures edit generation (rebuild + provenance
// diff) on an 8000-task template. One op is a fixed chain of 1000
// single-partition migrations, each rebuilt against the one before, so
// ns/op does not depend on b.N. entries/live is the index space over the
// live entries at the end of the chain: edits must not let it grow (DESIGN.md
// "Edits: a bounded index space"), and the benchmark fails above 1.25.
func BenchmarkRebuildDiff(b *testing.B) {
	const chain = 1000
	stages := []*proto.SubmitStage{
		{Stage: 1, Fn: fn.FuncSim, Tasks: 8000,
			Refs: []proto.VarRef{
				{Var: 1, Pattern: proto.OnePerTask},
				{Var: 2, Pattern: proto.Shared},
				{Var: 3, Write: true, Pattern: proto.OnePerTask},
			}},
		{Stage: 2, Fn: fn.FuncSim, Tasks: 100,
			Refs: []proto.VarRef{
				{Var: 3, Pattern: proto.Grouped},
				{Var: 4, Write: true, Pattern: proto.OnePerTask},
			}},
	}
	tmpl := &core.Template{ID: 1, Name: "b", Stages: stages}
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		place := core.NewStaticPlacement(100)
		place.Define(1, 8000)
		place.Define(2, 1)
		place.Define(3, 8000)
		place.Define(4, 100)
		var alloc ids.ObjectIDs
		dir := flow.NewDirectory(&alloc)
		prev, err := core.BuildAssignment(1, dir, place, stages, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for m := 0; m < chain; m++ {
			// Move the partition to a worker other than its current owner.
			part := m * 7 % 8000
			place.Reassign(1, part, ids.WorkerID(1+(part+1)%100))
			place.Reassign(3, part, ids.WorkerID(1+(part+1)%100))
			next, err := tmpl.Rebuild(1, dir, place, prev)
			if err != nil {
				b.Fatal(err)
			}
			if core.Diff(prev, next).Changed == 0 {
				b.Fatal("no edits generated")
			}
			prev = next
		}
		ratio = float64(prev.MaxIndex()) / float64(prev.Size())
	}
	b.ReportMetric(ratio, "entries/live")
	if ratio > 1.25 {
		b.Fatalf("index space is %.2fx the live entries after %d migrations", ratio, chain)
	}
}

// BenchmarkMigrate measures what replaced BenchmarkRebuildDiff on the
// controller: Template.Migrate edits each migration's assignment from the
// moved tasks' cone instead of rebuilding and diffing the template. One op
// is the same fixed chain of 1000 single-partition migrations on the
// 8000-task template. visited/edit is the entries and accessor records a
// migration visits per entry it adds or removes; the template's one shared
// input, which every task reads, is what keeps it above 1. entries/live is
// the index space over the live entries at the end of the chain, with
// BenchmarkRebuildDiff's bound of 1.25.
func BenchmarkMigrate(b *testing.B) {
	const chain = 1000
	stages := []*proto.SubmitStage{
		{Stage: 1, Fn: fn.FuncSim, Tasks: 8000,
			Refs: []proto.VarRef{
				{Var: 1, Pattern: proto.OnePerTask},
				{Var: 2, Pattern: proto.Shared},
				{Var: 3, Write: true, Pattern: proto.OnePerTask},
			}},
		{Stage: 2, Fn: fn.FuncSim, Tasks: 100,
			Refs: []proto.VarRef{
				{Var: 3, Pattern: proto.Grouped},
				{Var: 4, Write: true, Pattern: proto.OnePerTask},
			}},
	}
	b.ReportAllocs()
	var ratio, visited, changed float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tmpl := &core.Template{ID: 1, Name: "b", Stages: stages}
		place := core.NewStaticPlacement(100)
		place.Define(1, 8000)
		place.Define(2, 1)
		place.Define(3, 8000)
		place.Define(4, 100)
		var alloc ids.ObjectIDs
		dir := flow.NewDirectory(&alloc)
		prev, err := core.BuildAssignment(1, dir, place, stages, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for m := 0; m < chain; m++ {
			part := m * 7 % 8000
			w := ids.WorkerID(1 + (part+1)%100)
			place.Reassign(1, part, w)
			place.Reassign(3, part, w)
			moves := []core.Move{{Var: 1, Partition: part}, {Var: 3, Partition: part}}
			next, d, err := tmpl.Migrate(1, dir, place, prev, moves, 0)
			if err != nil {
				b.Fatal(err)
			}
			if d.Changed == 0 || d.Rebuilt {
				b.Fatalf("migration %d: %d edits, rebuilt %v", m, d.Changed, d.Rebuilt)
			}
			visited += float64(d.Visited)
			changed += float64(d.Changed)
			prev = next
		}
		ratio = float64(prev.MaxIndex()) / float64(prev.Size())
	}
	b.ReportMetric(visited/changed, "visited/edit")
	b.ReportMetric(ratio, "entries/live")
	if ratio > 1.25 {
		b.Fatalf("index space is %.2fx the live entries after %d migrations", ratio, chain)
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §6)

// BenchmarkAblationNoAutoValidate quantifies what auto-validation saves:
// per-instantiation controller cost with and without skipping validation.
func BenchmarkAblationNoAutoValidate(b *testing.B) {
	a, dir, ledgers := buildAssignment(b, 100, 8000, 80)
	b.Run("auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Tight loop: effects only (validation skipped).
			a.ApplyEffects(ids.CommandID(uint64(i+1)*100000), dir, ledgers)
		}
	})
	b.Run("validate-every-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if v := a.Validate(dir); len(v) != 0 {
				b.Fatal("unexpected violations")
			}
			a.ApplyEffects(ids.CommandID(uint64(i+1)*100000), dir, ledgers)
		}
	})
}

// BenchmarkAblationIDArray compares the base+index command-ID encoding
// against materializing explicit per-task ID arrays (what a naive
// template would ship per instantiation).
func BenchmarkAblationIDArray(b *testing.B) {
	a, _, _ := buildAssignment(b, 100, 8000, 80)
	n := a.MaxIndex()
	b.Run("base-plus-index", func(b *testing.B) {
		var sink ids.CommandID
		for i := 0; i < b.N; i++ {
			base := ids.CommandID(uint64(i) * 100000)
			for idx := 0; idx < n; idx++ {
				sink = base + ids.CommandID(idx)
			}
		}
		_ = sink
	})
	b.Run("explicit-array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			arr := make([]ids.CommandID, n)
			base := ids.CommandID(uint64(i) * 100000)
			for idx := range arr {
				arr[idx] = base + ids.CommandID(idx)
			}
			// Shipping the array would also serialize ~10 bytes/task.
		}
	})
}

// BenchmarkAblationPatchCache measures patch construction vs cached patch
// lookup for a broadcast-shaped violation set.
func BenchmarkAblationPatchCache(b *testing.B) {
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	const l ids.LogicalID = 1
	dir.Instance(l, 1)
	dir.RecordWrite(l, 1)
	var viols []core.Violation
	for w := ids.WorkerID(2); w <= 100; w++ {
		viols = append(viols, core.Violation{
			Precond: core.Precond{Logical: l, Worker: w, Object: dir.Instance(l, w)},
			Holder:  1,
		})
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildPatch(ids.PatchID(i+1), dir, viols); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-lookup", func(b *testing.B) {
		cache := core.NewPatchCache()
		p, _ := core.BuildPatch(1, dir, viols)
		tr := core.Transition{Prev: 1, Next: 2}
		cache.Store(tr, p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cache.Lookup(tr, dir, viols) == nil {
				b.Fatal("cache miss")
			}
		}
	})
}

// BenchmarkEndToEndIteration is the headline number: steady-state
// templated iteration time on a quick-scale cluster, reported as
// tasks/second through the control plane.
func BenchmarkEndToEndIteration(b *testing.B) {
	reg := fn.NewRegistry()
	lr.Register(reg)
	c, err := cluster.Start(cluster.Options{
		Workers: 8, Slots: 8, Registry: reg, Mode: controller.ModeNimbus,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	d, err := c.Driver("bench")
	if err != nil {
		b.Fatal(err)
	}
	j, err := lr.Setup(d, lr.Config{
		Partitions: 160, ReduceFan: 8, Simulated: true,
		TaskDuration: 500 * time.Microsecond, ReduceDuration: 100 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := j.InstallTemplates(); err != nil {
		b.Fatal(err)
	}
	if err := j.Optimize(); err != nil {
		b.Fatal(err)
	}
	if err := d.Barrier(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Barrier(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	tasksPerIter := 160 + 20 + 1
	b.ReportMetric(float64(tasksPerIter)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// ---------------------------------------------------------------------------
// Control-plane fast path (DESIGN.md §"Control-plane fast path"). The
// companion smoke tests (internal/proto TestMarshalSteadyStateZeroAlloc,
// internal/cluster TestSteadyStateFanoutOneFramePerWorker) assert the two
// properties these benchmarks measure; BenchmarkWatermark lives next to the
// tracker in internal/controller.

// BenchmarkMarshalSteadyState measures re-encoding the steady-state
// instantiation message into a pooled buffer — the controller's per-worker
// marshal cost during templated iteration. Run with -benchmem: the point of
// the pooled path is 0 allocs/op.
func BenchmarkMarshalSteadyState(b *testing.B) {
	msg := &proto.InstantiateTemplate{
		Template: 7, Instance: 941, Base: 1 << 40, DoneWatermark: 1<<40 - 8101,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := proto.GetBuf()
		buf = proto.MarshalAppend(buf, msg)
		proto.PutBuf(buf)
	}
}

// BenchmarkInstantiateFanout measures a steady-state InstantiateBlock
// fan-out over a Mem cluster end to end, reporting the frames each
// instantiation puts on the wire (one per participating worker). The
// 4job variant runs four concurrent LR jobs on the same cluster,
// round-robining instantiations across them: multi-tenancy must not
// change the per-instantiation frame count (the job rides in each frame
// as one varint).
func BenchmarkInstantiateFanout(b *testing.B) {
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("%djob", jobs), func(b *testing.B) {
			const workers = 16
			reg := fn.NewRegistry()
			lr.Register(reg)
			c, err := cluster.Start(cluster.Options{Workers: workers, Slots: 8, Registry: reg})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Stop()
			type tenant struct {
				d *driver.Driver
				j *lr.Job
			}
			ts := make([]tenant, jobs)
			for k := range ts {
				d, err := c.Driver(fmt.Sprintf("bench-%d", k))
				if err != nil {
					b.Fatal(err)
				}
				j, err := lr.Setup(d, lr.Config{
					Partitions: 64, ReduceFan: 4, Simulated: true,
					TaskDuration: 50 * time.Microsecond, ReduceDuration: 20 * time.Microsecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := j.InstallTemplates(); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < 2; i++ { // warm-up: validation + patching
					if err := j.Optimize(); err != nil {
						b.Fatal(err)
					}
				}
				if err := d.Barrier(); err != nil {
					b.Fatal(err)
				}
				ts[k] = tenant{d: d, j: j}
			}
			frames0 := c.Controller.Stats.FramesToWorkers.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ts[i%jobs].j.Optimize(); err != nil {
					b.Fatal(err)
				}
			}
			for _, t := range ts {
				if err := t.d.Barrier(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			frames := c.Controller.Stats.FramesToWorkers.Load() - frames0
			b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
		})
	}
}

// ---------------------------------------------------------------------------
// Worker instantiation fast path (DESIGN.md §"Worker instantiation fast
// path"). The companion ceiling test (internal/worker
// TestInstantiateAllocCeiling) guards the allocation bound these
// benchmarks measure.

// workerTemplate builds an n-entry inline (Destroy) template with a
// 1-fan-out dependency shape; Destroy of absent objects is a no-op, so
// the benchmark isolates scheduling cost from execution cost.
func workerTemplate(id ids.TemplateID, n int) *proto.InstallTemplate {
	entries := make([]command.TemplateEntry, n)
	for i := range entries {
		entries[i] = command.TemplateEntry{
			Index: int32(i), Kind: command.Destroy,
			Writes:    []ids.ObjectID{ids.ObjectID(i + 1)},
			ParamSlot: command.NoParamSlot,
		}
		if i > 0 {
			entries[i].BeforeIdx = []int32{0}
		}
	}
	return &proto.InstallTemplate{Template: id, Name: "bench", Entries: entries}
}

// BenchmarkWorkerInstantiate measures the worker-side steady-state
// instantiation path: install once, instantiate N times. "compiled" is
// the live path (compiled template → pooled arena → inline completion →
// BlockDone); "mapbased" replays the pre-compilation cost model — map-
// ordered Materialize into fresh Commands plus the per-command
// pending/done/waiters map traffic the old scheduler paid — as the
// baseline the ≥5x allocs/op criterion is judged against. "edited" runs
// the compiled path with a persistent edit on every instantiation
// (recompile included).
func BenchmarkWorkerInstantiate(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("compiled-%d", n), func(b *testing.B) {
			bl := worker.NewBenchLoop(1)
			defer bl.Close()
			bl.Apply(workerTemplate(1, n))
			span := uint64(n)
			run := func(i uint64) {
				bl.Apply(&proto.InstantiateTemplate{
					Template: 1, Instance: i + 1, Base: ids.CommandID(1 + i*span),
					DoneWatermark: ids.CommandID(1 + i*span),
				})
			}
			for i := uint64(0); i < 8; i++ {
				run(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(uint64(i) + 8)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cmd")
		})
		b.Run(fmt.Sprintf("mapbased-%d", n), func(b *testing.B) {
			install := workerTemplate(1, n)
			entries := make(map[int32]*command.TemplateEntry, n)
			for i := range install.Entries {
				e := install.Entries[i]
				entries[e.Index] = &e
			}
			type oldPcmd struct {
				cmd     *command.Command
				seq     uint64
				missing int
				unit    *struct{}
				epoch   uint64
			}
			pending := make(map[ids.CommandID]*oldPcmd)
			done := make(map[ids.CommandID]struct{})
			waiters := make(map[ids.CommandID][]*oldPcmd)
			doneLow := ids.CommandID(0)
			span := uint64(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := ids.CommandID(1 + uint64(i)*span)
				// Prune below the watermark, as the old instantiate did.
				doneLow = base
				for id := range done {
					if id < doneLow {
						delete(done, id)
					}
				}
				cmds := make([]*command.Command, 0, len(entries))
				for _, e := range entries {
					c := &command.Command{}
					e.Materialize(base, nil, c)
					cmds = append(cmds, c)
				}
				for _, c := range cmds {
					pc := &oldPcmd{cmd: c, seq: uint64(i)}
					pending[c.ID] = pc
					for _, dep := range c.Before {
						if _, ok := done[dep]; ok || dep < doneLow {
							continue
						}
						waiters[dep] = append(waiters[dep], pc)
						pc.missing++
					}
				}
				for _, c := range cmds {
					delete(pending, c.ID)
					done[c.ID] = struct{}{}
					if ws := waiters[c.ID]; len(ws) > 0 {
						delete(waiters, c.ID)
						for _, wpc := range ws {
							wpc.missing--
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cmd")
		})
	}
	// compiled-4job: the multi-tenant steady state — four jobs installed
	// the same-shaped (and same-ID) template in their own namespaces, and
	// instantiations round-robin across them. Per-job cost must match the
	// single-job compiled path: the namespace lookup is one map probe and
	// the arena pool is shared, so allocs/op and ns/cmd hold the
	// single-job ceiling.
	b.Run("compiled-4job-1024", func(b *testing.B) {
		bl := worker.NewBenchLoop(1)
		defer bl.Close()
		const n = 1024
		const jobs = 4
		for j := 1; j <= jobs; j++ {
			msg := workerTemplate(1, n)
			msg.Job = ids.JobID(j)
			bl.Apply(msg)
		}
		span := uint64(n)
		insts := make([]uint64, jobs+1)
		run := func(k int) {
			job := ids.JobID(k%jobs + 1)
			insts[job]++
			i := insts[job]
			bl.Apply(&proto.InstantiateTemplate{
				Job: job, Template: 1, Instance: i, Base: ids.CommandID(1 + i*span),
				DoneWatermark: ids.CommandID(1 + i*span),
			})
		}
		for k := 0; k < 8*jobs; k++ {
			run(k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			run(k)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cmd")
	})
	b.Run("edited-1024", func(b *testing.B) {
		bl := worker.NewBenchLoop(1)
		defer bl.Close()
		const n = 1024
		bl.Apply(workerTemplate(1, n))
		span := uint64(n + b.N + 8)
		b.ReportAllocs()
		b.ResetTimer()
		// Each instantiation carries one persistent edit (remove last
		// round's added entry, add a fresh one), so the template stays
		// n/n+1 entries and every iteration pays one recompile.
		for i := 0; i < b.N; i++ {
			idx := int32(n + i)
			ed := command.Edit{
				Add: []command.TemplateEntry{{
					Index: idx, Kind: command.Destroy,
					Writes:    []ids.ObjectID{ids.ObjectID(idx)},
					BeforeIdx: []int32{0},
					ParamSlot: command.NoParamSlot,
				}},
			}
			if i > 0 {
				ed.Remove = []int32{idx - 1}
			}
			bl.Apply(&proto.InstantiateTemplate{
				Template: 1, Instance: uint64(i + 1), Base: ids.CommandID(1 + uint64(i)*span),
				DoneWatermark: ids.CommandID(1 + uint64(i)*span),
				Edits:         []command.Edit{ed},
			})
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n+1), "ns/cmd")
	})
}

// BenchmarkDriverLoop measures the three ways a driver can run an
// N-iteration data-dependent loop over one template (driver API v2,
// DESIGN.md §"Driver API v2"):
//
//	sync      — v1 pattern: Instantiate + blocking Get per iteration
//	            (one driver↔controller round trip each);
//	pipelined — Instantiate + GetAsync per iteration, futures awaited at
//	            the end (requests overlap; replies resolve out of order);
//	predicate — one InstantiateWhile: the controller evaluates the loop
//	            predicate after each iteration and replies once.
//
// The probe variable is Put once and never written by the template, so
// the predicate always holds and every variant runs exactly loopIters
// iterations. drvframes/op counts frames the driver put on the wire per
// loop: 2N sync/pipelined, 1 predicate.
func BenchmarkDriverLoop(b *testing.B) {
	const loopIters = 8
	reg := fn.NewRegistry()
	kmeans.Register(reg)
	c, err := cluster.Start(cluster.Options{Workers: 4, Slots: 4, Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	ct := transport.NewCounting(c.Transport)
	d, err := driver.Connect(ct, cluster.ControlAddr, "loop-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	j, err := kmeans.Setup(d, kmeans.Config{
		Partitions: 8, Simulated: true,
		TaskDuration: 20 * time.Microsecond, ReduceDuration: 10 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	probe := d.MustVar("loop-probe", 1)
	if err := d.PutFloats(probe, 0, []float64{1}); err != nil {
		b.Fatal(err)
	}
	if err := j.InstallTemplate(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ { // warm-up: validation + patching
		if err := j.Iterate(); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Barrier(); err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, loop func() error) {
		b.Helper()
		frames0 := ct.Sends()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := loop(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ct.Sends()-frames0)/float64(b.N), "drvframes/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/loopIters, "ns/iter")
	}
	b.Run("sync", func(b *testing.B) {
		run(b, func() error {
			for k := 0; k < loopIters; k++ {
				if err := j.Iterate(); err != nil {
					return err
				}
				if _, err := d.GetFloats(probe, 0); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("pipelined", func(b *testing.B) {
		futs := make([]*driver.Future[[]float64], 0, loopIters)
		run(b, func() error {
			futs = futs[:0]
			for k := 0; k < loopIters; k++ {
				if err := j.Iterate(); err != nil {
					return err
				}
				futs = append(futs, d.GetFloatsAsync(probe, 0))
			}
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("predicate", func(b *testing.B) {
		run(b, func() error {
			res, err := d.InstantiateWhile(kmeans.IterateBlock, probe.AtLeast(0, 0.5), loopIters)
			if err != nil {
				return err
			}
			if res.Iters != loopIters {
				return fmt.Errorf("predicate loop ran %d iterations, want %d", res.Iters, loopIters)
			}
			return nil
		})
	})
}

// BenchmarkStoreParallelGet measures executor-side object resolution with
// parallel readers against the sharded store and the single-lock baseline
// (NewSharded(1) is the pre-sharding layout).
func BenchmarkStoreParallelGet(b *testing.B) {
	const objects = 4096
	for _, cfg := range []struct {
		name   string
		shards int
	}{{"single-lock", 1}, {"sharded", datastore.DefaultShards}} {
		b.Run(cfg.name, func(b *testing.B) {
			s := datastore.NewSharded(cfg.shards)
			for i := 1; i <= objects; i++ {
				s.Install(ids.ObjectID(i), ids.LogicalID(i), 1, []byte{byte(i)})
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if s.Get(ids.ObjectID(i&(objects-1)+1)) == nil {
						b.Fail()
					}
					i++
				}
			})
		})
	}
}

// BenchmarkProtoCodec measures the wire codec on the hot instantiation
// message.
func BenchmarkProtoCodec(b *testing.B) {
	msg := &proto.InstantiateTemplate{
		Template: 7, Instance: 9, Base: 123456,
		ParamArray:    nil,
		DoneWatermark: 123000,
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = proto.Marshal(msg)
		}
	})
	raw := proto.Marshal(msg)
	b.Run("unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := proto.Unmarshal(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// startWorkersUnderFakeController starts n real workers and plays their
// controller: it accepts the registrations, acks each with every worker's
// data address, and returns the workers with the controller's ends of their
// control connections. Everything stops with the benchmark.
func startWorkersUnderFakeController(b *testing.B, tr transport.Transport, ctlAddr string, dataAddr func(i int) string, n, slots int) ([]*worker.Worker, []transport.Conn) {
	b.Helper()
	lis, err := tr.Listen(ctlAddr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lis.Close() })
	workers := make([]*worker.Worker, n)
	started := make(chan error, n)
	for i := range workers {
		workers[i] = worker.New(worker.Config{
			ControlAddr: lis.Addr(), DataAddr: dataAddr(i), Transport: tr,
			Slots: slots, Registry: fn.NewRegistry(), Logf: func(string, ...any) {},
		})
		go func(w *worker.Worker) { started <- w.Start() }(workers[i])
	}
	conns := make([]transport.Conn, n)
	peers := map[ids.WorkerID]string{}
	for i := range conns {
		if conns[i], err = lis.Accept(); err != nil {
			b.Fatal(err)
		}
		conn := conns[i]
		b.Cleanup(func() { conn.Close() })
		raw, err := conn.Recv()
		if err != nil {
			b.Fatal(err)
		}
		m, err := proto.Unmarshal(raw)
		if err != nil {
			b.Fatal(err)
		}
		reg, ok := m.(*proto.RegisterWorker)
		if !ok {
			b.Fatalf("first message = %s", m.Kind())
		}
		peers[ids.WorkerID(i+1)] = reg.DataAddr
	}
	for i, conn := range conns {
		if err := conn.Send(proto.Marshal(&proto.RegisterWorkerAck{Worker: ids.WorkerID(i + 1), Peers: peers})); err != nil {
			b.Fatal(err)
		}
		if err := <-started; err != nil {
			b.Fatalf("worker start: %v", err)
		}
	}
	for _, w := range workers {
		b.Cleanup(w.Stop)
	}
	return workers, conns
}

// BenchmarkPeerWriterTCP measures the peer writer's run and flush rules over
// real sockets (DESIGN.md "Wire budget"). Two workers on loopback TCP, the
// benchmark playing their controller; one op is the LR block's worth of
// small copies — 435 CopySends of an empty object, queued by one
// SpawnCommands — timed until the receiving worker has completed every
// CopyRecv. frames/op is what the workers count as copies sent (each was a
// frame of its own once), runs/op the frames their peer writers handed to
// the connection, writes/op the flushes they issued (one write(2) each): a
// writer that framed and flushed per copy would report 435 for all three.
func BenchmarkPeerWriterTCP(b *testing.B) {
	const copies = 435
	workers, conns := startWorkersUnderFakeController(b, transport.TCP{}, "127.0.0.1:0",
		func(int) string { return "127.0.0.1:0" }, 2, 2)
	send := func(i int, m proto.Msg) {
		if err := conns[i].Send(proto.Marshal(m)); err != nil {
			b.Fatal(err)
		}
	}
	go func() { // the sender's completions are not waited on, only drained
		for {
			raw, err := conns[0].Recv()
			if err != nil {
				return
			}
			proto.PutBuf(raw)
		}
	}()

	send(0, &proto.SpawnCommands{Job: 1, Cmds: []*command.Command{
		{ID: 1, Kind: command.Create, Writes: []ids.ObjectID{5}, Logical: 5},
	}})
	next := ids.CommandID(2)
	op := func() {
		sends, recvs := make([]*command.Command, copies), make([]*command.Command, copies)
		first := next + copies // this op's CopyRecv IDs are [first, first+copies)
		for k := range sends {
			sends[k] = &command.Command{ID: next + ids.CommandID(k), Kind: command.CopySend,
				Reads: []ids.ObjectID{5}, Logical: 5, DstWorker: 2, DstCommand: first + ids.CommandID(k)}
			recvs[k] = &command.Command{ID: first + ids.CommandID(k), Kind: command.CopyRecv,
				Writes: []ids.ObjectID{ids.ObjectID(100 + k)}, Logical: 5}
		}
		next = first + copies
		send(1, &proto.SpawnCommands{Job: 1, Cmds: recvs})
		send(0, &proto.SpawnCommands{Job: 1, Cmds: sends})
		for done := 0; done < copies; {
			raw, err := conns[1].Recv()
			if err != nil {
				b.Fatal(err)
			}
			err = proto.ForEachMsg(raw, func(m proto.Msg) error {
				if c, ok := m.(*proto.Complete); ok {
					for _, id := range c.IDs {
						if id >= first && id < next {
							done++
						}
					}
				}
				return nil
			})
			proto.PutBuf(raw)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	counts := func() (frames, runs, writes uint64) {
		for _, w := range workers {
			frames += w.Stats.CopiesSent.Load()
			runs += w.Stats.PeerFrames.Load()
			writes += w.Stats.PeerFlushes.Load()
		}
		return
	}
	op() // dial the peer, warm the pools
	frames0, runs0, writes0 := counts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	frames, runs, writes := counts()
	b.ReportMetric(float64(frames-frames0)/float64(b.N), "frames/op")
	b.ReportMetric(float64(runs-runs0)/float64(b.N), "runs/op")
	b.ReportMetric(float64(writes-writes0)/float64(b.N), "writes/op")
}

// BenchmarkWorkerLoopNopTasks measures the worker's hand-off cost per task
// (DESIGN.md "Wakeup budget"): one started worker on zero-latency Mem, the
// benchmark playing its controller; one op instantiates a cached template
// of 144 no-op tasks — a worker's quarter of the LR block: 128 independent
// tasks and 16 that each wait for 8 of them — and waits for its BlockDone.
// events/op is what the event loop handled (144 completions and the
// instantiate), wakeups/op the loop turns it took: a loop woken per event
// would report the same number for both.
func BenchmarkWorkerLoopNopTasks(b *testing.B) {
	const leaves, fan = 128, 8
	workers, conns := startWorkersUnderFakeController(b, transport.NewMem(0), "bench/ctl",
		func(int) string { return "bench/data" }, 1, 8)
	w, ctl := workers[0], conns[0]
	send := func(m proto.Msg) {
		if err := ctl.Send(proto.Marshal(m)); err != nil {
			b.Fatal(err)
		}
	}
	var entries []command.TemplateEntry
	task := func(before []int32) {
		i := int32(len(entries))
		entries = append(entries, command.TemplateEntry{
			Index: i, Kind: command.Task, Function: fn.FuncNop,
			Writes: []ids.ObjectID{ids.ObjectID(i + 1)}, BeforeIdx: before,
			ParamSlot: command.NoParamSlot,
		})
	}
	for i := 0; i < leaves; i++ {
		task(nil)
	}
	for r := 0; r < leaves/fan; r++ {
		before := make([]int32, fan)
		for k := range before {
			before[k] = int32(r*fan + k)
		}
		task(before)
	}
	send(&proto.InstallTemplate{Job: 1, Template: 1, Name: "bench", Entries: entries})
	span := uint64(len(entries))
	inst := uint64(0)
	op := func() {
		inst++
		base := ids.CommandID(1 + inst*span)
		send(&proto.InstantiateTemplate{Job: 1, Template: 1, Instance: inst, Base: base, DoneWatermark: base})
		for done := false; !done; {
			raw, err := ctl.Recv()
			if err != nil {
				b.Fatal(err)
			}
			err = proto.ForEachMsg(raw, func(m proto.Msg) error {
				if bd, ok := m.(*proto.BlockDone); ok && bd.Instance == inst {
					done = true
				}
				return nil
			})
			proto.PutBuf(raw)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ { // compile the template, warm the arena pool
		op()
	}
	wakeups0, events0 := w.Stats.LoopWakeups.Load(), w.Stats.LoopEvents.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	b.ReportMetric(float64(w.Stats.LoopWakeups.Load()-wakeups0)/float64(b.N), "wakeups/op")
	b.ReportMetric(float64(w.Stats.LoopEvents.Load()-events0)/float64(b.N), "events/op")
	if got := w.Stats.TasksRun.Load(); got != inst*span {
		b.Fatalf("TasksRun = %d after %d instances of %d tasks", got, inst, span)
	}
}
