package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/driver"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/worker"
)

// TestMigrationEdits exercises paper §4.3 / Figure 6: moving a task
// between workers by editing the installed worker templates in place.
func TestMigrationEdits(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 4})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	const parts = 8
	x := d.MustVar("x", parts)
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.BeginTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatal(err)
	}
	if err := d.EndTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Instantiate("blk"); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetFloats(sum, 0)
	if err != nil || len(got) != 1 || got[0] != 4*parts {
		t.Fatalf("pre-migration sum = %v (err %v), want [%d]", got, err, 4*parts)
	}

	// Migrate partition 1 (originally on worker 2) to worker 1.
	var migErr error
	var w1 ids.WorkerID
	c.Controller.Do(func() {
		w1 = c.Controller.ActiveWorkers()[0]
		migErr = c.Controller.Migrate([]ids.VariableID{x.ID}, []int{1}, w1)
	})
	if migErr != nil {
		t.Fatalf("migrate: %v", migErr)
	}

	want := float64(4 * parts)
	for i := 0; i < 3; i++ {
		if err := d.Instantiate("blk"); err != nil {
			t.Fatalf("instantiate after migration: %v", err)
		}
		want *= 2
		got, err = d.GetFloats(sum, 0)
		if err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("post-migration iteration %d: sum = %v (err %v), want [%v]",
				i, got, err, want)
		}
	}

	var edits, built uint64
	c.Controller.Do(func() {
		edits = c.Controller.Stats.EditsSent.Load()
		built = c.Controller.Stats.TemplatesBuilt.Load()
	})
	if edits == 0 {
		t.Errorf("expected edits to be sent, got 0")
	}
	if built != 1 {
		t.Errorf("templates built = %d, want 1 (migration must edit, not reinstall)", built)
	}
}

// TestResizeWorkers exercises paper Figure 9: shrinking the worker set
// generates new worker templates and patches move the data; restoring the
// old set reuses the cached templates.
func TestResizeWorkers(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 4})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	const parts = 8
	x := d.MustVar("x", parts)
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.BeginTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatal(err)
	}
	if err := d.EndTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}

	var all []ids.WorkerID
	c.Controller.Do(func() { all = c.Controller.ActiveWorkers() })

	// Shrink to two workers.
	var rerr error
	c.Controller.Do(func() { rerr = c.Controller.SetActive(all[:2]) })
	if rerr != nil {
		t.Fatalf("shrink: %v", rerr)
	}
	want := float64(2 * parts)
	for i := 0; i < 2; i++ {
		if err := d.Instantiate("blk"); err != nil {
			t.Fatal(err)
		}
		want *= 2
		got, err := d.GetFloats(sum, 0)
		if err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("shrunk iteration %d: sum = %v (err %v), want [%v]", i, got, err, want)
		}
	}

	// Restore all four workers: cached templates revalidate, data patches
	// back out.
	c.Controller.Do(func() { rerr = c.Controller.SetActive(all) })
	if rerr != nil {
		t.Fatalf("restore: %v", rerr)
	}
	for i := 0; i < 2; i++ {
		if err := d.Instantiate("blk"); err != nil {
			t.Fatal(err)
		}
		want *= 2
		got, err := d.GetFloats(sum, 0)
		if err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("restored iteration %d: sum = %v (err %v), want [%v]", i, got, err, want)
		}
	}

	var built, patches uint64
	c.Controller.Do(func() {
		built = c.Controller.Stats.TemplatesBuilt.Load()
		patches = c.Controller.Stats.PatchesBuilt.Load()
	})
	// One build at recording, one for the shrunk set; the restore reuses
	// the original cached assignment.
	if built != 2 {
		t.Errorf("templates built = %d, want 2 (restore must reuse the cache)", built)
	}
	if patches == 0 {
		t.Errorf("expected patches to move partition data on resize")
	}
}

// TestMigrationEditsEveryTemplate: one migration edits every installed
// template of the job, each on its own goroutine over one live view of the
// directory, and each keeps computing what an unmigrated run computes.
func TestMigrationEditsEveryTemplate(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 4})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	const parts = 8
	x := d.MustVar("x", parts)
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for _, name := range []string{"double", "total"} {
		if err := d.BeginTemplate(name); err != nil {
			t.Fatal(err)
		}
		if name == "double" {
			err = d.Submit(fnDouble, parts, nil, x.Read(), x.Write())
		} else {
			err = d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), sum.WriteShared())
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := d.EndTemplate(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}

	var merr error
	c.Controller.Do(func() {
		w := c.Controller.ActiveWorkers()
		merr = c.Controller.Migrate([]ids.VariableID{x.ID}, []int{1, 2, 5}, w[3])
	})
	if merr != nil {
		t.Fatalf("migrate: %v", merr)
	}
	want := float64(2 * parts) // recording doubled x once
	for i := 0; i < 3; i++ {
		if err := d.Instantiate("double"); err != nil {
			t.Fatal(err)
		}
		if err := d.Instantiate("total"); err != nil {
			t.Fatal(err)
		}
		want *= 2
		got, err := d.GetFloats(sum, 0)
		if err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("iteration %d: sum = %v (err %v), want [%v]", i, got, err, want)
		}
	}
	var built, rebuilt, edits uint64
	c.Controller.Do(func() {
		built = c.Controller.Stats.TemplatesBuilt.Load()
		rebuilt = c.Controller.Stats.MigrateRebuilds.Load()
		edits = c.Controller.Stats.EditsSent.Load()
	})
	if built != 2 || rebuilt != 0 || edits == 0 {
		t.Fatalf("templates built %d, migrations rebuilt %d, edits sent %d; want 2, 0 and some", built, rebuilt, edits)
	}
}

// TestMigrateTargetMustBeActive: a migration may only move partitions to an
// active worker. After SetActive drops one of four workers, migrating to it
// fails, the template still runs on the active three, and the dropped
// worker runs nothing.
func TestMigrateTargetMustBeActive(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 4})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	const parts = 8
	x := d.MustVar("x", parts)
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.BeginTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatal(err)
	}
	if err := d.EndTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}

	var all []ids.WorkerID
	var merr error
	c.Controller.Do(func() {
		all = c.Controller.ActiveWorkers()
		if merr = c.Controller.SetActive(all[:3]); merr != nil {
			return
		}
		merr = c.Controller.Migrate([]ids.VariableID{x.ID}, []int{1, 2}, all[3])
	})
	if merr == nil {
		t.Fatalf("migrating to %v, which SetActive dropped, succeeded", all[3])
	}
	var dropped *worker.Worker
	for _, w := range c.Workers {
		if w.ID() == all[3] {
			dropped = w
		}
	}
	ran := dropped.Stats.TasksRun.Load()
	want := float64(2 * parts) // recording ran the block once
	for i := 0; i < 2; i++ {
		if err := d.Instantiate("blk"); err != nil {
			t.Fatal(err)
		}
		want *= 2
		got, err := d.GetFloats(sum, 0)
		if err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("iteration %d: sum = %v (err %v), want [%v]", i, got, err, want)
		}
	}
	if n := dropped.Stats.TasksRun.Load() - ran; n != 0 {
		t.Fatalf("%v is not active but ran %d tasks", all[3], n)
	}
}

// TestPatchCache exercises paper §4.2: alternating between two basic
// blocks exercises the patch path on each transition; after the first
// transition the cached patch is replayed with a single message.
func TestPatchCache(t *testing.T) {
	reg := testRegistry(t)
	// copyval writes its single read into its single write.
	copyval := ids.FunctionID(200)
	reg.MustRegister(copyval, "test/copyval", func(cx *fn.Ctx) error {
		cx.SetWrite(0, append([]byte(nil), cx.Read(0)...))
		return nil
	})
	c := startTestCluster(t, Options{Workers: 4, Registry: reg})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	const parts = 4
	x := d.MustVar("x", parts)
	s := d.MustVar("s", 1)
	y := d.MustVar("y", parts)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}

	// Block A: reduce x into scalar s (s written at worker 1).
	if err := d.BeginTemplate("A"); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), s.WriteShared()); err != nil {
		t.Fatal(err)
	}
	if err := d.EndTemplate("A"); err != nil {
		t.Fatal(err)
	}
	// Block B: broadcast-read s into every y partition. Its preconditions
	// require s to be latest on every worker.
	if err := d.BeginTemplate("B"); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(copyval, parts, nil, s.ReadShared(), y.Write()); err != nil {
		t.Fatal(err)
	}
	if err := d.EndTemplate("B"); err != nil {
		t.Fatal(err)
	}
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Alternate A and B. Every A rewrites s at one worker, staling the
	// other replicas, so every A→B transition needs the same patch.
	for i := 0; i < 4; i++ {
		if err := d.Instantiate("A"); err != nil {
			t.Fatal(err)
		}
		if err := d.Instantiate("B"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.GetFloats(y, parts-1)
	if err != nil || len(got) != 1 || got[0] != parts {
		t.Fatalf("y = %v (err %v), want [%d]", got, err, parts)
	}

	var builtPatches, hits uint64
	c.Controller.Do(func() {
		builtPatches = c.Controller.Stats.PatchesBuilt.Load()
		hits = c.Controller.Stats.PatchCacheHits.Load()
	})
	if builtPatches == 0 {
		t.Fatalf("expected at least one patch to be built")
	}
	if hits == 0 {
		t.Errorf("expected patch cache hits on repeated A→B transitions")
	}
	if builtPatches > 2 {
		t.Errorf("patches built = %d; repeated transitions should hit the cache", builtPatches)
	}
}

// TestFaultRecovery exercises paper §4.4: checkpoint, kill a worker,
// verify the job completes with correct results after recovery.
func TestFaultRecovery(t *testing.T) {
	c := startTestCluster(t, Options{
		Workers:          4,
		HeartbeatEvery:   20 * time.Millisecond,
		HeartbeatTimeout: 150 * time.Millisecond,
	})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	const parts = 8
	x := d.MustVar("x", parts)
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Work after the checkpoint: double once.
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Kill a worker; the controller reverts to the checkpoint and replays
	// the double.
	c.KillWorker(2)

	if err := d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetFloats(sum, 0)
	if err != nil {
		t.Fatalf("get after recovery: %v", err)
	}
	if len(got) != 1 || got[0] != 2*parts {
		t.Fatalf("sum after recovery = %v, want [%d]", got, 2*parts)
	}

	var recoveries uint64
	c.Controller.Do(func() { recoveries = c.Controller.Stats.Recoveries.Load() })
	if recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", recoveries)
	}
}

// TestMigrationChurnKeepsFastPath: 300 migrations interleaved with
// instantiations on four real workers. Results must be bit-identical to an
// unmigrated run, and the edited template must stay as cheap as a fresh
// one: the command IDs an instance reserves stay within twice the live
// entries, and every worker's slice still compiles to the dense table.
func TestMigrationChurnKeepsFastPath(t *testing.T) {
	const parts, groups, migrations = 64, 16, 300
	type run struct {
		c       *Cluster
		d       *driver.Driver
		x, part driver.Var
		sum     driver.Var
	}
	start := func() *run {
		c := startTestCluster(t, Options{Workers: 4})
		d, err := c.Driver("test")
		if err != nil {
			t.Fatalf("driver: %v", err)
		}
		t.Cleanup(func() { d.Close() })
		r := &run{c: c, d: d, x: d.MustVar("x", parts), part: d.MustVar("part", groups), sum: d.MustVar("sum", 1)}
		for p := 0; p < parts; p++ {
			if err := d.PutFloats(r.x, p, []float64{float64(p + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.BeginTemplate("blk"); err != nil {
			t.Fatal(err)
		}
		if err := d.Submit(fnDouble, parts, nil, r.x.Read(), r.x.Write()); err != nil {
			t.Fatal(err)
		}
		if err := d.Submit(fnSumAll, groups, nil, r.x.ReadGrouped(), r.part.Write()); err != nil {
			t.Fatal(err)
		}
		if err := d.Submit(fnSumAll, 1, nil, r.part.ReadGrouped(), r.sum.WriteShared()); err != nil {
			t.Fatal(err)
		}
		if err := d.EndTemplate("blk"); err != nil {
			t.Fatal(err)
		}
		if err := d.Barrier(); err != nil { // the build runs off the loop
			t.Fatal(err)
		}
		return r
	}
	results := func(r *run) [][]byte {
		var out [][]byte
		for p := 0; p < parts; p++ {
			b, err := r.d.Get(r.x, p)
			if err != nil {
				t.Fatalf("get x[%d]: %v", p, err)
			}
			out = append(out, b)
		}
		b, err := r.d.Get(r.sum, 0)
		if err != nil {
			t.Fatalf("get sum: %v", err)
		}
		return append(out, b)
	}

	churned := start()
	ctrl := churned.c.Controller
	var workers []ids.WorkerID
	ctrl.Do(func() { workers = ctrl.ActiveWorkers() })
	rng := rand.New(rand.NewSource(28))
	instances := 0
	for m := 0; m < migrations; m++ {
		// 5% of x's partitions, or one of part's, to a random worker; one
		// migration in three is followed by another before the block runs
		// again, so edits also stack.
		v, moved := churned.x, rng.Perm(parts)[:(parts+19)/20]
		if m%4 == 3 {
			v, moved = churned.part, []int{rng.Intn(groups)}
		}
		dst := workers[rng.Intn(len(workers))]
		var err error
		ctrl.Do(func() {
			if err = ctrl.Migrate([]ids.VariableID{v.ID}, moved, dst); err != nil {
				return
			}
			a := ctrl.TemplateByName("blk").Active
			if a.MaxIndex() > 2*a.Size() {
				err = fmt.Errorf("an instance reserves %d command IDs for %d live entries", a.MaxIndex(), a.Size())
				return
			}
			for _, w := range a.Workers() {
				list := make([]*command.TemplateEntry, len(a.PerWorker[w]))
				for i, idx := range a.PerWorker[w] {
					list[i] = &a.Entries[idx]
				}
				if !command.Compile(list).Dense() {
					err = fmt.Errorf("%v's template (%d entries, indexes %d..%d) no longer compiles dense",
						w, len(list), list[0].Index, list[len(list)-1].Index)
					return
				}
			}
		})
		if err != nil {
			t.Fatalf("migration %d: %v", m, err)
		}
		if rng.Intn(3) == 0 {
			continue
		}
		if err := churned.d.Instantiate("blk"); err != nil {
			t.Fatalf("instantiate after migration %d: %v", m, err)
		}
		instances++
	}
	got := results(churned)

	steady := start()
	for i := 0; i < instances; i++ {
		if err := steady.d.Instantiate("blk"); err != nil {
			t.Fatal(err)
		}
	}
	want := results(steady)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("result %d differs from the unmigrated run after %d instances: %x vs %x", i, instances, got[i], want[i])
		}
	}
}

// TestRejoiningWorkerDropsStagedEdits: a worker that has an edit staged, is
// then emptied and rejoins before the block runs again gets a full install;
// the edit staged for its old template must not be applied on top.
func TestRejoiningWorkerDropsStagedEdits(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 4})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	const parts = 4 // partition p lives on worker p+1
	x := d.MustVar("x", parts)
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.BeginTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatal(err)
	}
	if err := d.EndTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}

	var merr error
	c.Controller.Do(func() {
		w := c.Controller.ActiveWorkers()
		vars := []ids.VariableID{x.ID}
		for _, step := range []struct {
			parts []int
			dst   ids.WorkerID
		}{
			{[]int{2}, w[1]},    // worker 2 gains partition 2: an edit is staged for it
			{[]int{1, 2}, w[0]}, // worker 2 loses everything
			{[]int{1}, w[1]},    // worker 2 rejoins: full install
		} {
			if merr = c.Controller.Migrate(vars, step.parts, step.dst); merr != nil {
				return
			}
		}
	})
	if merr != nil {
		t.Fatalf("migrate: %v", merr)
	}
	tasksRun := func() (n uint64) {
		for _, w := range c.Workers {
			n += w.Stats.TasksRun.Load()
		}
		return n
	}
	want, ran := float64(2*parts), tasksRun()
	for i := 0; i < 2; i++ {
		if err := d.Instantiate("blk"); err != nil {
			t.Fatal(err)
		}
		want *= 2
		got, err := d.GetFloats(sum, 0)
		if err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("iteration %d after rejoin: sum = %v (err %v), want [%v]", i, got, err, want)
		}
		// A stale entry shows as an extra task: the rejoined worker doubles
		// a partition it no longer owns.
		if now := tasksRun(); now-ran != parts+1 {
			t.Fatalf("iteration %d after rejoin ran %d tasks, the block has %d", i, now-ran, parts+1)
		} else {
			ran = now
		}
	}
}
