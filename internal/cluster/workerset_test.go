package cluster

import (
	"bytes"
	"maps"
	"strings"
	"testing"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/driver"
	"nimbus/internal/ids"
)

// setJob is a 64-partition block on a four-worker cluster: double every x
// partition, sum x in 16 groups, sum the groups.
type setJob struct {
	c         *Cluster
	d         *driver.Driver
	x, part   driver.Var
	sum       driver.Var
	all       []ids.WorkerID
	instances int
}

const setParts, setGroups = 64, 16

func startSetJob(t *testing.T, opts Options, checkpoint bool) *setJob {
	t.Helper()
	c := startTestCluster(t, opts)
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	r := &setJob{c: c, d: d, x: d.MustVar("x", setParts), part: d.MustVar("part", setGroups), sum: d.MustVar("sum", 1)}
	for p := 0; p < setParts; p++ {
		if err := d.PutFloats(r.x, p, []float64{float64(p + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if checkpoint {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.BeginTemplate("blk"); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnDouble, setParts, nil, r.x.Read(), r.x.Write()); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(fnSumAll, setGroups, nil, r.x.ReadGrouped(), r.part.Write()); err != nil {
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
	c.Controller.Do(func() { r.all = c.Controller.ActiveWorkers() })
	return r
}

func (r *setJob) instantiate(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.d.Instantiate("blk"); err != nil {
			t.Fatal(err)
		}
		r.instances++
	}
}

// barrier waits until the controller has handled every operation sent so
// far (and so counted the edits they carried).
func (r *setJob) barrier(t *testing.T) {
	t.Helper()
	if err := r.d.Barrier(); err != nil {
		t.Fatal(err)
	}
}

func (r *setJob) setActive(t *testing.T, set []ids.WorkerID) {
	t.Helper()
	var err error
	r.c.Controller.Do(func() { err = r.c.Controller.SetActive(set) })
	if err != nil {
		t.Fatalf("SetActive(%v): %v", set, err)
	}
}

func (r *setJob) migrate(t *testing.T, parts []int, dst ids.WorkerID) {
	t.Helper()
	var err error
	r.c.Controller.Do(func() { err = r.c.Controller.Migrate([]ids.VariableID{r.x.ID}, parts, dst) })
	if err != nil {
		t.Fatalf("migrate %v to %s: %v", parts, dst, err)
	}
}

// editsFor migrates parts to dst, runs the block once and returns the
// edit entries that instantiation carried.
func (r *setJob) editsFor(t *testing.T, parts []int, dst ids.WorkerID) uint64 {
	t.Helper()
	stats := &r.c.Controller.Stats
	r.barrier(t)
	before := stats.EditsSent.Load()
	r.migrate(t, parts, dst)
	r.instantiate(t, 1)
	r.barrier(t)
	return stats.EditsSent.Load() - before
}

func (r *setJob) results(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	for p := 0; p < setParts; p++ {
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

// TestRestoredSetMigratesOnlyWhatMoved: a worker set comes back with the
// placement its saved templates were edited for, so a one-partition
// migration after the restore edits what the same migration edits before
// the resize, instead of undoing the earlier migrations on the way.
func TestRestoredSetMigratesOnlyWhatMoved(t *testing.T) {
	r := startSetJob(t, Options{Workers: 4}, false)
	all := r.all
	r.instantiate(t, 1)
	// Migrations under the full set: the full set's placement is no longer
	// round-robin.
	r.migrate(t, []int{2, 7, 13, 40}, all[0])
	r.instantiate(t, 1)

	// Partition 9 lives on all[1]; moving it to all[2] and back leaves the
	// placement as it was.
	before := r.editsFor(t, []int{9}, all[2])
	r.editsFor(t, []int{9}, all[1])

	r.setActive(t, all[:3])
	r.instantiate(t, 1)
	r.setActive(t, all)
	r.instantiate(t, 1)

	after := r.editsFor(t, []int{9}, all[2])
	t.Logf("one-partition migration: %d edit entries before the resize, %d after the restore", before, after)
	if before == 0 || after != before {
		t.Errorf("one-partition migration after the restore sent %d edit entries, want %d (as before the resize)", after, before)
	}
}

// doublesPerWorker counts the doubling tasks, one per x partition, that
// the block's active assignment runs on each worker: the job's placement of
// x, up to which partitions.
func (r *setJob) doublesPerWorker() map[ids.WorkerID]int {
	out := make(map[ids.WorkerID]int)
	r.c.Controller.Do(func() {
		a := r.c.Controller.TemplateByName("blk").Active
		for i := range a.Entries {
			if a.Entries[i].Kind == command.Task && a.Entries[i].Function == fnDouble {
				out[a.WorkerOf[i]]++
			}
		}
	})
	return out
}

// TestRecoveryOntoRestoredSet: a worker failure whose survivors are a set
// the job has run on before recovers onto the placement the job left that
// set with. Its templates are built afresh, once each: the saved ones name
// physical objects of the directory recovery discards, which the halted
// survivors may still hold stale state under. Results stay bit-identical
// to an unmigrated run, and the next migration edits only what moved.
func TestRecoveryOntoRestoredSet(t *testing.T) {
	opts := Options{Workers: 4, HeartbeatEvery: 20 * time.Millisecond, HeartbeatTimeout: 150 * time.Millisecond}
	r := startSetJob(t, opts, true)
	all := r.all
	r.instantiate(t, 1)
	r.migrate(t, []int{2, 7, 13, 40}, all[0])
	r.instantiate(t, 1)
	r.setActive(t, all[:3])
	r.instantiate(t, 1)
	// Off round-robin on the 3-worker set: partitions 5 and 21 would be on
	// all[2] and all[0].
	r.migrate(t, []int{5, 21}, all[1])
	r.instantiate(t, 1)
	// Partition 4 lives on all[1]: the edit a move of it costs on the
	// 3-worker set, measured before the failure.
	before := r.editsFor(t, []int{4}, all[2])
	r.editsFor(t, []int{4}, all[1])
	saved := r.doublesPerWorker()
	r.setActive(t, all)
	r.instantiate(t, 1)

	stats := &r.c.Controller.Stats
	built := stats.TemplatesBuilt.Load()
	recoveries := stats.Recoveries.Load()
	r.c.KillWorker(3) // the survivors are all[:3]
	deadline := time.Now().Add(10 * time.Second)
	for stats.Recoveries.Load() == recoveries {
		if time.Now().After(deadline) {
			t.Fatal("no recovery within 10s of the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.instantiate(t, 2)
	r.barrier(t)
	if got := stats.TemplatesBuilt.Load() - built; got != 1 {
		t.Errorf("recovery built %d templates, want 1 (the block, for the new directory)", got)
	}
	if got := r.doublesPerWorker(); !maps.Equal(got, saved) {
		t.Errorf("recovered placement runs x's doubling tasks as %v per worker, want %v (as the job left the set)", got, saved)
	}
	// A fresh build numbers its entries apart from the edited assignment
	// it stands in for, so the same move may cost it fewer entries; undoing
	// the earlier migrations would cost more.
	if after := r.editsFor(t, []int{4}, all[2]); after == 0 || after > before {
		t.Errorf("one-partition migration after the recovery sent %d edit entries, want 1..%d (as before it)", after, before)
	}
	got := r.results(t)

	steady := startSetJob(t, Options{Workers: 4}, false)
	steady.instantiate(t, r.instances)
	want := steady.results(t)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("result %d differs from the unmigrated run: %x vs %x", i, got[i], want[i])
		}
	}
}

// TestSetActiveRefusesInactiveWorkers: a worker set may name only active
// workers. A draining worker is refused even before it is decommissioned,
// and the job keeps running on the survivors.
func TestSetActiveRefusesInactiveWorkers(t *testing.T) {
	r := startSetJob(t, Options{Workers: 4}, false)
	all := r.all
	r.instantiate(t, 1)
	var derr, serr error
	r.c.Controller.Do(func() {
		derr = r.c.Controller.DrainWorker(all[3])
		serr = r.c.Controller.SetActive(all)
	})
	if derr != nil {
		t.Fatalf("drain: %v", derr)
	}
	if serr == nil || !strings.Contains(serr.Error(), "not available") {
		t.Fatalf("SetActive with a draining worker: err = %v, want not available", serr)
	}
	done := make(chan error, 1)
	go func() {
		err := r.d.Instantiate("blk")
		if err == nil {
			_, err = r.d.GetFloats(r.sum, 0)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("instantiation after the refused SetActive did not finish within 10s")
	}
}
