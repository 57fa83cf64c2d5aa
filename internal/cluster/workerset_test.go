package cluster

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nimbus/internal/chaos"
	"nimbus/internal/command"
	"nimbus/internal/controller"
	"nimbus/internal/driver"
	"nimbus/internal/ids"
	"nimbus/internal/worker"
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
	r := defineSetJob(t, startTestCluster(t, opts), checkpoint)
	if err := r.d.Barrier(); err != nil { // the build runs off the loop
		t.Fatal(err)
	}
	r.c.Controller.Do(func() { r.all = r.c.Controller.ActiveWorkers() })
	return r
}

// defineSetJob opens the job's driver on c, puts x (and checkpoints it) and
// records the block; the block's build may still be running off the loop.
func defineSetJob(t *testing.T, c *Cluster, checkpoint bool) *setJob {
	t.Helper()
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
// the job has run on before recovers onto the placement and templates the
// job left that set with. Recovery rewinds the job's directory instead of
// replacing it, so the saved assignments still name the survivors' objects:
// nothing is built, the survivors install no template, results stay
// bit-identical to an unmigrated run, and the next migration edits exactly
// what the same move edited before the failure.
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
	survivors := r.c.Workers[:3]
	seen := make([]uint64, len(survivors))
	for i, w := range survivors {
		seen[i] = w.Stats.TemplatesSeen.Load()
	}
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
	if got := stats.TemplatesBuilt.Load() - built; got != 0 {
		t.Errorf("recovery built %d templates, want 0 (the block saved with the set)", got)
	}
	for i, w := range survivors {
		if got := w.Stats.TemplatesSeen.Load() - seen[i]; got != 0 {
			t.Errorf("survivor %s installed %d templates across the recovery, want 0 (its cached ones are reused)", w.ID(), got)
		}
	}
	if got := r.doublesPerWorker(); !maps.Equal(got, saved) {
		t.Errorf("recovered placement runs x's doubling tasks as %v per worker, want %v (as the job left the set)", got, saved)
	}
	if after := r.editsFor(t, []int{4}, all[2]); after != before {
		t.Errorf("one-partition migration after the recovery sent %d edit entries, want %d (as before it)", after, before)
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

// matchesSteady fails the test unless r's results equal those of the same
// number of instances run on a four-worker cluster without faults.
func (r *setJob) matchesSteady(t *testing.T) {
	t.Helper()
	got := r.results(t)
	steady := startSetJob(t, Options{Workers: 4}, false)
	steady.instantiate(t, r.instances)
	want := steady.results(t)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("result %d differs from a run without faults: %x vs %x", i, got[i], want[i])
		}
	}
}

// TestRecoverDuringStalledFirstBuild: a worker fails while the block's first
// build is stalled off the loop. Recovery completes without the block; the
// build's commit sees the placement epoch moved, retries, and commits for
// the survivors. Results stay bit-identical.
func TestRecoverDuringStalledFirstBuild(t *testing.T) {
	stalled, released := make(chan struct{}), make(chan struct{})
	var stallOnce, releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(released) }) }
	opts := Options{Workers: 4, Hooks: controller.Hooks{OnBuildStart: func(string) {
		stallOnce.Do(func() { close(stalled); <-released })
	}}}
	c := startTestCluster(t, opts)
	t.Cleanup(release) // before the cluster stops
	stats := &c.Controller.Stats
	r := defineSetJob(t, c, true)
	<-stalled
	retries, replayed := stats.BuildRetries.Load(), stats.OpsReplayed.Load()
	c.KillWorker(3)
	// The replay of the ops logged since the checkpoint (the block's
	// recording among them) is recovery's last step.
	deadline := time.Now().Add(10 * time.Second)
	for stats.OpsReplayed.Load() == replayed {
		if time.Now().After(deadline) {
			t.Fatal("no recovery within 10s of the kill")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	r.instantiate(t, 3)
	r.barrier(t)
	if got := stats.BuildRetries.Load() - retries; got == 0 {
		t.Error("the stalled build committed without a retry after the recovery moved the placement")
	}
	var survivors []ids.WorkerID
	c.Controller.Do(func() { survivors = c.Controller.ActiveWorkers() })
	for w := range r.doublesPerWorker() {
		if !slices.Contains(survivors, w) {
			t.Errorf("the committed block runs tasks on %s, outside the survivors %v", w, survivors)
		}
	}
	r.matchesSteady(t)
}

// TestRejoinAfterHeartbeatTimeoutRunsTasks: a worker declared failed by
// heartbeat timeout — its control link partitioned, then healed — connects
// again under its prior ID while the job is live. It joins through the warm
// round, its stale objects of the job dropped: the next instances run tasks
// on it, and results stay bit-identical to a run without faults.
func TestRejoinAfterHeartbeatTimeoutRunsTasks(t *testing.T) {
	detected, healed := make(chan struct{}), make(chan struct{})
	var detectOnce, healOnce sync.Once
	heal := func() { healOnce.Do(func() { close(healed) }) }
	opts := Options{Workers: 3, HeartbeatEvery: 20 * time.Millisecond, HeartbeatTimeout: 150 * time.Millisecond,
		Logf: func(format string, args ...any) {
			t.Logf(format, args...)
			// The detector logs on the loop before it closes the link: the
			// link heals first, so the worker's next dial goes through.
			if strings.Contains(format, "missed heartbeats") {
				detectOnce.Do(func() { close(detected); <-healed })
			}
		}}
	c := startTestCluster(t, opts)
	t.Cleanup(heal) // before the cluster stops
	// The partitioned worker dials through wires of its own.
	link := chaos.New(c.Transport, 1)
	cfg := c.workerConfig()
	cfg.Transport = link
	w := worker.New(cfg)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	c.Workers = append(c.Workers, w)
	<-w.Ready()
	r := defineSetJob(t, c, true)
	r.instantiate(t, 2)
	r.barrier(t)
	held := w.StoreOf(r.d.Job()).Len()

	link.Partition(ControlAddr)
	select {
	case <-detected:
	case <-time.After(10 * time.Second):
		t.Fatal("the partitioned worker was not declared failed within 10s")
	}
	link.Heal(ControlAddr)
	heal()
	deadline := time.Now().Add(10 * time.Second)
	for rejoined := false; !rejoined; {
		if time.Now().After(deadline) {
			t.Fatal("the worker did not rejoin within 10s of the heal")
		}
		time.Sleep(time.Millisecond)
		c.Controller.Do(func() { rejoined = slices.Contains(c.Controller.ActiveWorkers(), w.ID()) })
	}
	if w.Stats.Reconnects.Load() == 0 {
		t.Fatal("the worker is active without having reconnected")
	}
	ran := w.Stats.TasksRun.Load()
	r.instantiate(t, 2)
	r.barrier(t)
	if w.Stats.TasksRun.Load() == ran {
		t.Error("the rejoined worker ran no tasks in the next two instances")
	}
	// The same placement again, under new object IDs: what the worker held
	// of the job before the partition must be gone.
	if got := w.StoreOf(r.d.Job()).Len(); got > held {
		t.Errorf("the rejoined worker holds %d objects of the job, %d before the partition: its stale objects survived", got, held)
	}
	r.matchesSteady(t)
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
