package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"nimbus/internal/app/kmeans"
	"nimbus/internal/chaos"
	"nimbus/internal/cluster/leakcheck"
	"nimbus/internal/driver"
	"nimbus/internal/durable"
	"nimbus/internal/ids"
)

// These tests close the PR 6 takeover gaps under injected faults: a
// worker that dies permanently during a controller failover is evicted
// from the rejoin roster instead of stalling takeover forever, restored
// jobs whose driver never comes back are torn down at the reattach
// deadline, the failover journal stays bounded across checkpoints, and a
// checkpoint whose durable saves fail surfaces a typed error without
// corrupting the previous checkpoint. They run in the chaos soak CI
// smoke (-race -run 'Soak|Evict|Chaos').

// TestEvictDeadWorkerDuringTakeover is the tentpole acceptance test: the
// controller is killed mid-run and one worker dies for good in the same
// instant. The promoted standby's rejoin roster lists three workers but
// only two ever reconnect; the heartbeat-timeout eviction strikes the
// dead one, takeover proceeds on the survivors, and the job finishes with
// centroids bit-identical to an undisturbed run.
func TestEvictDeadWorkerDuringTakeover(t *testing.T) {
	leakcheck.Check(t)
	const iters = 8

	refReg := testRegistry(t)
	kmeans.Register(refReg)
	ref := startTestCluster(t, Options{Workers: 3, Slots: 2, Registry: refReg})
	refCents, refD, err := runKmeansExplicit(ref, iters)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refD.Close()

	reg := testRegistry(t)
	kmeans.Register(reg)
	c := startTestCluster(t, Options{
		Workers: 3, Slots: 2, Registry: reg,
		LeaseTTL:         150 * time.Millisecond,
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: 600 * time.Millisecond,
	})
	if _, err := c.StartStandby(); err != nil {
		t.Fatalf("standby: %v", err)
	}

	type progRes struct {
		cents []byte
		d     *driver.Driver
		err   error
	}
	resCh := make(chan progRes, 1)
	go func() {
		cents, d, err := runKmeansExplicit(c, iters)
		resCh <- progRes{cents, d, err}
	}()

	// Wait until the run is well underway, then kill the controller and,
	// in the same breath, worker 0 — permanently. Its reconnect loop dies
	// with it, so the promoted standby can only finish takeover by
	// evicting it.
	deadline := time.Now().Add(10 * time.Second)
	for totalActivations(c) < uint64(3*len(c.Workers)) && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	c.KillController()
	c.KillWorker(0)

	promoted, err := c.AwaitPromotion(10 * time.Second)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}

	var res progRes
	select {
	case res = <-resCh:
	case <-time.After(60 * time.Second):
		leakcheck.Hung(t, "driver program hung: takeover stalled on the dead worker")
	}
	if res.err != nil {
		t.Fatalf("failover run: %v", res.err)
	}
	if !bytes.Equal(res.cents, refCents) {
		t.Fatalf("centroids diverged after eviction takeover:\n got %x\nwant %x", res.cents, refCents)
	}
	if got := promoted.Stats.Evictions.Load(); got < 1 {
		t.Errorf("Evictions = %d, want >= 1: takeover completed without evicting the dead worker", got)
	}
	if got, want := promoted.JobApplied(res.d.Job()), res.d.OpsSent(); got != want {
		t.Errorf("applied ops = %d, driver journaled %d", got, want)
	}
	if promoted.Stats.Takeovers.Load() == 0 {
		t.Error("promoted controller recorded no takeovers")
	}
	res.d.Close()
}

// TestChaosAutoStandbyDoubleFailover: with AutoStandby a fresh standby
// attaches to each promoted primary, so the cluster survives a second
// controller kill without operator action.
func TestChaosAutoStandbyDoubleFailover(t *testing.T) {
	leakcheck.Check(t)
	const parts = 4
	c := startTestCluster(t, Options{
		Workers: 2, Slots: 2,
		LeaseTTL:    150 * time.Millisecond,
		AutoStandby: true,
	})
	d, err := c.Driver("double-failover")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	x := d.MustVar("x", parts)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	double := func() {
		t.Helper()
		if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
			t.Fatal(err)
		}
		if err := d.Barrier(); err != nil {
			t.Fatal(err)
		}
	}

	double()
	for round := 0; round < 2; round++ {
		c.KillController()
		promoted, err := c.AwaitPromotion(10 * time.Second)
		if err != nil {
			t.Fatalf("failover %d: %v", round+1, err)
		}
		double()
		if promoted.Stats.Takeovers.Load() == 0 {
			t.Errorf("failover %d: promoted controller recorded no takeovers", round+1)
		}
	}

	for p := 0; p < parts; p++ {
		got, err := d.GetFloats(x, p)
		if err != nil {
			t.Fatalf("get x[%d]: %v", p, err)
		}
		if len(got) != 1 || got[0] != 8 {
			t.Fatalf("x[%d] = %v after three doubles across two failovers, want [8]", p, got)
		}
	}
}

// TestChaosJournalBoundedByCheckpoints pins the journal-trim satellite: a
// long run that checkpoints periodically must not accrete its whole op
// history in the driver's failover journal — every BarrierDone carries
// the controller's applied count and releases the journal prefix.
func TestChaosJournalBoundedByCheckpoints(t *testing.T) {
	const parts = 4
	c := startTestCluster(t, Options{Workers: 2})
	d, err := c.Driver("journal-bound")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	x := d.MustVar("x", parts)
	for round := 0; round < 6; round++ {
		for p := 0; p < parts; p++ {
			if err := d.PutFloats(x, p, []float64{float64(round)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
			t.Fatal(err)
		}
		if d.JournalLen() == 0 {
			t.Fatalf("round %d: journal empty before the checkpoint; nothing would survive a failover", round)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		if got := d.JournalLen(); got != 0 {
			t.Fatalf("round %d: journal holds %d ops after checkpoint commit, want 0", round, got)
		}
	}
}

// TestChaosJournalTrimAfterStandbyLoss: once a standby detaches, the
// controller's safe-applied count freezes at the last replica ack and the
// driver journal grows — deliberately, since a stale shadow might still
// promote. Past the stale-shadow horizon (the detached standby's lease
// long expired) the controller reverts to its own applied count and the
// next barrier trims the journal back to empty.
func TestChaosJournalTrimAfterStandbyLoss(t *testing.T) {
	const parts = 2
	const ttl = 25 * time.Millisecond
	c := startTestCluster(t, Options{Workers: 2, LeaseTTL: ttl})
	s, err := c.StartStandby()
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Driver("journal-horizon")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	x := d.MustVar("x", parts)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	// With the standby attached the replica acks trail the applied count
	// by at most the in-flight window; barrier until the journal drains.
	deadline := time.Now().Add(5 * time.Second)
	for d.JournalLen() > 0 && time.Now().Before(deadline) {
		if err := d.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.JournalLen(); got != 0 {
		t.Fatalf("journal holds %d ops with a live standby acking", got)
	}

	s.Stop()
	// New work after the standby detached: the frozen replica ack pins
	// the journal.
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}
	if d.JournalLen() == 0 {
		t.Fatal("journal empty right after standby loss: safe-applied did not freeze at the replica ack")
	}

	// Past the stale-shadow horizon the detached standby's lease is long
	// expired; the next barrier trims everything.
	time.Sleep(25*ttl + 100*time.Millisecond)
	deadline = time.Now().Add(5 * time.Second)
	for d.JournalLen() > 0 && time.Now().Before(deadline) {
		if err := d.Barrier(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := d.JournalLen(); got != 0 {
		t.Fatalf("journal still holds %d ops past the stale-shadow horizon", got)
	}
}

// TestEvictJobWhenDriverNeverReattaches: a promoted controller tears down
// restored jobs whose driver never reattaches within ReattachDeadline
// instead of parking them forever; the late driver gets a clean "no such
// job" session error.
func TestEvictJobWhenDriverNeverReattaches(t *testing.T) {
	leakcheck.Check(t)
	const parts = 2
	c := startTestCluster(t, Options{
		Workers:          2,
		LeaseTTL:         120 * time.Millisecond,
		ReattachDeadline: 400 * time.Millisecond,
	})
	if _, err := c.StartStandby(); err != nil {
		t.Fatal(err)
	}
	d, err := c.Driver("absent-driver")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	x := d.MustVar("x", parts)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}

	// The driver goes idle: it only notices a failover on its next
	// request, so it will not reattach on its own.
	c.KillController()
	promoted, err := c.AwaitPromotion(10 * time.Second)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var jobs []ids.JobID
	for time.Now().Before(deadline) {
		promoted.Do(func() { jobs = promoted.Jobs() })
		if len(jobs) == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(jobs) != 0 {
		t.Fatalf("restored jobs %v still parked past the reattach deadline", jobs)
	}
	if got := promoted.Stats.JobsExpired.Load(); got < 1 {
		t.Errorf("JobsExpired = %d, want >= 1", got)
	}

	// The driver's eventual return finds its job gone — a session error,
	// not a hang.
	if _, err := d.GetFloats(x, 0); err == nil {
		t.Fatal("stale driver's request succeeded against a torn-down job")
	}
}

// TestChaosCheckpointSaveFailurePropagates is the durable fault
// satellite: when every durable save of a checkpoint fails (ENOSPC), the
// checkpoint aborts with a typed driver error, the previous checkpoint
// stays authoritative, and a later worker failure recovers correctly
// from it.
func TestChaosCheckpointSaveFailurePropagates(t *testing.T) {
	const parts = 4
	fs := chaos.NewFaultStore(durable.NewMem())
	c := startTestCluster(t, Options{
		Workers:          3,
		HeartbeatEvery:   20 * time.Millisecond,
		HeartbeatTimeout: 200 * time.Millisecond,
		Durable:          fs,
	})
	d, err := c.Driver("ckpt-fault")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	x := d.MustVar("x", parts)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("healthy checkpoint: %v", err)
	}

	// Disk full: the next checkpoint's saves all fail. The driver gets
	// the typed error; the job itself is unharmed.
	fs.FailSaves(errors.New("no space left on device"))
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}
	err = d.Checkpoint()
	if !errors.Is(err, driver.ErrCheckpointFailed) {
		t.Fatalf("checkpoint under ENOSPC returned %v, want ErrCheckpointFailed", err)
	}
	if got := c.Controller.Stats.CkptsAborted.Load(); got != 1 {
		t.Errorf("CkptsAborted = %d, want 1", got)
	}
	if fs.Faults() == 0 {
		t.Fatal("fault store injected nothing; the checkpoint failed for another reason")
	}
	fs.Heal()

	// Kill a worker: recovery reverts to the committed checkpoint and
	// replays the oplog suffix — including the post-checkpoint double the
	// aborted checkpoint must not have trimmed.
	c.KillWorker(2)
	sum := d.MustVar("sum", 1)
	if err := d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetFloats(sum, 0)
	if err != nil {
		t.Fatalf("get after recovery: %v", err)
	}
	if len(got) != 1 || got[0] != 4*parts {
		t.Fatalf("sum after recovery = %v, want [%d]: the aborted checkpoint corrupted recovery", got, 4*parts)
	}
	if c.Controller.Stats.Recoveries.Load() == 0 {
		t.Error("worker kill triggered no recovery")
	}
}
