package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"nimbus/internal/app/kmeans"
	"nimbus/internal/chaos"
	"nimbus/internal/cluster/leakcheck"
	"nimbus/internal/driver"
	"nimbus/internal/fn"
	"nimbus/internal/params"
	"nimbus/internal/transport"
)

// The chaos soak harness: every scenario runs under a fixed seed so a CI
// failure replays identically on a laptop. Faults are the recoverable
// kind the product has an answer for — controller kill, worker kill
// mid-takeover, network partition during a predicate loop, delayed
// frames on the control and data planes, spill ENOSPC — and every run
// must end in a bit-identical result or a clean typed error, with the
// driver journal and the controller's applied count in lockstep and no
// goroutine left behind. Destructive faults with no recovery story
// (dropped or truncated control frames) are exercised against the chaos
// layer itself in internal/chaos.

// soakSeeds are the three fixed CI seeds. Adding a seed here adds a full
// subtest per scenario; changing one changes every schedule digest.
var soakSeeds = []uint64{0xC0FFEE, 0x5EED01, 0x0DDBA11}

// soakRules is the standing fault schedule for failover soaks: seeded
// delay jitter on the control link and both data links. Delays are the
// strongest fault that stays lossless — every protocol invariant must
// hold under arbitrary reordering of *timing*, with content intact.
func soakRules() []chaos.Rule {
	return []chaos.Rule{
		{Addr: ControlAddr, DelayProb: 0.05, Delay: time.Millisecond},
		{Addr: "nimbus/data/1", DelayProb: 0.1, Delay: 500 * time.Microsecond},
		{Addr: "nimbus/data/2", DelayProb: 0.1, Delay: 500 * time.Microsecond},
		{Addr: "nimbus/data/3", DelayProb: 0.1, Delay: 500 * time.Microsecond},
	}
}

// soakKmeansCfg is lighter than the failover acceptance config: the soak
// runs it once per seed.
func soakKmeansCfg() kmeans.Config {
	return kmeans.Config{Partitions: 6, K: 3, Dims: 2, PointsPerPart: 3000, Seed: 11}
}

func soakKmeans(c *Cluster, iters int) ([]byte, *driver.Driver, error) {
	d, err := c.Driver("soak-kmeans")
	if err != nil {
		return nil, nil, err
	}
	j, err := kmeans.Setup(d, soakKmeansCfg())
	if err != nil {
		return nil, d, err
	}
	if err := j.InstallTemplate(); err != nil {
		return nil, d, err
	}
	for i := 0; i < iters; i++ {
		if err := j.Iterate(); err != nil {
			return nil, d, err
		}
		if _, err := j.ShiftValue(); err != nil {
			return nil, d, err
		}
	}
	cents, err := d.Get(j.Centroids, 0)
	return cents, d, err
}

// TestSoakKmeansControllerKillUnderChaos kills the primary mid-run under
// seeded delay jitter on every link, for each CI seed. The promoted
// standby finishes the job bit-identically to an undisturbed run, the
// driver journal and applied count reconcile exactly, and the schedule
// digest proves the fault plan is a pure function of (seed, rules).
func TestSoakKmeansControllerKillUnderChaos(t *testing.T) {
	const iters = 6
	refReg := testRegistry(t)
	kmeans.Register(refReg)
	ref := startTestCluster(t, Options{Workers: 3, Slots: 2, Registry: refReg})
	refCents, refD, err := soakKmeans(ref, iters)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refD.Close()

	for _, seed := range soakSeeds {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			leakcheck.Check(t)
			reg := testRegistry(t)
			kmeans.Register(reg)
			c := startTestCluster(t, Options{
				Workers: 3, Slots: 2, Registry: reg,
				LeaseTTL:    150 * time.Millisecond,
				AutoStandby: true,
				ChaosSeed:   seed,
				ChaosRules:  soakRules(),
			})
			// Reproducibility contract: an independently built transport
			// under the same (seed, rules) plans the same faults.
			if got, want := c.Chaos.ScheduleDigest(),
				chaos.New(transport.NewMem(0), seed, soakRules()...).ScheduleDigest(); got != want {
				t.Fatalf("schedule digest %x not reproducible (independent build: %x)", got, want)
			}

			type progRes struct {
				cents []byte
				d     *driver.Driver
				err   error
			}
			resCh := make(chan progRes, 1)
			go func() {
				cents, d, err := soakKmeans(c, iters)
				resCh <- progRes{cents, d, err}
			}()

			deadline := time.Now().Add(10 * time.Second)
			for totalActivations(c) < uint64(3*len(c.Workers)) && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
			c.KillController()
			promoted, err := c.AwaitPromotion(10 * time.Second)
			if err != nil {
				t.Fatalf("takeover: %v", err)
			}

			var res progRes
			select {
			case res = <-resCh:
			case <-time.After(60 * time.Second):
				leakcheck.Hung(t, "driver program hung after failover under chaos")
			}
			if res.err != nil {
				t.Fatalf("soak run: %v", res.err)
			}
			if !bytes.Equal(res.cents, refCents) {
				t.Fatalf("centroids diverged under seed %#x:\n got %x\nwant %x", seed, res.cents, refCents)
			}
			if got, want := promoted.JobApplied(res.d.Job()), res.d.OpsSent(); got != want {
				t.Errorf("applied ops = %d, driver journaled %d", got, want)
			}
			var dropped uint64
			for _, w := range c.Workers {
				dropped += w.Stats.DroppedReports.Load()
			}
			if dropped != 0 {
				t.Errorf("workers dropped %d buffered reports", dropped)
			}
			res.d.Close()
		})
	}
}

// TestSoakPartitionDuringLoopChaos isolates the primary mid-
// InstantiateWhile: a half-open partition blackholes everything the
// primary sends (lease renewals included), the standby's lease runs out
// and it promotes, and the deposed primary is killed once fenced. The
// in-flight loop resolves with the typed ErrLoopInterrupted — its state
// died with the old controller — while the session itself survives:
// journal and applied count reconcile and fresh work runs to the right
// answer.
func TestSoakPartitionDuringLoopChaos(t *testing.T) {
	leakcheck.Check(t)
	seed := soakSeeds[0]
	reg := testRegistry(t)
	kmeans.Register(reg)
	const leaseTTL = 150 * time.Millisecond
	c := startTestCluster(t, Options{
		Workers: 2, Slots: 2, Registry: reg,
		LeaseTTL:  leaseTTL,
		ChaosSeed: seed,
	})
	if _, err := c.StartStandby(); err != nil {
		t.Fatal(err)
	}
	d, err := c.Driver("soak-partition")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j, err := kmeans.Setup(d, kmeans.Config{Partitions: 4, K: 2, Dims: 2, PointsPerPart: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.InstallTemplate(); err != nil {
		t.Fatal(err)
	}

	old := c.Controller
	loopFut := d.InstantiateWhileAsync(kmeans.IterateBlock, j.Shift.AtLeast(0, 0), 200)

	// Let the loop get going, then cut every frame the primary sends —
	// worker commands, driver replies and lease renewals alike vanish.
	deadline := time.Now().Add(10 * time.Second)
	for old.Stats.Instantiations.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Chaos.Partition(ControlAddr, chaos.FromListener)

	// The starved standby begins promoting once the lease lapses, but it
	// cannot finish — the control endpoint stays bound by the deposed
	// primary, so promote() spins in bind-retry and Promoted() will not
	// close yet. Give the partition a few TTLs to starve the lease, then
	// fence the old primary; only then can the promotion handshake land.
	time.Sleep(3 * leaseTTL)
	c.Chaos.Heal(ControlAddr)
	old.Kill()
	promoted, err := c.AwaitPromotion(10 * time.Second)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}

	if _, err := loopFut.Wait(); err == nil {
		// The loop slipped in before the partition bit — legal, just note
		// it; the interruption path did not run this time.
		t.Log("loop completed before the partition took effect")
	} else if !errors.Is(err, driver.ErrLoopInterrupted) {
		t.Fatalf("interrupted loop returned %v, want ErrLoopInterrupted", err)
	}

	// The session survives the interruption: the reattached driver and
	// the promoted controller agree on what was applied, and new work
	// behaves.
	if err := d.Barrier(); err != nil {
		t.Fatalf("barrier after interruption: %v", err)
	}
	if got, want := promoted.JobApplied(d.Job()), d.OpsSent(); got != want {
		t.Errorf("applied ops = %d, driver journaled %d", got, want)
	}
	if promoted.Stats.Takeovers.Load() == 0 {
		t.Error("promoted controller recorded no takeovers")
	}

	d2, err := c.Driver("soak-partition-after")
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	const parts = 4
	x := d2.MustVar("x", parts)
	for p := 0; p < parts; p++ {
		if err := d2.PutFloats(x, p, []float64{1.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d2.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		got, err := d2.GetFloats(x, p)
		if err != nil {
			t.Fatalf("get x[%d]: %v", p, err)
		}
		if len(got) != 1 || got[0] != 3 {
			t.Fatalf("x[%d] = %v after recovery, want [3]", p, got)
		}
	}
}

// soakShuffle runs one grouped shuffle of parts×size deterministic
// partitions and returns the FNV digest sum the cluster computed plus the
// locally computed expectation.
func soakShuffle(t *testing.T, c *Cluster, varName string, parts, size int) (got, want float64) {
	t.Helper()
	d, err := c.Driver("soak-shuffle-" + varName)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	x := d.MustVar(varName, parts)
	h := d.MustVar(varName+"-digest", 1)
	for p := 0; p < parts; p++ {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte((i*2654435761 + p*131) >> 5)
		}
		hs := fnv.New32a()
		hs.Write(data)
		want += float64(hs.Sum32())
		if err := d.Put(x, p, data); err != nil {
			t.Fatalf("put %s[%d]: %v", varName, p, err)
		}
	}
	if err := d.Submit(fnHashAll, 1, nil, x.ReadGrouped(), h.WriteShared()); err != nil {
		t.Fatal(err)
	}
	vals, err := d.GetFloats(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 {
		t.Fatalf("digest result = %v", vals)
	}
	return vals[0], want
}

// soakShuffleRegistry builds the registry for the shuffle soaks (fnHashAll
// is shared with shuffle_test.go).
func soakShuffleRegistry(t *testing.T) *fn.Registry {
	reg := testRegistry(t)
	reg.MustRegister(fnHashAll, "test/fnv-all", func(c *fn.Ctx) error {
		sum := 0.0
		for i := 0; i < c.NumReads(); i++ {
			h := fnv.New32a()
			h.Write(c.Read(i))
			sum += float64(h.Sum32())
		}
		c.SetWrite(0, params.NewEncoder(16).Floats([]float64{sum}).Blob())
		return nil
	})
	return reg
}

// TestSoakShuffleDelayedCreditsChaos streams large chunked transfers
// whose chunks and credits are delayed by the seeded schedule: the
// credit window stalls and resumes out of phase, transfers spill at the
// bounded receiver, and the reassembled bytes must still be
// bit-identical for every CI seed.
func TestSoakShuffleDelayedCreditsChaos(t *testing.T) {
	for _, seed := range soakSeeds {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			leakcheck.Check(t)
			c := startTestCluster(t, Options{
				Workers:  2,
				Registry: soakShuffleRegistry(t),
				// Chunks stream under credit flow control and must spill:
				// the receive budget is a fraction of one partition.
				ChunkSize:  32 << 10,
				RecvBudget: 64 << 10,
				ChaosSeed:  seed,
				ChaosRules: []chaos.Rule{
					{Addr: "nimbus/data/1", DelayProb: 0.2, Delay: 500 * time.Microsecond},
					{Addr: "nimbus/data/2", DelayProb: 0.2, Delay: 500 * time.Microsecond},
				},
			})
			got, want := soakShuffle(t, c, "x", 4, 256<<10)
			if got != want {
				t.Fatalf("digest sum = %v, want %v: delayed credits corrupted the shuffle", got, want)
			}
			var xfers, spills uint64
			for _, w := range c.Workers {
				xfers += w.Stats.XfersRecv.Load()
				spills += w.Stats.Spills.Load()
			}
			if xfers == 0 {
				t.Fatal("no chunked transfers crossed workers")
			}
			if spills == 0 {
				t.Error("bounded receiver never spilled under delay jitter")
			}
		})
	}
}

// TestSoakSpillFaultFallbackChaos arms spill ENOSPC on every worker: a
// transfer that would spill finds the disk full, falls back to RAM
// buffering, and still reassembles bit-identically. Disarming the fault
// restores the spill path.
func TestSoakSpillFaultFallbackChaos(t *testing.T) {
	leakcheck.Check(t)
	c := startTestCluster(t, Options{
		Workers:    2,
		Registry:   soakShuffleRegistry(t),
		ChunkSize:  32 << 10,
		RecvBudget: 64 << 10,
	})
	enospc := errors.New("no space left on device")
	for _, w := range c.Workers {
		w.Spill().SetFault(func(op string) error {
			if op == "create" {
				return enospc
			}
			return nil
		})
	}
	got, want := soakShuffle(t, c, "a", 4, 256<<10)
	if got != want {
		t.Fatalf("digest sum = %v, want %v: ENOSPC fallback corrupted the shuffle", got, want)
	}
	var spills uint64
	for _, w := range c.Workers {
		spills += w.Stats.Spills.Load()
	}
	if spills != 0 {
		t.Fatalf("Spills = %d with spill creation failing; fallback did not engage", spills)
	}

	for _, w := range c.Workers {
		w.Spill().SetFault(nil)
	}
	got, want = soakShuffle(t, c, "b", 4, 256<<10)
	if got != want {
		t.Fatalf("digest sum = %v, want %v after disarming the fault", got, want)
	}
	for _, w := range c.Workers {
		spills += w.Stats.Spills.Load()
	}
	if spills == 0 {
		t.Error("spill path did not resume after the fault was disarmed")
	}
}
