package cluster

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/app/kmeans"
	"nimbus/internal/cluster/leakcheck"
	"nimbus/internal/driver"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
)

// These tests exercise controller failover end to end: hot-standby
// replication, lease-based takeover, worker last-known-good autonomy, and
// driver reattach reconciliation. They are the chaos smoke CI runs under
// -race (-run 'Failover|Takeover|KillController').

func totalActivations(c *Cluster) uint64 {
	var tot uint64
	for _, w := range c.Workers {
		tot += w.Stats.Activations.Load()
	}
	return tot
}

// kmeansFailoverCfg is shared by the reference and failover runs: the
// math is placement-independent (reductions read partitions in index
// order), so both runs must land on bit-identical centroids.
func kmeansFailoverCfg() kmeans.Config {
	return kmeans.Config{
		Partitions:    6,
		K:             3,
		Dims:          2,
		PointsPerPart: 10000,
		Seed:          11,
	}
}

// runKmeansExplicit runs the explicit-iteration clustering loop (one Get
// round trip per iteration) for exactly iters iterations and returns the
// raw centroid bytes. The driver session is left open so the caller can
// inspect the job before Close.
func runKmeansExplicit(c *Cluster, iters int) ([]byte, *driver.Driver, error) {
	d, err := c.Driver("kmeans-failover")
	if err != nil {
		return nil, nil, err
	}
	j, err := kmeans.Setup(d, kmeansFailoverCfg())
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

// TestKillControllerMidKmeansStandbyFinishes is the acceptance test: the
// primary is killed mid-run, the standby takes over within the lease TTL,
// and the job completes with centroids bit-identical to an uninterrupted
// run — zero logged operations lost or double-applied (applied count ==
// driver journal), with the workers having executed work during the
// outage and dropped nothing.
func TestKillControllerMidKmeansStandbyFinishes(t *testing.T) {
	leakcheck.Check(t)
	const iters = 10

	// Reference: the same program on an undisturbed cluster.
	refReg := testRegistry(t)
	kmeans.Register(refReg)
	ref := startTestCluster(t, Options{Workers: 3, Slots: 2, Registry: refReg})
	refCents, refD, err := runKmeansExplicit(ref, iters)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refD.Close()

	// Failover cluster: short lease, hot standby attached. The assign task
	// after three iterations' worth (kmeansFailoverCfg has 6 partitions)
	// blocks on its worker until the primary is dead and that worker runs
	// on its own, so work is in flight across the outage.
	const gateAt = 3*6 + 1
	var calls atomic.Int32
	blocked, release := make(chan ids.WorkerID, 1), make(chan struct{})
	var releaseOnce sync.Once
	reg := testRegistry(t)
	kreg := fn.NewRegistry()
	kmeans.Register(kreg)
	for _, id := range []ids.FunctionID{kmeans.FnGenPoints, kmeans.FnAssign, kmeans.FnReduceSums, kmeans.FnUpdateCentroids} {
		f := kreg.Lookup(id)
		if id == kmeans.FnAssign {
			assign := f
			f = func(call *fn.Ctx) error {
				if calls.Add(1) == gateAt {
					blocked <- call.Worker
					<-release
				}
				return assign(call)
			}
		}
		reg.MustRegister(id, kreg.Name(id), f)
	}
	autonomous := make(chan ids.WorkerID, 16)
	c := startTestCluster(t, Options{
		Workers: 3, Slots: 2, Registry: reg,
		LeaseTTL: 150 * time.Millisecond,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "running autonomously") {
				select {
				case autonomous <- args[0].(ids.WorkerID):
				default:
				}
			}
		},
	})
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) }) // before the cluster stops
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

	var holder ids.WorkerID
	select {
	case holder = <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("no assign task reached the gate within 10s")
	}
	c.KillController()
	for w := ids.NoWorker; w != holder; {
		select {
		case w = <-autonomous:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s holding the blocked task did not notice the dead primary within 10s", holder)
		}
	}
	releaseOnce.Do(func() { close(release) })

	promoted, err := c.AwaitPromotion(10 * time.Second)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}

	var res progRes
	select {
	case res = <-resCh:
	case <-time.After(30 * time.Second):
		leakcheck.Hung(t, "driver program hung after failover")
	}
	if res.err != nil {
		t.Fatalf("failover run: %v", res.err)
	}
	if !bytes.Equal(res.cents, refCents) {
		t.Fatalf("centroids diverged after failover:\n got %x\nwant %x", res.cents, refCents)
	}

	// Reconcile invariants: the promoted controller's applied count equals
	// the driver's journal (nothing lost, nothing double-applied), and it
	// got there by replaying the replicated oplog.
	if got, want := promoted.JobApplied(res.d.Job()), res.d.OpsSent(); got != want {
		t.Errorf("applied ops = %d, driver journaled %d", got, want)
	}
	if promoted.Stats.Takeovers.Load() == 0 {
		t.Error("promoted controller recorded no takeovers")
	}
	if promoted.Stats.OpsReplayed.Load() == 0 {
		t.Error("takeover replayed no logged operations")
	}

	var outageDone, dropped uint64
	for _, w := range c.Workers {
		outageDone += w.Stats.OutageDone.Load()
		dropped += w.Stats.DroppedReports.Load()
	}
	if outageDone == 0 {
		t.Error("workers executed no commands during the outage window")
	}
	if dropped != 0 {
		t.Errorf("workers dropped %d buffered reports", dropped)
	}
	res.d.Close()
}

// TestTakeoverLeaseExpiryPromotesStandby checks the promotion machinery
// alone: kill an idle primary, watch the lease run out, and verify the
// promoted controller re-binds the endpoint, reassembles the worker
// roster, and serves a brand-new driver session.
func TestTakeoverLeaseExpiryPromotesStandby(t *testing.T) {
	leakcheck.Check(t)
	c := startTestCluster(t, Options{
		Workers: 2, LeaseTTL: 120 * time.Millisecond,
	})
	if _, err := c.StartStandby(); err != nil {
		t.Fatalf("standby: %v", err)
	}
	c.KillController()
	if _, err := c.AwaitPromotion(10 * time.Second); err != nil {
		t.Fatalf("takeover: %v", err)
	}

	// Every worker reattaches under its prior identity.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var reconnects uint64
		for _, w := range c.Workers {
			reconnects += w.Stats.Reconnects.Load()
		}
		if reconnects >= uint64(len(c.Workers)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never reattached (reconnects=%d)", reconnects)
		}
		time.Sleep(time.Millisecond)
	}

	// The promoted controller admits and runs fresh work.
	d, err := c.Driver("post-takeover")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()
	x := d.MustVar("x", 4)
	for p := 0; p < 4; p++ {
		if err := d.PutFloats(x, p, []float64{float64(p + 1)}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.Submit(fnDouble, 4, nil, x.Read(), x.Write()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for p := 0; p < 4; p++ {
		got, err := d.GetFloats(x, p)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if len(got) != 1 || got[0] != float64(2*(p+1)) {
			t.Fatalf("x[%d] = %v, want [%d]", p, got, 2*(p+1))
		}
	}
}

// fnSlowDouble is fnDouble with a deliberate delay, so a controller kill
// reliably lands while commands are still executing.
const fnSlowDouble ids.FunctionID = fn.FirstAppFunc + 40

func slowRegistry(t testing.TB) *fn.Registry {
	reg := testRegistry(t)
	reg.MustRegister(fnSlowDouble, "test/slow-double", func(c *fn.Ctx) error {
		time.Sleep(30 * time.Millisecond)
		return double(c)
	})
	return reg
}

// TestFailoverWorkerAutonomyBuffersAndReplays checks the worker outage
// state machine: installed work keeps draining after the controller dies,
// completions are buffered in the last-known-good queue, and the buffer
// replays on reconnect without losing or double-applying anything — the
// final values are doubled exactly once.
func TestFailoverWorkerAutonomyBuffersAndReplays(t *testing.T) {
	leakcheck.Check(t)
	const parts = 8
	c := startTestCluster(t, Options{
		Workers: 2, Slots: 2, Registry: slowRegistry(t),
		LeaseTTL: 150 * time.Millisecond,
	})
	if _, err := c.StartStandby(); err != nil {
		t.Fatalf("standby: %v", err)
	}

	type progRes struct {
		vals [][]float64
		d    *driver.Driver
		err  error
	}
	resCh := make(chan progRes, 1)
	go func() {
		res := progRes{}
		defer func() { resCh <- res }()
		d, err := c.Driver("autonomy")
		res.d, res.err = d, err
		if err != nil {
			return
		}
		x := d.MustVar("x", parts)
		for p := 0; p < parts; p++ {
			if res.err = d.PutFloats(x, p, []float64{float64(p), 1}); res.err != nil {
				return
			}
		}
		if res.err = d.Submit(fnSlowDouble, parts, nil, x.Read(), x.Write()); res.err != nil {
			return
		}
		for p := 0; p < parts; p++ {
			vals, err := d.GetFloats(x, p)
			if err != nil {
				res.err = err
				return
			}
			res.vals = append(res.vals, vals)
		}
	}()

	// Kill once the uploads have drained and a slow task is mid-execution
	// (admitted but not completed), so the outage reliably interrupts
	// running work.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var act, done uint64
		for _, w := range c.Workers {
			act += w.Stats.Activations.Load()
			done += w.Stats.CommandsDone.Load()
		}
		if done >= parts && act > done {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	c.KillController()
	if _, err := c.AwaitPromotion(10 * time.Second); err != nil {
		t.Fatalf("takeover: %v", err)
	}

	var res progRes
	select {
	case res = <-resCh:
	case <-time.After(30 * time.Second):
		leakcheck.Hung(t, "driver program hung after failover")
	}
	if res.err != nil {
		t.Fatalf("driver program: %v", res.err)
	}
	for p, vals := range res.vals {
		if len(vals) != 2 || vals[0] != float64(2*p) || vals[1] != 2 {
			t.Fatalf("x[%d] = %v, want [%d 2] (doubled exactly once)", p, vals, 2*p)
		}
	}

	var outageDone, buffered, replayed, dropped uint64
	for _, w := range c.Workers {
		outageDone += w.Stats.OutageDone.Load()
		buffered += w.Stats.BufferedReports.Load()
		replayed += w.Stats.ReplayedReports.Load()
		dropped += w.Stats.DroppedReports.Load()
	}
	if outageDone == 0 {
		t.Error("no commands completed during the outage")
	}
	if buffered == 0 {
		t.Error("no completions were buffered during the outage")
	}
	if replayed == 0 {
		t.Error("no buffered reports were replayed on reconnect")
	}
	if dropped != 0 {
		t.Errorf("%d buffered reports dropped", dropped)
	}
	res.d.Close()
}

// TestFailoverDriverReissuesUnresolvedGets checks driver continuity: a Get
// future pending across the controller switch is re-issued under its
// original seq and resolves with the correct value, while a pending
// controller-evaluated loop fails deterministically (its loop state died
// with the primary) instead of hanging or silently restarting.
func TestFailoverDriverReissuesUnresolvedGets(t *testing.T) {
	leakcheck.Check(t)
	c := startTestCluster(t, Options{
		Workers: 2, Slots: 2, LeaseTTL: 150 * time.Millisecond,
	})
	if _, err := c.StartStandby(); err != nil {
		t.Fatalf("standby: %v", err)
	}

	type progRes struct {
		yvals   []float64
		yerr    error
		looperr error
		d       *driver.Driver
		err     error
	}
	resCh := make(chan progRes, 1)
	go func() {
		res := progRes{}
		defer func() { resCh <- res }()
		d, err := c.Driver("reissue")
		res.d, res.err = d, err
		if err != nil {
			return
		}
		s := d.MustVar("s", 1)
		y := d.MustVar("y", 1)
		if res.err = d.PutFloats(s, 0, []float64{1}); res.err != nil {
			return
		}
		if res.err = d.PutFloats(y, 0, []float64{7}); res.err != nil {
			return
		}
		if res.err = d.BeginTemplate("spin"); res.err != nil {
			return
		}
		if res.err = d.Submit(fnDouble, 1, nil, s.Read(), s.Write()); res.err != nil {
			return
		}
		if res.err = d.EndTemplate("spin"); res.err != nil {
			return
		}
		// A practically unbounded loop (s stays >= 0 forever) so the kill
		// lands mid-loop, with a Get queued behind the loop's op fence.
		lw := d.InstantiateWhileAsync("spin", s.AtLeast(0, 0), 1_000_000)
		fy := d.GetFloatsAsync(y, 0)
		res.yvals, res.yerr = fy.Wait()
		_, res.looperr = lw.Wait()
	}()

	// Let the loop spin a little, then kill the primary.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var done uint64
		for _, w := range c.Workers {
			done += w.Stats.CommandsDone.Load()
		}
		if done >= 10 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	c.KillController()
	promoted, err := c.AwaitPromotion(10 * time.Second)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}

	var res progRes
	select {
	case res = <-resCh:
	case <-time.After(30 * time.Second):
		leakcheck.Hung(t, "driver futures hung after failover")
	}
	if res.err != nil {
		t.Fatalf("driver program: %v", res.err)
	}
	if res.yerr != nil {
		t.Fatalf("re-issued Get failed: %v", res.yerr)
	}
	if len(res.yvals) != 1 || res.yvals[0] != 7 {
		t.Fatalf("re-issued Get = %v, want [7]", res.yvals)
	}
	if res.looperr == nil || !strings.Contains(res.looperr.Error(), "interrupted") {
		t.Fatalf("loop future err = %v, want deterministic interruption", res.looperr)
	}
	if got, want := promoted.JobApplied(res.d.Job()), res.d.OpsSent(); got != want {
		t.Errorf("applied ops = %d, driver journaled %d", got, want)
	}
	res.d.Close()
}

// TestFailoverAfterRejectedOpKeepsJournalInLockstep pins the rejected-op
// accounting invariant: a journaled operation the controller refuses (here
// a Put to an undefined variable) must still advance the per-job applied
// count, because the driver journaled it before sending. Otherwise every
// reattach after the rejection resends the journal suffix one op early,
// replaying an operation the controller already applied.
func TestFailoverAfterRejectedOpKeepsJournalInLockstep(t *testing.T) {
	leakcheck.Check(t)
	c := startTestCluster(t, Options{
		Workers: 2, LeaseTTL: 150 * time.Millisecond,
	})
	if _, err := c.StartStandby(); err != nil {
		t.Fatalf("standby: %v", err)
	}
	d, err := c.Driver("rejected-op")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	v := d.MustVar("x", 1)
	if err := d.PutFloats(v, 0, []float64{1, 2}); err != nil {
		t.Fatalf("put: %v", err)
	}
	// The rejected journaled op. The driver counts it in OpsSent; the
	// rejection surfaces on the next blocking call.
	if err := d.Put(driver.Var{ID: ids.VariableID(99)}, 0, []byte{0}); err != nil {
		t.Fatalf("rejected put send: %v", err)
	}
	if err := d.Barrier(); err == nil || !strings.Contains(err.Error(), "unknown variable") {
		t.Fatalf("barrier after rejected op: err = %v, want unknown-variable rejection", err)
	}
	// Two valid rounds after the rejection. The replication window fence
	// admits op N only once op N-1 is acked, so by the time the second
	// round's put has dispatched (its barrier resolved), the standby has
	// applied everything up to and including the first round — and with it
	// the rejected op's applied-count sync that precedes it in the stream.
	if err := d.PutFloats(v, 0, []float64{3, 4}); err != nil {
		t.Fatalf("put after rejection: %v", err)
	}
	if err := d.Barrier(); err != nil {
		t.Fatalf("barrier after rejection: %v", err)
	}
	if err := d.PutFloats(v, 0, []float64{5, 6}); err != nil {
		t.Fatalf("final put: %v", err)
	}
	if err := d.Barrier(); err != nil {
		t.Fatalf("final barrier: %v", err)
	}

	c.KillController()
	promoted, err := c.AwaitPromotion(10 * time.Second)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}

	// The read reattaches the session and resends the journal suffix past
	// the promoted controller's applied count. A desynced count would
	// resend the rejected op here, surfacing a second rejection on this
	// future.
	got, err := d.GetFloats(v, 0)
	if err != nil {
		t.Fatalf("get after failover: %v", err)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("get after failover = %v, want [5 6]", got)
	}
	if got, want := promoted.JobApplied(d.Job()), d.OpsSent(); got != want {
		t.Errorf("applied ops = %d, driver journaled %d", got, want)
	}
	d.Close()
}

// TestFailoverGatewaySessionStaysBoundPastReattachDeadline: a driver
// session multiplexed over a gateway reattaches after failover as a
// dedicated connection does, and stays bound to its job. The promoted
// controller's reattach deadline expires only jobs whose driver never came
// back, so the session keeps working past it.
func TestFailoverGatewaySessionStaysBoundPastReattachDeadline(t *testing.T) {
	leakcheck.Check(t)
	const reattachDeadline = 300 * time.Millisecond
	c := startTestCluster(t, Options{
		Workers:          2,
		LeaseTTL:         120 * time.Millisecond,
		ReattachDeadline: reattachDeadline,
	})
	if _, err := c.StartStandby(); err != nil {
		t.Fatal(err)
	}
	gw := c.Gateway(1)
	defer gw.Close()
	d, err := driver.ConnectOpts(context.Background(), gw, ControlAddr, driver.Opts{Name: "gateway-failover"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	x := d.MustVar("x", 1)
	y := d.MustVar("y", 1)
	// double runs one put, submit and get round trip, failing rather than
	// hanging if the session lost its job.
	double := func(seed float64) error {
		done := make(chan error, 1)
		go func() {
			if err := d.PutFloats(x, 0, []float64{seed}); err != nil {
				done <- err
				return
			}
			if err := d.Submit(fnDouble, 1, nil, x.Read(), y.Write()); err != nil {
				done <- err
				return
			}
			got, err := d.GetFloats(y, 0)
			if err == nil && (len(got) != 1 || got[0] != 2*seed) {
				err = fmt.Errorf("double(%v) = %v", seed, got)
			}
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("double(%v) still blocked after 10s", seed)
		}
	}
	if err := double(1); err != nil {
		t.Fatal(err)
	}

	c.KillController()
	promoted, err := c.AwaitPromotion(10 * time.Second)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	// The first request after the kill reattaches through the gateway.
	if err := double(2); err != nil {
		t.Fatalf("after failover: %v", err)
	}
	// Let the deadline, measured from the takeover, run out.
	time.Sleep(3 * reattachDeadline)
	if err := double(3); err != nil {
		t.Fatalf("past the reattach deadline: %v", err)
	}
	if n := promoted.Stats.JobsExpired.Load(); n != 0 {
		t.Errorf("the reattach deadline expired %d jobs, want 0: the gateway session reattached", n)
	}
	if got, want := promoted.JobApplied(d.Job()), d.OpsSent(); got != want {
		t.Errorf("applied ops = %d, driver journaled %d", got, want)
	}
}
