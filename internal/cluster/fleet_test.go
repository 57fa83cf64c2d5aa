package cluster

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/app/kmeans"
	"nimbus/internal/cluster/leakcheck"
	"nimbus/internal/controller"
	"nimbus/internal/driver"
	"nimbus/internal/fleet"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// These tests exercise the elastic-fleet lifecycle end to end: warm-gated
// joins, graceful drains under live loops, autoscaling, the mid-warm
// failure path, and drain-abort across controller failover. They are the
// fleet smoke CI runs under -race (-run 'Fleet|Join|Drain|Autoscale').

// awaitFleet polls the controller's fleet stats until ok returns true.
func awaitFleet(t *testing.T, c *Cluster, what string, ok func(controller.FleetStats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ok(c.Controller.FleetStats()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("fleet never reached %s: %+v", what, c.Controller.FleetStats())
}

// TestFleetJoinWarmBeforeTraffic grows the fleet in the middle of an
// iterative job and checks the two join invariants: the joiner compiled
// every active template before its first activation (warm gating), and
// the final centroids are bit-identical to an undisturbed run (the grow
// retarget changed placement, never results).
func TestFleetJoinWarmBeforeTraffic(t *testing.T) {
	leakcheck.Check(t)
	const iters = 8

	refReg := testRegistry(t)
	kmeans.Register(refReg)
	ref := startTestCluster(t, Options{Workers: 2, Slots: 2, Registry: refReg})
	refCents, refD, err := runKmeansExplicit(ref, iters)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refD.Close()

	reg := testRegistry(t)
	kmeans.Register(reg)
	c := startTestCluster(t, Options{Workers: 2, Slots: 2, Registry: reg})
	d, err := c.Driver("kmeans-join")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j, err := kmeans.Setup(d, kmeansFailoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.InstallTemplate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Iterate(); err != nil {
			t.Fatalf("iterate %d: %v", i, err)
		}
		if _, err := j.ShiftValue(); err != nil {
			t.Fatal(err)
		}
	}

	w, err := c.startWorker()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	select {
	case <-w.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("joined worker never became ready")
	}
	// Warm gating: ready means every active template is compiled on the
	// joiner, and nothing has been scheduled to it yet.
	if got := w.Stats.TemplateCompiles.Load(); got == 0 {
		t.Fatal("joiner ready with no templates compiled; warm did not run")
	}
	if got := w.Stats.Activations.Load(); got != 0 {
		t.Fatalf("joiner saw %d activations before ready; traffic leaked into warm", got)
	}
	st := c.Controller.FleetStats()
	if st.Workers != 3 || st.Joins != 1 || st.Warming != 0 {
		t.Fatalf("fleet stats after join: %+v", st)
	}
	if st.WarmP50 <= 0 {
		t.Fatalf("warm latency not recorded: %+v", st)
	}

	for i := 3; i < iters; i++ {
		if err := j.Iterate(); err != nil {
			t.Fatalf("iterate %d: %v", i, err)
		}
		if _, err := j.ShiftValue(); err != nil {
			t.Fatal(err)
		}
	}
	cents, err := d.Get(j.Centroids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cents, refCents) {
		t.Fatal("centroids after mid-run join differ from undisturbed run")
	}
	if w.Stats.Activations.Load() == 0 {
		t.Fatal("joiner took no work after becoming ready")
	}
	if rec := c.Controller.Stats.Recoveries.Load(); rec != 0 {
		t.Fatalf("join triggered %d recoveries; grow must not be a failure", rec)
	}
}

// TestAddWorkerMidJobIsWarmed adds a worker with AddWorker, the plain way
// in, in the middle of the same iterative job as
// TestFleetJoinWarmBeforeTraffic. Whether a fresh worker warms is the
// controller's call, not the caller's: with a job live it must be warmed
// before AddWorker returns, then take work, and leave the centroids
// bit-identical to an undisturbed run.
func TestAddWorkerMidJobIsWarmed(t *testing.T) {
	leakcheck.Check(t)
	const iters = 8

	refReg := testRegistry(t)
	kmeans.Register(refReg)
	ref := startTestCluster(t, Options{Workers: 2, Slots: 2, Registry: refReg})
	refCents, refD, err := runKmeansExplicit(ref, iters)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refD.Close()

	reg := testRegistry(t)
	kmeans.Register(reg)
	c := startTestCluster(t, Options{Workers: 2, Slots: 2, Registry: reg})
	d, err := c.Driver("kmeans-add")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j, err := kmeans.Setup(d, kmeansFailoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.InstallTemplate(); err != nil {
		t.Fatal(err)
	}
	iterate := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := j.Iterate(); err != nil {
				t.Fatalf("iterate %d: %v", i, err)
			}
			if _, err := j.ShiftValue(); err != nil {
				t.Fatal(err)
			}
		}
	}
	iterate(0, 3)

	w, err := c.AddWorker()
	if err != nil {
		t.Fatalf("add worker: %v", err)
	}
	compiles, acts := w.Stats.TemplateCompiles.Load(), w.Stats.Activations.Load()
	if compiles == 0 || acts != 0 {
		t.Fatalf("worker added mid-job: compiles=%d activations=%d at ready, want compiles > 0 and no activations", compiles, acts)
	}

	iterate(3, iters)
	cents, err := d.Get(j.Centroids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cents, refCents) {
		t.Fatal("centroids after mid-run AddWorker differ from undisturbed run")
	}
	if w.Stats.Activations.Load() == 0 {
		t.Fatal("worker added mid-job took no work")
	}
}

// TestFleetDrainDuringConcurrentLoops drains a worker while two jobs are
// both mid-InstantiateWhile. Both loops must converge bit-identically to
// an undisturbed run with zero failed commands: a drain is a planned
// migration (retarget + eager flush), never a recovery.
func TestFleetDrainDuringConcurrentLoops(t *testing.T) {
	leakcheck.Check(t)
	const iters = 10

	refReg := testRegistry(t)
	kmeans.Register(refReg)
	ref := startTestCluster(t, Options{Workers: 3, Slots: 2, Registry: refReg})
	refD, err := ref.Driver("ref")
	if err != nil {
		t.Fatal(err)
	}
	refJ, err := kmeans.Setup(refD, kmeansFailoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := refJ.InstallTemplate(); err != nil {
		t.Fatal(err)
	}
	if _, err := refD.InstantiateWhile(kmeans.IterateBlock, refJ.Shift.AtLeast(0, 0), iters); err != nil {
		t.Fatal(err)
	}
	refCents, err := refD.Get(refJ.Centroids, 0)
	if err != nil {
		t.Fatal(err)
	}
	refD.Close()

	reg := testRegistry(t)
	kmeans.Register(reg)
	c := startTestCluster(t, Options{Workers: 3, Slots: 2, Registry: reg})

	type loopJob struct {
		d   *driver.Driver
		j   *kmeans.Job
		fut *driver.Future[driver.LoopResult]
	}
	jobs := make([]loopJob, 2)
	for i := range jobs {
		d, err := c.Driver("drain-loop")
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		j, err := kmeans.Setup(d, kmeansFailoverCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.InstallTemplate(); err != nil {
			t.Fatal(err)
		}
		jobs[i] = loopJob{d: d, j: j}
	}
	evals0 := c.Controller.Stats.PredicateEvals.Load()
	for i := range jobs {
		jobs[i].fut = jobs[i].d.InstantiateWhileAsync(
			kmeans.IterateBlock, jobs[i].j.Shift.AtLeast(0, 0), iters)
	}
	// Wait until both loops are demonstrably mid-flight (at least one
	// predicate evaluation each), then drain a worker under them.
	deadline := time.Now().Add(10 * time.Second)
	for c.Controller.Stats.PredicateEvals.Load()-evals0 < 2 {
		if time.Now().After(deadline) {
			t.Fatal("loops never started iterating")
		}
		time.Sleep(time.Millisecond)
	}
	var drainErr error
	ctrl := c.Controller
	ctrl.Do(func() {
		ws := ctrl.ActiveWorkers()
		drainErr = ctrl.DrainWorker(ws[len(ws)-1])
	})
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}

	for i := range jobs {
		res, err := jobs[i].fut.Wait()
		if err != nil {
			t.Fatalf("loop %d: %v", i, err)
		}
		if res.Iters != iters {
			t.Fatalf("loop %d ran %d iterations, want %d", i, res.Iters, iters)
		}
		cents, err := jobs[i].d.Get(jobs[i].j.Centroids, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cents, refCents) {
			t.Fatalf("job %d centroids differ from undisturbed run after drain", i)
		}
	}
	awaitFleet(t, c, "drain completion", func(st controller.FleetStats) bool {
		return st.Drains == 1 && st.Draining == 0 && st.Workers == 2
	})
	if rec := c.Controller.Stats.Recoveries.Load(); rec != 0 {
		t.Fatalf("drain triggered %d recoveries; want zero failed commands", rec)
	}
	st := c.Controller.FleetStats()
	if st.RebalanceP50 <= 0 {
		t.Fatalf("rebalance latency not recorded: %+v", st)
	}
}

// TestFleetChaosKillMidWarmLeavesNoState kills a joining worker in the
// middle of its warm round — the controller is held mid-plan by the
// retarget hook while the "machine" dies — and checks the failure
// contract: the victim never receives traffic (it never even receives the
// admit), and no controller state survives it: no warming entry, no join
// counted, no recovery run, and the fleet keeps working.
func TestFleetChaosKillMidWarmLeavesNoState(t *testing.T) {
	leakcheck.Check(t)
	var armed atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	reg := testRegistry(t)
	kmeans.Register(reg)
	c := startTestCluster(t, Options{
		Workers: 2, Slots: 2, Registry: reg,
		// The chaos transport (deterministic, seeded) carries every wire;
		// the kill below is the scripted fault.
		ChaosSeed: 0xfee7,
		Hooks: controller.Hooks{
			RetargetError: func(string) error {
				if armed.Load() {
					select {
					case entered <- struct{}{}:
					default:
					}
					<-release
				}
				return nil
			},
		},
	})
	d, err := c.Driver("chaos-warm")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j, err := kmeans.Setup(d, kmeansFailoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.InstallTemplate(); err != nil {
		t.Fatal(err)
	}
	if err := j.Iterate(); err != nil {
		t.Fatal(err)
	}
	// The shift read is synchronous: once it returns, the template's
	// off-loop build has committed and the warm plan below must rebuild it
	// (and hit the armed hook) rather than skip an in-flight build.
	if _, err := j.ShiftValue(); err != nil {
		t.Fatal(err)
	}

	// Play the doomed worker on a raw connection: register, then die
	// mid-warm while the controller is stalled planning our templates.
	armed.Store(true)
	conn, err := c.Transport.Dial(ControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(proto.Marshal(&proto.RegisterWorker{DataAddr: "nimbus/data/99", Slots: 2})); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		raw, err := conn.Recv()
		if err == nil {
			got <- raw
		}
		close(got)
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("warm plan never reached the retarget hook")
	}
	conn.Close() // the machine dies mid-warm
	armed.Store(false)
	close(release)

	if raw, ok := <-got; ok {
		t.Fatalf("dead joiner received a %d-byte frame; mid-warm death must deliver nothing", len(raw))
	}
	awaitFleet(t, c, "warm abort cleanup", func(st controller.FleetStats) bool {
		return st.Warming == 0
	})
	st := c.Controller.FleetStats()
	if st.Workers != 2 || st.Joins != 0 {
		t.Fatalf("fleet stats after mid-warm death: %+v", st)
	}
	if rec := c.Controller.Stats.Recoveries.Load(); rec != 0 {
		t.Fatalf("mid-warm death ran %d recoveries; a warming worker owns nothing to recover", rec)
	}
	// The fleet is unharmed: the job keeps iterating normally.
	if err := j.Iterate(); err != nil {
		t.Fatalf("iterate after aborted join: %v", err)
	}
	if _, err := d.Get(j.Centroids, 0); err != nil {
		t.Fatal(err)
	}
}

// TestAutoscaleClusterGrowsUnderLoad wires the autoscaler to a live
// cluster: queue depth from heartbeats drives TargetPending, Launch joins
// real workers through the warm protocol, and once the burst drains the
// fleet scales back to Min via graceful drains. Results stay correct
// throughout and nothing fails over.
func TestAutoscaleClusterGrowsUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	const parts = 24
	c := startTestCluster(t, Options{
		Workers: 2, Slots: 2, Registry: slowRegistry(t),
		HeartbeatEvery: 2 * time.Millisecond,
	})
	a := c.Autoscaler(fleet.Config{
		Min: 2, Max: 6,
		Policy: fleet.TargetPending{PerWorker: 2},
	})

	d, err := c.Driver("autoscale")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	x := d.MustVar("x", parts)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{float64(p + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Submit(fnSlowDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}

	// Drive the autoscaler deterministically while the burst is queued:
	// heartbeats report pending depth, the policy demands more workers.
	now := time.Unix(0, 0)
	deadline := time.Now().Add(15 * time.Second)
	grew := false
	for time.Now().Before(deadline) {
		a.Step(now)
		now = now.Add(time.Second) // out-wait any cooldown between steps
		if c.FleetSample().Workers >= 4 {
			grew = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !grew {
		t.Fatalf("autoscaler never grew the fleet: %+v", c.FleetSample())
	}

	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		got, err := d.GetFloats(x, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != float64(2*(p+1)) {
			t.Fatalf("x[%d] = %v, want [%d]", p, got, 2*(p+1))
		}
	}

	// Burst over: pending returns to zero, the policy wants Min again and
	// the autoscaler drains the extras gracefully.
	shrunk := false
	for time.Now().Before(deadline) {
		a.Step(now)
		now = now.Add(time.Second)
		if s := c.FleetSample(); s.Workers == 2 && s.Draining == 0 && s.Warming == 0 {
			shrunk = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !shrunk {
		t.Fatalf("autoscaler never shrank the fleet: %+v", c.FleetSample())
	}
	st := a.Stats()
	if st.Ups == 0 || st.Downs == 0 {
		t.Fatalf("autoscaler stats: %+v", st)
	}
	if rec := c.Controller.Stats.Recoveries.Load(); rec != 0 {
		t.Fatalf("autoscaling ran %d recoveries; scaling must never look like failure", rec)
	}
	// Values survive the scale-down: every partition still reads back.
	for p := 0; p < parts; p++ {
		if _, err := d.GetFloats(x, p); err != nil {
			t.Fatalf("get after scale-down: %v", err)
		}
	}
}

// fnGatedDouble is fnDouble held on a gate the test opens.
const fnGatedDouble ids.FunctionID = fn.FirstAppFunc + 41

// TestFleetDrainAbortedByFailover kills the controller while a drain is
// still waiting for the victim's in-flight work. Fleet phases are
// deliberately not replicated: the promoted standby readmits the victim
// as a plain active worker (the documented drain-abort), the worker
// clears its drain flag on reconnect, and the job finishes correctly on
// the full fleet.
func TestFleetDrainAbortedByFailover(t *testing.T) {
	leakcheck.Check(t)
	const parts = 8
	// The stage's tasks block until the controller is dead, so the drain
	// cannot quiesce — and decommission the victim — before the kill, however
	// fast the box.
	gate := make(chan struct{})
	var openOnce sync.Once
	open := func() { openOnce.Do(func() { close(gate) }) }
	entered := make(chan ids.WorkerID, parts)
	reg := testRegistry(t)
	reg.MustRegister(fnGatedDouble, "test/gated-double", func(c *fn.Ctx) error {
		select {
		case entered <- c.Worker:
		default: // nobody is listening any more: a re-execution after the failover
		}
		<-gate
		return double(c)
	})
	c := startTestCluster(t, Options{
		Workers: 3, Slots: 2, Registry: reg,
		LeaseTTL: 150 * time.Millisecond,
	})
	t.Cleanup(open) // before the cluster's Stop: a failed test must not leave executors blocked
	if _, err := c.StartStandby(); err != nil {
		t.Fatalf("standby: %v", err)
	}
	d, err := c.Driver("drain-abort")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	x := d.MustVar("x", parts)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{float64(p + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Submit is pipelined — wait until one of the stage's tasks is inside
	// the gate on the victim before draining under it.
	if err := d.Submit(fnGatedDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatal(err)
	}
	var victim ids.WorkerID
	ctrl := c.Controller
	ctrl.Do(func() {
		ws := ctrl.ActiveWorkers()
		victim = ws[len(ws)-1]
	})
	busy := time.After(10 * time.Second)
	for onVictim := false; !onVictim; {
		select {
		case w := <-entered:
			onVictim = w == victim
		case <-busy:
			t.Fatalf("no task of the stage started on the victim %s", victim)
		}
	}
	var drainErr error
	ctrl.Do(func() { drainErr = ctrl.DrainWorker(victim) })
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}
	if st := c.Controller.FleetStats(); st.Draining != 1 {
		t.Fatalf("drain did not stay in flight: %+v", st)
	}

	c.KillController()
	open()
	if _, err := c.AwaitPromotion(10 * time.Second); err != nil {
		t.Fatalf("promotion: %v", err)
	}
	// The full fleet reassembles under the new controller: all three
	// workers reconnect as active, nobody is draining. A worker clears its
	// own flag when its event loop processes the reconnect ack, which can
	// be after the controller already counts it, so the flags are part of
	// the polled condition.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.Controller.FleetStats()
		flagged := 0
		for _, w := range c.Workers {
			if w.Draining() {
				flagged++
			}
		}
		if st.Workers == 3 && st.Draining == 0 && flagged == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reassembled after failover: %+v, %d workers still flagged draining", st, flagged)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The job completes correctly on the restored fleet.
	if err := d.Barrier(); err != nil {
		t.Fatalf("barrier after failover: %v", err)
	}
	for p := 0; p < parts; p++ {
		got, err := d.GetFloats(x, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != float64(2*(p+1)) {
			t.Fatalf("x[%d] = %v, want [%d]", p, got, 2*(p+1))
		}
	}
}

// TestFleetStandbyChainRejected: attaching a standby while another is
// attached and unpromoted is a typed error — replication is strictly
// primary→standby, a chained standby would protect nothing (see
// DESIGN.md). After a promotion the next attach is legal again.
func TestFleetStandbyChainRejected(t *testing.T) {
	leakcheck.Check(t)
	c := startTestCluster(t, Options{
		Workers: 2, LeaseTTL: 150 * time.Millisecond,
	})
	if _, err := c.StartStandby(); err != nil {
		t.Fatalf("first standby: %v", err)
	}
	if _, err := c.StartStandby(); !errors.Is(err, controller.ErrStandbyChain) {
		t.Fatalf("second standby err = %v, want ErrStandbyChain", err)
	}
	c.KillController()
	if _, err := c.AwaitPromotion(10 * time.Second); err != nil {
		t.Fatalf("promotion: %v", err)
	}
	// The promoted primary may take a fresh standby.
	if _, err := c.StartStandby(); err != nil {
		t.Fatalf("standby after promotion: %v", err)
	}
}
