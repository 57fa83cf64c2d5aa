package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/chaos"
	"nimbus/internal/controller"
	"nimbus/internal/driver"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// pollStats spins on FrontDoorStats until cond holds. It deliberately does
// NOT use waitUntil: that helper evaluates its condition inside
// Controller.Do, and FrontDoorStats itself calls Do, so nesting would
// deadlock the event loop.
func pollStats(t *testing.T, c *Cluster, timeout time.Duration, what string, cond func(controller.FrontDoorStats) bool) controller.FrontDoorStats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		s := c.Controller.FrontDoorStats()
		if cond(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, s)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runOneTask drives a trivial put/double/get round trip and verifies the
// result, exercising the full control path of an admitted session.
func runOneTask(d *driver.Driver, seed float64) error {
	x := d.MustVar("x", 1)
	y := d.MustVar("y", 1)
	if err := d.PutFloats(x, 0, []float64{seed}); err != nil {
		return fmt.Errorf("put: %w", err)
	}
	if err := d.Submit(fnDouble, 1, nil, x.Read(), y.Write()); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	got, err := d.GetFloats(y, 0)
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	if len(got) != 1 || got[0] != 2*seed {
		return fmt.Errorf("double(%v) = %v, want [%v]", seed, got, 2*seed)
	}
	return nil
}

// TestAdmissionMaxJobsTypedReject: with the live-job cap reached and no
// queue configured, a new registration fails fast with the typed
// rejection — the caller never blocks.
func TestAdmissionMaxJobsTypedReject(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 1, MaxJobs: 1})

	d1, err := c.Driver("first")
	if err != nil {
		t.Fatalf("first driver: %v", err)
	}
	defer d1.Close()

	_, err = c.Driver("second")
	if err == nil {
		t.Fatal("second driver admitted past MaxJobs=1")
	}
	if !errors.Is(err, driver.ErrAdmissionRejected) {
		t.Fatalf("reject error = %v, want ErrAdmissionRejected", err)
	}
	var rej *driver.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("reject error %v carries no *driver.RejectError", err)
	}
	if rej.Code != proto.RejectMaxJobs {
		t.Errorf("reject code = %d, want RejectMaxJobs", rej.Code)
	}
	if rej.RetryAfter <= 0 {
		t.Errorf("reject retry-after = %v, want positive hint", rej.RetryAfter)
	}

	// The cap frees up when the live job ends; the next caller gets in.
	if err := d1.Close(); err != nil {
		t.Fatalf("closing first driver: %v", err)
	}
	pollStats(t, c, 5*time.Second, "job slot to free", func(s controller.FrontDoorStats) bool {
		return s.Jobs == 0
	})
	d3, err := c.Driver("third")
	if err != nil {
		t.Fatalf("driver after slot freed: %v", err)
	}
	defer d3.Close()
	if err := runOneTask(d3, 3); err != nil {
		t.Fatalf("admitted driver: %v", err)
	}
}

// TestAdmissionQueueAdmitsOnRelease: a registration past the cap parks in
// the admission queue and is admitted — not rejected — once a live job
// ends.
func TestAdmissionQueueAdmitsOnRelease(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 1, MaxJobs: 1, AdmitQueue: 4})

	d1, err := c.Driver("holder")
	if err != nil {
		t.Fatalf("holder driver: %v", err)
	}

	type connected struct {
		d   *driver.Driver
		err error
	}
	queued := make(chan connected, 1)
	go func() {
		d, err := c.Driver("queued")
		queued <- connected{d, err}
	}()

	pollStats(t, c, 5*time.Second, "registration to queue", func(s controller.FrontDoorStats) bool {
		return s.QueueLen == 1
	})
	select {
	case got := <-queued:
		t.Fatalf("queued driver returned early: d=%v err=%v", got.d, got.err)
	default:
	}

	if err := d1.Close(); err != nil {
		t.Fatalf("closing holder: %v", err)
	}
	select {
	case got := <-queued:
		if got.err != nil {
			t.Fatalf("queued driver not admitted after release: %v", got.err)
		}
		defer got.d.Close()
		if err := runOneTask(got.d, 5); err != nil {
			t.Fatalf("admitted-from-queue driver: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued driver still blocked 5s after the job slot freed")
	}
	s := c.Controller.FrontDoorStats()
	if s.QueueLen != 0 {
		t.Errorf("queue length = %d after drain, want 0", s.QueueLen)
	}
	if s.AdmissionP99 <= 0 {
		t.Errorf("admission p99 = %v after queued admission, want positive", s.AdmissionP99)
	}
}

// TestAdmissionQueueFullTypedReject: with the cap reached and the queue
// full, overflow gets the typed queue-full rejection immediately.
func TestAdmissionQueueFullTypedReject(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 1, MaxJobs: 1, AdmitQueue: 1})

	d1, err := c.Driver("holder")
	if err != nil {
		t.Fatalf("holder driver: %v", err)
	}

	queued := make(chan error, 1)
	go func() {
		d, err := c.Driver("queued")
		if err == nil {
			defer d.Close()
		}
		queued <- err
	}()
	pollStats(t, c, 5*time.Second, "registration to queue", func(s controller.FrontDoorStats) bool {
		return s.QueueLen == 1
	})

	_, err = c.Driver("overflow")
	var rej *driver.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("overflow error = %v, want *driver.RejectError", err)
	}
	if rej.Code != proto.RejectQueueFull {
		t.Errorf("overflow code = %d, want RejectQueueFull", rej.Code)
	}
	if rej.RetryAfter <= 0 {
		t.Errorf("overflow retry-after = %v, want positive hint", rej.RetryAfter)
	}

	// The queued session is unaffected by the overflow rejection.
	if err := d1.Close(); err != nil {
		t.Fatalf("closing holder: %v", err)
	}
	select {
	case err := <-queued:
		if err != nil {
			t.Fatalf("queued driver failed after overflow reject: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued driver never admitted")
	}
}

// TestAdmissionContextCancelWhileQueued: canceling the connect context
// while the registration waits in the admission queue removes the queue
// entry and releases the connection — no orphaned job state, no leaked
// conn — whether the driver dialed a dedicated connection or a gateway
// session, since both reach the controller as one kind of conn.
func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   func(t *testing.T, c *Cluster) transport.Transport
	}{
		{"dedicated", func(t *testing.T, c *Cluster) transport.Transport { return c.net }},
		// One shared connection, so the abandoned session rides the
		// holder's and the conn count returns exactly to the holder's.
		{"gateway", func(t *testing.T, c *Cluster) transport.Transport {
			gw := c.Gateway(1)
			t.Cleanup(func() { gw.Close() })
			return gw
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startTestCluster(t, Options{Workers: 1, MaxJobs: 1, AdmitQueue: 4})
			tr := tc.tr(t, c)

			d1, err := driver.Connect(tr, ControlAddr, "holder")
			if err != nil {
				t.Fatalf("holder driver: %v", err)
			}
			defer d1.Close()
			base := pollStats(t, c, 5*time.Second, "holder tracked", func(s controller.FrontDoorStats) bool {
				return s.Jobs == 1
			})

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			queued := make(chan error, 1)
			go func() {
				d, err := driver.ConnectOpts(ctx, tr, ControlAddr, driver.Opts{Name: "canceled"})
				if err == nil {
					d.Close()
				}
				queued <- err
			}()
			pollStats(t, c, 5*time.Second, "registration to queue", func(s controller.FrontDoorStats) bool {
				return s.QueueLen == 1
			})

			cancel()
			select {
			case err := <-queued:
				if err == nil {
					t.Fatal("canceled connect reported success")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("canceled connect still blocked after 5s")
			}
			// The queue entry drains and the abandoned conn is untracked; the
			// surviving job is exactly the holder's.
			pollStats(t, c, 5*time.Second, "canceled entry to drain", func(s controller.FrontDoorStats) bool {
				return s.QueueLen == 0 && s.Conns == base.Conns && s.Jobs == 1
			})

			// The slot is genuinely free: ending the holder leaves zero jobs (a
			// phantom admission of the canceled entry would strand one).
			if err := d1.Close(); err != nil {
				t.Fatalf("closing holder: %v", err)
			}
			pollStats(t, c, 5*time.Second, "all jobs to end", func(s controller.FrontDoorStats) bool {
				return s.Jobs == 0
			})
		})
	}
}

// TestSessionMux10kJobs is the tentpole acceptance test: 10k concurrent
// driver sessions multiplexed over at most 16 shared connections, every
// session running a real put/compute/get round trip with zero failures.
func TestSessionMux10kJobs(t *testing.T) {
	n := 10000
	if raceEnabled {
		// The race detector's shadow memory makes a 10k herd's GC pauses
		// long enough to starve later tests' heartbeat windows.
		n = 2500
	}
	if testing.Short() {
		n = 1000
	}
	c := startTestCluster(t, Options{
		Workers: 4,
		Slots:   8,
		// 10k sessions ending all log "job ended"; keep the hot path quiet.
		Logf: func(string, ...any) {},
	})
	gw := c.Gateway(transport.DefaultMaxConns)
	defer gw.Close()

	drivers := make([]*driver.Driver, n)
	var wg sync.WaitGroup
	var connectErrs atomic.Uint64
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			d, err := driver.ConnectOpts(context.Background(), gw, ControlAddr, driver.Opts{
				Name: fmt.Sprintf("sess-%d", i),
			})
			if err != nil {
				connectErrs.Add(1)
				return
			}
			drivers[i] = d
		}(i)
	}
	wg.Wait()
	if ce := connectErrs.Load(); ce != 0 {
		t.Fatalf("%d of %d sessions failed to connect", ce, n)
	}

	// Barrier: all n sessions are admitted and live before any runs work —
	// this is n concurrent jobs through one controller, not n sequential.
	s := c.Controller.FrontDoorStats()
	if s.Jobs != n {
		t.Fatalf("live jobs = %d at barrier, want %d", s.Jobs, n)
	}
	if s.GatewaySessions != n {
		t.Errorf("gateway sessions = %d, want %d", s.GatewaySessions, n)
	}
	if got := gw.Conns(); got > transport.DefaultMaxConns {
		t.Errorf("mux used %d conns, cap %d", got, transport.DefaultMaxConns)
	}
	if s.GatewayConns > transport.DefaultMaxConns {
		t.Errorf("controller tracks %d gateway conns, cap %d", s.GatewayConns, transport.DefaultMaxConns)
	}

	var failures atomic.Uint64
	var firstErr atomic.Value
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			d := drivers[i]
			if err := runOneTask(d, float64(i)); err != nil {
				failures.Add(1)
				firstErr.CompareAndSwap(nil, fmt.Errorf("session %d: %w", i, err))
			}
			if err := d.Close(); err != nil {
				failures.Add(1)
				firstErr.CompareAndSwap(nil, fmt.Errorf("session %d close: %w", i, err))
			}
		}(i)
	}
	wg.Wait()
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d sessions failed; first: %v", f, n, firstErr.Load())
	}

	pollStats(t, c, 30*time.Second, "all sessions to unwind", func(s controller.FrontDoorStats) bool {
		return s.Jobs == 0 && s.GatewaySessions == 0
	})
	s = c.Controller.FrontDoorStats()
	if s.AdmissionP99 <= 0 {
		t.Errorf("admission p99 = %v after %d admissions, want positive", s.AdmissionP99, n)
	}
	// Let the herd's goroutines unwind and return its heap before the
	// next test starts: under the race detector, thousands of draining
	// session goroutines plus the collection of this heap starve the
	// scheduler enough to blow later tests' tight heartbeat windows.
	drivers = nil
	runtime.GC()
	settle := time.Now()
	for time.Since(settle) < 10*time.Second && runtime.NumGoroutine() > 200 {
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	t.Logf("goroutines after settle: %d", runtime.NumGoroutine())
}

// TestSessionTenantFairShare: executor quota on a live worker divides
// between tenants by configured weight and within a tenant by job weight,
// and re-divides when a tenant goes idle.
func TestSessionTenantFairShare(t *testing.T) {
	c := startTestCluster(t, Options{
		Workers:       1,
		Slots:         240,
		TenantWeights: map[string]int{"gold": 3, "bronze": 1},
	})
	gw := c.Gateway(4)
	defer gw.Close()

	connect := func(name, tenant string, weight int) *driver.Driver {
		t.Helper()
		d, err := driver.ConnectOpts(context.Background(), gw, ControlAddr, driver.Opts{
			Name: name, Tenant: tenant, Weight: weight,
		})
		if err != nil {
			t.Fatalf("driver %s: %v", name, err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	goldA := connect("gold-a", "gold", 1)
	goldB := connect("gold-b", "gold", 2)
	bronzeA := connect("bronze-a", "bronze", 1)
	bronzeB := connect("bronze-b", "bronze", 1)

	w := c.Workers[0]
	quotas := func() [4]int {
		return [4]int{
			w.QuotaOf(goldA.Job()), w.QuotaOf(goldB.Job()),
			w.QuotaOf(bronzeA.Job()), w.QuotaOf(bronzeB.Job()),
		}
	}
	// 240 slots, tenant weights 3:1, four live jobs. Gold's 180 split 1:2
	// between its jobs; bronze's 60 split evenly. The acceptance bound is
	// ±10% of configured ratios; integer shares land exact here.
	want := [4]int{60, 120, 30, 30}
	deadline := time.Now().Add(5 * time.Second)
	for quotas() != want {
		if time.Now().After(deadline) {
			t.Fatalf("worker quotas = %v, want %v", quotas(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Bronze going idle re-divides the pool among gold's jobs alone.
	bronzeA.Close()
	bronzeB.Close()
	deadline = time.Now().Add(5 * time.Second)
	for w.QuotaOf(goldA.Job()) != 80 || w.QuotaOf(goldB.Job()) != 160 {
		if time.Now().After(deadline) {
			t.Fatalf("gold quotas after bronze idle = %d,%d, want 80,160",
				w.QuotaOf(goldA.Job()), w.QuotaOf(goldB.Job()))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The shares are still real quotas: both gold sessions run work.
	if err := runOneTask(goldA, 7); err != nil {
		t.Fatalf("gold-a after rebalance: %v", err)
	}
	if err := runOneTask(goldB, 9); err != nil {
		t.Fatalf("gold-b after rebalance: %v", err)
	}
}

// TestSessionChaosIsolation: wire faults on one shared gateway connection
// fail only that connection's sessions. Sessions on other connections —
// the neighbors — finish every operation correctly. Runs under -race in
// CI to pin the isolation invariant.
func TestSessionChaosIsolation(t *testing.T) {
	const perSide = 4

	// victimResult is written by victim goroutines that may outlive the
	// subtest (a dropped final frame can park them in Recv until cluster
	// shutdown); they report through atomics and never touch testing.T.
	type victimTally struct {
		wrong atomic.Uint64 // corrupted values observed — never acceptable
		done  atomic.Uint64 // sessions that finished (ok or clean error)
	}

	// startVictims launches perSide sessions over vmux, each doing a
	// round trip; errors are fine (their conn is under fault injection),
	// wrong values are not.
	startVictims := func(c *Cluster, vmux *transport.Mux, tally *victimTally) {
		for i := 0; i < perSide; i++ {
			go func(i int) {
				defer tally.done.Add(1)
				d, err := driver.ConnectOpts(context.Background(), vmux, ControlAddr, driver.Opts{
					Name: fmt.Sprintf("victim-%d", i),
				})
				if err != nil {
					return
				}
				defer d.Close()
				seed := float64(100 + i)
				x := d.MustVar("x", 1)
				y := d.MustVar("y", 1)
				if d.PutFloats(x, 0, []float64{seed}) != nil {
					return
				}
				if d.Submit(fnDouble, 1, nil, x.Read(), y.Write()) != nil {
					return
				}
				got, err := d.GetFloats(y, 0)
				if err != nil {
					return
				}
				if len(got) != 1 || got[0] != 2*seed {
					tally.wrong.Add(1)
				}
			}(i)
		}
	}

	runNeighbors := func(t *testing.T, nmux *transport.Mux) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, perSide)
		wg.Add(perSide)
		for i := 0; i < perSide; i++ {
			go func(i int) {
				defer wg.Done()
				d, err := driver.ConnectOpts(context.Background(), nmux, ControlAddr, driver.Opts{
					Name: fmt.Sprintf("neighbor-%d", i),
				})
				if err != nil {
					errs <- fmt.Errorf("neighbor %d connect: %w", i, err)
					return
				}
				defer d.Close()
				// Several rounds so neighbor traffic overlaps the faults.
				for r := 0; r < 5; r++ {
					if err := runOneTask(d, float64(10*i+r)); err != nil {
						errs <- fmt.Errorf("neighbor %d round %d: %w", i, r, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	t.Run("sever", func(t *testing.T) {
		c := startTestCluster(t, Options{Workers: 2, Logf: func(string, ...any) {}})
		// Victims dial through a private chaos layer so Sever kills only
		// their shared conns; neighbors share nothing with them but the
		// controller itself.
		ch := chaos.New(c.Transport, 1)
		vmux := transport.NewMux(ch, 2)
		defer vmux.Close()
		nmux := c.Gateway(2)
		defer nmux.Close()

		var tally victimTally
		startVictims(c, vmux, &tally)
		// Cut every victim conn mid-flight, then drive the neighbors to
		// completion across the event.
		time.Sleep(5 * time.Millisecond)
		ch.Sever(ControlAddr)
		runNeighbors(t, nmux)

		if w := tally.wrong.Load(); w != 0 {
			t.Errorf("%d victim sessions observed corrupted values", w)
		}
	})

	t.Run("faults", func(t *testing.T) {
		c := startTestCluster(t, Options{Workers: 2, Logf: func(string, ...any) {}})
		// Drop/dup/reorder on the victims' control-plane frames. Envelope
		// sequencing must convert every such fault into a connection-level
		// failure confined to the victim mux.
		ch := chaos.New(c.Transport, 42, chaos.Rule{
			Addr:    ControlAddr,
			Drop:    0.05,
			Dup:     0.05,
			Reorder: 0.10,
		})
		vmux := transport.NewMux(ch, 2)
		defer vmux.Close()
		nmux := c.Gateway(2)
		defer nmux.Close()

		var tally victimTally
		startVictims(c, vmux, &tally)
		runNeighbors(t, nmux)

		if w := tally.wrong.Load(); w != 0 {
			t.Errorf("%d victim sessions observed corrupted values", w)
		}
		// Victims may legitimately still be parked in Recv on a conn whose
		// final frame was dropped; the cluster teardown unblocks them. Do
		// not join them here — only the invariants above matter.
		t.Logf("victims finished before teardown: %d/%d", tally.done.Load(), perSide)
	})
}
