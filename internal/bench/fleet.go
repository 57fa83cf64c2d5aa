package bench

import (
	"bytes"
	"fmt"
	"time"

	"nimbus/internal/app/kmeans"
	"nimbus/internal/cluster"
	"nimbus/internal/fn"
)

// Fleet measures the elastic worker lifecycle. Part one scales a running
// (real-compute) k-means job from 4 workers up to FleetGrowTo and back,
// one warm-gated join batch or graceful drain batch per iteration, and
// verifies the final centroids are bit-identical to a fixed-fleet run —
// elasticity changed placement, never results, with zero failed commands.
// Part two joins and drains a bare FleetSimWorkers-node fleet over the
// Mem transport to measure raw lifecycle throughput.
func Fleet(s Scale) (*Table, error) {
	t := &Table{
		ID:    "fleet",
		Title: "Elastic fleet: warm-gated joins and graceful drains mid-kmeans",
		Columns: []string{
			"workers", "event", "iter(ms)",
			"warm p50(ms)", "warm p99(ms)", "rebal p50(ms)", "rebal p99(ms)",
		},
	}

	cfg := kmeans.Config{Partitions: 64, K: 4, Dims: 4, PointsPerPart: s.FleetPoints, Seed: 42}
	sizes := fleetSizes(4, s.FleetGrowTo)
	// One iteration at the starting size, one after every resize phase.
	iters := 1 + 2*(len(sizes)-1)

	refCents, err := s.fleetReference(cfg, iters)
	if err != nil {
		return nil, fmt.Errorf("fleet reference: %w", err)
	}

	reg := fn.NewRegistry()
	kmeans.Register(reg)
	c, err := cluster.Start(cluster.Options{Workers: 4, Slots: s.Slots, Registry: reg})
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	d, err := c.Driver("fleet-bench")
	if err != nil {
		return nil, err
	}
	defer d.Close()
	j, err := kmeans.Setup(d, cfg)
	if err != nil {
		return nil, err
	}
	if err := j.InstallTemplate(); err != nil {
		return nil, err
	}

	iterate := func() (time.Duration, error) {
		start := time.Now()
		if err := j.Iterate(); err != nil {
			return 0, err
		}
		if _, err := j.ShiftValue(); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	row := func(workers int, event string, d time.Duration) {
		st := c.Controller.FleetStats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(workers), event, ms(d),
			ms(st.WarmP50), ms(st.WarmP99), ms(st.RebalanceP50), ms(st.RebalanceP99),
		})
	}

	dur, err := iterate()
	if err != nil {
		return nil, err
	}
	row(4, "baseline", dur)

	// Grow 4 → FleetGrowTo, doubling each phase; every joiner is warmed
	// (all active templates installed and compiled) before taking traffic.
	for _, size := range sizes[1:] {
		batch := size - fleetWorkers(c)
		for i := 0; i < batch; i++ {
			if _, err := c.AddWorker(); err != nil {
				return nil, fmt.Errorf("join to %d: %w", size, err)
			}
		}
		dur, err := iterate()
		if err != nil {
			return nil, err
		}
		row(size, fmt.Sprintf("join +%d", batch), dur)
	}

	// Drain back FleetGrowTo → 4; each drain retargets the survivors and
	// eagerly flushes the victims' latest data before decommission.
	for i := len(sizes) - 2; i >= 0; i-- {
		size := sizes[i]
		batch := fleetWorkers(c) - size
		ctrl := c.Controller
		ctrl.Do(func() { ctrl.DrainWorkers(batch) })
		if err := awaitFleetSize(c, size); err != nil {
			return nil, fmt.Errorf("drain to %d: %w", size, err)
		}
		dur, err := iterate()
		if err != nil {
			return nil, err
		}
		row(size, fmt.Sprintf("drain -%d", batch), dur)
	}

	cents, err := d.Get(j.Centroids, 0)
	if err != nil {
		return nil, err
	}
	identical := bytes.Equal(cents, refCents)
	if !identical {
		return nil, fmt.Errorf("fleet: centroids after elastic run differ from fixed-fleet run")
	}
	if rec := c.Controller.Stats.Recoveries.Load(); rec != 0 {
		return nil, fmt.Errorf("fleet: %d recoveries during elastic run; want zero failed commands", rec)
	}
	st := c.Controller.FleetStats()
	t.Notes = append(t.Notes,
		fmt.Sprintf("centroids bit-identical to fixed %d-worker run: %v; joins=%d drains=%d recoveries=0",
			4, identical, st.Joins, st.Drains))

	simNote, err := s.fleetSim()
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, simNote)
	return t, nil
}

// fleetSizes returns the doubling sweep from lo to hi inclusive.
func fleetSizes(lo, hi int) []int {
	sizes := []int{lo}
	for n := lo * 2; n < hi; n *= 2 {
		sizes = append(sizes, n)
	}
	if hi > lo {
		sizes = append(sizes, hi)
	}
	return sizes
}

func fleetWorkers(c *cluster.Cluster) int {
	return c.Controller.FleetStats().Workers
}

func awaitFleetSize(c *cluster.Cluster, size int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := c.Controller.FleetStats()
		if st.Workers == size && st.Draining == 0 && st.Warming == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet stuck at %+v, want %d settled", st, size)
		}
		time.Sleep(time.Millisecond)
	}
}

// fleetReference runs the same clustering program on a fixed 4-worker
// fleet and returns its centroid bytes.
func (s Scale) fleetReference(cfg kmeans.Config, iters int) ([]byte, error) {
	reg := fn.NewRegistry()
	kmeans.Register(reg)
	c, err := cluster.Start(cluster.Options{Workers: 4, Slots: s.Slots, Registry: reg})
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	d, err := c.Driver("fleet-ref")
	if err != nil {
		return nil, err
	}
	defer d.Close()
	j, err := kmeans.Setup(d, cfg)
	if err != nil {
		return nil, err
	}
	if err := j.InstallTemplate(); err != nil {
		return nil, err
	}
	for i := 0; i < iters; i++ {
		if err := j.Iterate(); err != nil {
			return nil, err
		}
		if _, err := j.ShiftValue(); err != nil {
			return nil, err
		}
	}
	return d.Get(j.Centroids, 0)
}

// fleetSim joins a bare FleetSimWorkers-node fleet over Mem (no jobs, so
// each join is one hello and one ack with nothing to warm) and drains it
// back, reporting throughput. It exercises the controller's fleet tables
// at a scale an in-process cluster with live jobs cannot reach.
func (s Scale) fleetSim() (string, error) {
	c, err := cluster.Start(cluster.Options{Workers: 4, Slots: 1})
	if err != nil {
		return "", err
	}
	defer c.Stop()
	target := s.FleetSimWorkers
	joinStart := time.Now()
	for fleetWorkers(c) < target {
		if _, err := c.AddWorker(); err != nil {
			return "", fmt.Errorf("fleet sim join at size %d: %w", fleetWorkers(c), err)
		}
	}
	joinDur := time.Since(joinStart)
	drainStart := time.Now()
	ctrl := c.Controller
	ctrl.Do(func() { ctrl.DrainWorkers(target - 4) })
	if err := awaitFleetSize(c, 4); err != nil {
		return "", fmt.Errorf("fleet sim drain: %w", err)
	}
	drainDur := time.Since(drainStart)
	st := c.Controller.FleetStats()
	return fmt.Sprintf(
		"%d-worker fleet sim over Mem: joined in %v (%.0f joins/s), drained in %v (%.0f drains/s)",
		target, joinDur.Round(time.Millisecond), float64(target-4)/joinDur.Seconds(),
		drainDur.Round(time.Millisecond), float64(st.Drains)/drainDur.Seconds()), nil
}
