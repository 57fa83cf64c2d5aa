// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§5). Each experiment returns
// a Table with the same rows/series the paper reports; cmd/nimbus-bench
// prints them and bench_test.go wraps them as testing.B benchmarks.
//
// Absolute numbers differ from the paper (the substrate is an in-process
// cluster on one machine, not 100 EC2 nodes); the reproduction target is
// the shape: who wins, by what factor, and where the crossovers fall.
// Calibration constants live in Scale; Quick() is sized for laptops and
// CI, Paper() for full paper-scale runs.
package bench

import (
	"fmt"
	"strings"
	"time"

	"nimbus/internal/app/kmeans"
	"nimbus/internal/app/lr"
	"nimbus/internal/cluster"
	"nimbus/internal/controller"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// Table is one regenerated table or figure.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale calibrates an experiment run.
type Scale struct {
	Name string
	// Workers is the sweep for Figures 7/8; Fig1Workers for Figure 1.
	Workers     []int
	Fig1Workers []int
	// Tasks is the per-iteration gradient task count (the paper uses
	// 8000: one controller template split into 100 worker templates of 80
	// tasks, §5.2).
	Tasks int
	// ReduceFan is the two-level reduction fan-in.
	ReduceFan int
	// Slots is per-worker executor concurrency (8 cores on c3.2xlarge).
	Slots int
	// Latency is the one-way network latency model.
	Latency time.Duration
	// TaskDur / ReduceDur calibrate simulated compute (paper: ~5ms LR
	// tasks; k-means ~45% heavier).
	TaskDur, ReduceDur time.Duration
	// Iterations per measurement.
	Iterations int
	// SparkPerTask is the central baseline's modeled per-task scheduling
	// cost (paper-measured: 166µs for Spark 2.0). Central mode still
	// injects it: the dispatcher waits this long per task.
	SparkPerTask time.Duration
	// NimbusPerTask is the paper's per-task cost for non-templated Nimbus
	// scheduling (134µs, covering the RPC overhead the in-memory
	// transport does not pay). It feeds computed "paper-modelled" columns
	// only (paperModelled); nothing in the cluster waits for it.
	NimbusPerTask time.Duration
	// Water (Figure 11) calibration.
	WaterWorkers   int
	WaterParts     int
	WaterGridDur   time.Duration
	WaterReduceDur time.Duration
	WaterSubsteps  int
	WaterReinit    int
	WaterJacobi    int
	WaterFrames    int
	// Shuffle (streaming data plane) calibration: a grouped stage pulls
	// ShuffleParts partitions of ShufflePartBytes each across
	// ShuffleWorkers workers.
	ShuffleWorkers   int
	ShuffleParts     int
	ShufflePartBytes int
	// FrontDoor (session multiplexing) calibration: herd sizes to sweep,
	// and the iteration bound of the concurrent predicate loop.
	FrontDoorSessions  []int
	FrontDoorLoopIters int
	// Fleet (elastic lifecycle) calibration: the mid-kmeans grow target,
	// per-partition point count of the real (non-simulated) clustering
	// job, and the size of the bare-fleet join/drain throughput sim.
	FleetGrowTo     int
	FleetPoints     int
	FleetSimWorkers int
}

// Quick returns a laptop/CI-sized scale preserving the paper's shapes.
func Quick() Scale {
	return Scale{
		Name:          "quick",
		Workers:       []int{4, 8, 16},
		Fig1Workers:   []int{4, 8, 12, 16},
		Tasks:         160,
		ReduceFan:     8,
		Slots:         8,
		Latency:       100 * time.Microsecond,
		TaskDur:       2 * time.Millisecond,
		ReduceDur:     500 * time.Microsecond,
		Iterations:    4,
		SparkPerTask:  166 * time.Microsecond,
		NimbusPerTask: 134 * time.Microsecond,
		WaterWorkers:  8, WaterParts: 32,
		WaterGridDur: time.Millisecond, WaterReduceDur: 100 * time.Microsecond,
		WaterSubsteps: 2, WaterReinit: 3, WaterJacobi: 6, WaterFrames: 2,
		ShuffleWorkers: 4, ShuffleParts: 8, ShufflePartBytes: 4 << 20,
		FrontDoorSessions: []int{1000}, FrontDoorLoopIters: 50,
		FleetGrowTo: 64, FleetPoints: 1000, FleetSimWorkers: 256,
	}
}

// Paper returns the full paper-scale configuration (100 workers, 8000
// tasks per iteration). Expect multi-minute runtimes.
func Paper() Scale {
	return Scale{
		Name:          "paper",
		Workers:       []int{20, 50, 100},
		Fig1Workers:   []int{30, 40, 50, 60, 70, 80, 90, 100},
		Tasks:         8000,
		ReduceFan:     80,
		Slots:         8,
		Latency:       100 * time.Microsecond,
		TaskDur:       5 * time.Millisecond,
		ReduceDur:     time.Millisecond,
		Iterations:    10,
		SparkPerTask:  166 * time.Microsecond,
		NimbusPerTask: 134 * time.Microsecond,
		WaterWorkers:  64, WaterParts: 256,
		WaterGridDur: 6 * time.Millisecond, WaterReduceDur: 100 * time.Microsecond,
		WaterSubsteps: 3, WaterReinit: 4, WaterJacobi: 10, WaterFrames: 2,
		ShuffleWorkers: 8, ShuffleParts: 32, ShufflePartBytes: 16 << 20,
		FrontDoorSessions: []int{1000, 10000}, FrontDoorLoopIters: 100,
		FleetGrowTo: 64, FleetPoints: 10000, FleetSimWorkers: 1000,
	}
}

// lrConfig builds the simulated LR profile at this scale.
func (s Scale) lrConfig() lr.Config {
	return lr.Config{
		Partitions: s.Tasks, ReduceFan: s.ReduceFan, Simulated: true,
		TaskDuration: s.TaskDur, ReduceDuration: s.ReduceDur,
	}
}

// kmConfig builds the simulated k-means profile (tasks ~45% heavier, as
// in Figure 7b's iteration-time ratio).
func (s Scale) kmConfig() kmeans.Config {
	return kmeans.Config{
		Partitions: s.Tasks, ReduceFan: s.ReduceFan, Simulated: true,
		TaskDuration: s.TaskDur * 145 / 100, ReduceDuration: s.ReduceDur,
	}
}

// idealLRIteration returns the no-control-plane iteration time: compute
// waves on the widest stage plus the reduction tree.
func (s Scale) idealLRIteration(workers int, taskDur time.Duration) time.Duration {
	waves := (s.Tasks + workers*s.Slots - 1) / (workers * s.Slots)
	l1 := s.Tasks / s.ReduceFan
	l1waves := (l1 + workers*s.Slots - 1) / (workers * s.Slots)
	return time.Duration(waves)*taskDur + time.Duration(l1waves)*s.ReduceDur + s.ReduceDur
}

// nimbusCluster starts an LR- and k-means-capable cluster.
func (s Scale) nimbusCluster(workers int, mode controller.Mode) (*cluster.Cluster, error) {
	reg := fn.NewRegistry()
	lr.Register(reg)
	kmeans.Register(reg)
	cost := time.Duration(0)
	if mode == controller.ModeCentral {
		cost = s.SparkPerTask
	}
	return cluster.Start(cluster.Options{
		Workers: workers, Slots: s.Slots, Latency: s.Latency,
		Mode: mode, CentralPerTaskCost: cost, Registry: reg,
	})
}

// liveSched snapshots a controller's untemplated-scheduling counters.
type liveSched struct{ nanos, tasks uint64 }

func liveSchedOf(c *controller.Controller) liveSched {
	return liveSched{c.Stats.ScheduleNanos.Load(), c.Stats.TasksScheduled.Load()}
}

// paperModelled returns what measured would have been had each task the
// controller scheduled without a template between from and to cost
// NimbusPerTask instead of the per-task cost measured over that span:
// measured + tasks × (NimbusPerTask − measured per task). The assumption
// behind it is modelledNote's.
func (s Scale) paperModelled(measured time.Duration, from, to liveSched) time.Duration {
	tasks := to.tasks - from.tasks
	if tasks == 0 {
		return measured
	}
	perTask := time.Duration((to.nanos - from.nanos) / tasks)
	return measured + time.Duration(tasks)*(s.NimbusPerTask-perTask)
}

// modelledNote states how the paper-modelled values are computed.
func (s Scale) modelledNote() string {
	return fmt.Sprintf("paper-modelled = measured + untemplated tasks x (%v - measured per-task cost); "+
		"it assumes the untemplated controller schedules serially, so each task's extra cost adds to the wall time", s.NimbusPerTask)
}

// sparkNote labels the times central mode's injected cost produces.
func (s Scale) sparkNote() string {
	return fmt.Sprintf("central-mode (spark-opt) times are paper-modelled: the central dispatcher waits %v per task, the paper's Spark 2.0 cost", s.SparkPerTask)
}

// measuredJob bundles one running measurement setup.
type measuredJob struct {
	c *cluster.Cluster
	j *lr.Job
}

func (s Scale) startLR(workers int, mode controller.Mode) (*measuredJob, error) {
	c, err := s.nimbusCluster(workers, mode)
	if err != nil {
		return nil, err
	}
	d, err := c.Driver("bench")
	if err != nil {
		c.Stop()
		return nil, err
	}
	j, err := lr.Setup(d, s.lrConfig())
	if err != nil {
		c.Stop()
		return nil, err
	}
	return &measuredJob{c: c, j: j}, nil
}

func (m *measuredJob) stop() { m.c.Stop() }

// timeTemplatedIterations installs templates (if not yet) and measures the
// average iteration time over n instantiations.
func (m *measuredJob) timeTemplatedIterations(n int) (time.Duration, error) {
	if err := m.j.InstallTemplates(); err != nil {
		return 0, err
	}
	// Warm-up: first instantiation validates and patches.
	if err := m.j.Optimize(); err != nil {
		return 0, err
	}
	if err := m.j.D.Barrier(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := m.j.Optimize(); err != nil {
			return 0, err
		}
	}
	if err := m.j.D.Barrier(); err != nil {
		return 0, err
	}
	return time.Since(start) / time.Duration(n), nil
}

// timeUntemplatedIterations measures iteration time when every stage is
// submitted and scheduled afresh (templates off; used by Figures 1 and 9
// and the central baseline).
func (m *measuredJob) timeUntemplatedIterations(n int) (time.Duration, error) {
	// Warm-up one iteration.
	if err := m.j.SubmitOptimizeStages(); err != nil {
		return 0, err
	}
	if err := m.j.D.Barrier(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := m.j.SubmitOptimizeStages(); err != nil {
			return 0, err
		}
	}
	if err := m.j.D.Barrier(); err != nil {
		return 0, err
	}
	return time.Since(start) / time.Duration(n), nil
}

// lrStageSpecs builds the simulated LR iteration's stage specs against a
// static placement — the dataflow (Naiad-opt) baseline consumes these.
func (s Scale) lrStageSpecs(place interface {
	Define(v ids.VariableID, partitions int) ids.VariableID
}) []*proto.SubmitStage {
	const (
		vTData ids.VariableID = 1 + iota
		vCoeff
		vGrad
		vGSum
		vGNorm
	)
	place.Define(vTData, s.Tasks)
	place.Define(vCoeff, 1)
	place.Define(vGrad, s.Tasks)
	place.Define(vGSum, s.Tasks/s.ReduceFan)
	place.Define(vGNorm, 1)
	taskP := fn.SimParams(s.TaskDur)
	redP := fn.SimParams(s.ReduceDur)
	return []*proto.SubmitStage{
		{
			Stage: 1, Fn: fn.FuncSim, Tasks: s.Tasks, Params: taskP,
			Refs: []proto.VarRef{
				{Var: vTData, Pattern: proto.OnePerTask},
				{Var: vCoeff, Pattern: proto.Shared},
				{Var: vGrad, Write: true, Pattern: proto.OnePerTask},
			},
		},
		{
			Stage: 2, Fn: fn.FuncSim, Tasks: s.Tasks / s.ReduceFan, Params: redP,
			Refs: []proto.VarRef{
				{Var: vGrad, Pattern: proto.Grouped},
				{Var: vGSum, Write: true, Pattern: proto.OnePerTask},
			},
		},
		{
			Stage: 3, Fn: fn.FuncSim, Tasks: 1, Params: redP,
			Refs: []proto.VarRef{
				{Var: vGSum, Pattern: proto.Grouped},
				{Var: vCoeff, Pattern: proto.Shared},
				{Var: vCoeff, Write: true, Pattern: proto.Shared},
				{Var: vGNorm, Write: true, Pattern: proto.Shared},
			},
		},
	}
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// us formats a duration in microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

// perTask divides accumulated nanos by a task count.
func perTask(nanos uint64, tasks int) time.Duration {
	if tasks <= 0 {
		return 0
	}
	return time.Duration(nanos / uint64(tasks))
}
