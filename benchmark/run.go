package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"nimbus/internal/ids"
)

// counters is the part of Controller.Stats and the summed Worker.Stats the
// benchmark reads, as plain numbers so two readings subtract.
type counters [nCounters]uint64

const (
	// controller
	cMsgs = iota
	cFrames
	cBytes
	cPatchesBuilt
	cPatchCacheHits
	cEditsSent
	cBuildRetries
	cBuildNs
	cCtlInstantiateNs
	cValidateNs
	cPatchBuildNs
	cMigrateNs
	// workers, summed
	cTasksRun
	cCopiesSent
	cChunksSent
	cParkedSends
	cSpills
	cInstallNs
	cWkrInstantiateNs
	cInstantiateCmds
	cTemplatesSeen
	cCompiles
	cCompileNs
	cUnitsReused
	cActivations
	nCounters
)

func (tb *testbed) counters() counters {
	s := &tb.ctrl.Stats
	c := counters{
		cMsgs: s.MsgsToWorkers.Load(), cFrames: s.FramesToWorkers.Load(), cBytes: s.BytesToWorkers.Load(),
		cPatchesBuilt: s.PatchesBuilt.Load(), cPatchCacheHits: s.PatchCacheHits.Load(),
		cEditsSent: s.EditsSent.Load(), cBuildRetries: s.BuildRetries.Load(),
		cBuildNs: s.BuildNanos.Load(), cCtlInstantiateNs: s.InstantiateNanos.Load(),
		cValidateNs: s.ValidateNanos.Load(), cPatchBuildNs: s.PatchBuildNanos.Load(),
		cMigrateNs: s.MigrateNanos.Load(),
	}
	for _, w := range tb.workers {
		ws := &w.Stats
		c[cTasksRun] += ws.TasksRun.Load()
		c[cCopiesSent] += ws.CopiesSent.Load()
		c[cChunksSent] += ws.ChunksSent.Load()
		c[cParkedSends] += ws.ParkedSends.Load()
		c[cSpills] += ws.Spills.Load()
		c[cInstallNs] += ws.InstallNanos.Load()
		c[cWkrInstantiateNs] += ws.InstantiateNanos.Load()
		c[cInstantiateCmds] += ws.InstantiateCmds.Load()
		c[cTemplatesSeen] += ws.TemplatesSeen.Load()
		c[cCompiles] += ws.TemplateCompiles.Load()
		c[cCompileNs] += ws.CompileNanos.Load()
		c[cUnitsReused] += ws.UnitsReused.Load()
		c[cActivations] += ws.Activations.Load()
	}
	return c
}

func (a counters) minus(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// session is one testbed with the workload's block installed and warmed.
type session struct {
	blk     *block
	tb      *testbed
	tr      *tracer        // nil on untraced sessions
	churn   *rand.Rand     // churn_mem's seeded schedule; nil elsewhere
	workers []ids.WorkerID // all registered workers, ascending
	shrunk  bool
	// executed counts completed executions of the block, the recording
	// included; the output check compares the counter object against it.
	executed int
	// progress is read by the watchdog.
	progress *atomic.Int64
}

// openSession starts a testbed, installs the block, runs the warm-up and
// collects garbage once: everything setup_s covers after process start.
func openSession(cfg runConfig, tr *tracer, progress *atomic.Int64) (*session, error) {
	w := cfg.w
	tb, err := startTestbed(w.tcp, tr, newRegistry(), cfg.scratch)
	if err != nil {
		return nil, err
	}
	s := &session{blk: cfg.blk, tb: tb, tr: tr, progress: progress}
	if w.churn {
		s.churn = rand.New(rand.NewSource(cfg.seed))
	}
	tb.ctrl.Do(func() { s.workers = tb.ctrl.ActiveWorkers() })
	if len(s.workers) != numWorkers {
		tb.stop()
		return nil, fmt.Errorf("%d workers active, want %d", len(s.workers), numWorkers)
	}
	if err := s.blk.install(tb.drv); err != nil {
		tb.stop()
		return nil, fmt.Errorf("installing block: %w", err)
	}
	s.executed = 1
	for i := 0; i < cfg.warmup; i++ {
		if err := s.iterate(); err != nil {
			tb.stop()
			return nil, fmt.Errorf("warm-up iteration %d: %w", i, err)
		}
	}
	runtime.GC()
	return s, nil
}

func (s *session) iterate() error {
	if err := s.tb.drv.Instantiate(s.blk.name); err != nil {
		return err
	}
	if err := s.tb.drv.Barrier(); err != nil {
		return err
	}
	s.executed++
	return nil
}

// phase is what one measured phase produced.
type phase struct {
	iters, failed int
	err           error
	wall          time.Duration
	cpu           time.Duration
	iterNs        []int64 // Instantiate call to Barrier return
	instNs        []int64 // the Instantiate call alone
	starts        []time.Duration
	delta         counters
	// controller calls made by churn_mem, timed from outside
	migrations, resizes int
	migrateCall, resize time.Duration
}

// measure runs n closed-loop iterations: Instantiate, then Barrier, one
// outstanding. The first error ends the phase and the remaining iterations
// count as failed; a session that lost its connection cannot do better.
func (s *session) measure(n int) phase {
	p := phase{iters: n, iterNs: make([]int64, 0, n), instNs: make([]int64, 0, n), starts: make([]time.Duration, 0, n)}
	d := s.tb.drv
	before := s.tb.counters()
	cpu0 := cpuTime()
	begin := time.Now()
	if s.tr != nil {
		s.tr.epoch = begin
		s.tr.on.Store(true)
	}
	for i := 0; i < n; i++ {
		if s.tr != nil {
			s.tr.iter.Store(int64(i))
		}
		if s.churn != nil {
			if p.err = s.reschedule(i+1, &p); p.err != nil {
				break
			}
		}
		t0 := time.Now()
		p.err = d.Instantiate(s.blk.name)
		t1 := time.Now()
		if p.err == nil {
			p.err = d.Barrier()
		}
		t2 := time.Now()
		if p.err != nil {
			break
		}
		s.executed++
		p.starts = append(p.starts, t0.Sub(begin))
		p.instNs = append(p.instNs, int64(t1.Sub(t0)))
		p.iterNs = append(p.iterNs, int64(t2.Sub(t0)))
		s.progress.Add(1)
	}
	p.wall = time.Since(begin)
	if s.tr != nil {
		s.tr.on.Store(false)
	}
	p.cpu = cpuTime() - cpu0
	p.delta = s.tb.counters().minus(before)
	p.failed = n - len(p.iterNs)
	return p
}

// reschedule makes the schedule change due before iteration k (1-based),
// the way a cluster manager would: through Controller.Do.
func (s *session) reschedule(k int, p *phase) error {
	c := s.tb.ctrl
	var err error
	switch {
	case k%resizeEvery == 0:
		want := s.workers
		if !s.shrunk {
			want = s.workers[:shrunkWorkers]
		}
		t := time.Now()
		c.Do(func() { err = c.SetActive(want) })
		p.resize += time.Since(t)
		p.resizes++
		s.shrunk = !s.shrunk
	case k%migrateEvery == 0:
		active := numWorkers
		if s.shrunk {
			active = shrunkWorkers
		}
		parts, target := s.churn.Perm(lrParts)[:migrateParts], s.churn.Intn(active)
		t := time.Now()
		c.Do(func() { err = c.Migrate(s.blk.migrate, parts, s.workers[target]) })
		p.migrateCall += time.Since(t)
		p.migrations++
	}
	return err
}

// measureChecked is measure followed by the output check: the block's own
// check and the exact task count. A phase whose outputs are wrong cannot
// vouch for any of its iterations, so all of them count as failed.
func (s *session) measureChecked(n int) phase {
	p := s.measure(n)
	if p.err != nil {
		p.err = fmt.Errorf("iteration %d: %w", len(p.iterNs), p.err)
		return p
	}
	p.err = s.blk.check(s.tb.drv, s.executed)
	if want := uint64(n * s.blk.tasksPerIter()); p.err == nil && p.delta[cTasksRun] != want {
		p.err = fmt.Errorf("workers ran %d tasks in the measured phase, want %d", p.delta[cTasksRun], want)
	}
	if p.err != nil {
		p.err = fmt.Errorf("output check: %w", p.err)
		p.failed = n
	}
	return p
}

// rusage reads the process's resource usage; it cannot fail for
// RUSAGE_SELF with a valid pointer.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux: KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// percentile is the nearest-rank q-quantile of sorted (ascending).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome; print writes it in the driver's format.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string          // print order of Metrics
	note      string            // why Correct is false
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runConfig is one invocation.
type runConfig struct {
	w       *workload
	blk     *block // w.block(seed), built once per process
	seed    int64
	warmup  int
	iters   int
	traced  bool
	spans   string    // span file path (traced runs)
	started time.Time // process start, for setup_s
	scratch string    // directory for the workers' spill files
	// transport probe sizes (traced runs): ping-pong trips, streamed bytes
	probeTrips, probeBytes int
}

// attempted is the number of measured iterations the run will try: a
// traced run measures two phases of 3/8 of the iterations each.
func (cfg runConfig) attempted() int {
	if cfg.traced {
		return 2 * cfg.tracedIters()
	}
	return cfg.iters
}

func (cfg runConfig) tracedIters() int { return cfg.iters * 3 / 8 }

// run executes one benchmark run: untraced for the end-to-end metrics,
// traced for the per-layer ones.
func run(cfg runConfig, progress *atomic.Int64) (*result, error) {
	if cfg.traced {
		return runTraced(cfg, progress)
	}
	s, err := openSession(cfg, nil, progress)
	if err != nil {
		return nil, err
	}
	defer s.tb.stop()
	setup := time.Since(cfg.started)
	p := s.measureChecked(cfg.iters)
	res := &result{Attempted: p.iters, Failed: p.failed, Metrics: map[string]metric{}}
	if p.err != nil {
		res.note = p.err.Error()
		return res, nil
	}
	res.Correct = true
	tasks := float64(p.iters * s.blk.tasksPerIter())
	sorted := sortedCopy(p.iterNs)
	res.set("setup_s", setup.Seconds(), "s")
	res.set("tasks_per_s", tasks/p.wall.Seconds(), "1/s")
	res.set("iter_ms_p50", float64(percentile(sorted, 0.50))/1e6, "ms")
	res.set("iter_ms_p90", float64(percentile(sorted, 0.90))/1e6, "ms")
	res.set("cpu_us_per_task", float64(p.cpu.Microseconds())/tasks, "us")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}
