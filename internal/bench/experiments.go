package bench

import (
	"fmt"
	"time"

	"nimbus/internal/app/kmeans"
	"nimbus/internal/app/lr"
	"nimbus/internal/app/water"
	"nimbus/internal/baseline/dataflow"
	"nimbus/internal/baseline/mpi"
	"nimbus/internal/cluster"
	"nimbus/internal/controller"
	"nimbus/internal/core"
	"nimbus/internal/flow"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
)

// Fig1 reproduces Figure 1: logistic regression under a centralized
// per-task scheduler (Spark-like). Computation time shrinks with more
// workers but the control plane grows, so completion time does not.
func Fig1(s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "Control plane bottleneck: LR under the central (Spark-like) scheduler",
		Columns: []string{"workers", "iteration(ms)", "compute(ms)", "control(ms)"},
		Notes: []string{
			s.sparkNote(),
			"paper shape: compute shrinks with workers, completion time grows",
		},
	}
	for _, w := range s.Fig1Workers {
		m, err := s.startLR(w, controller.ModeCentral)
		if err != nil {
			return nil, err
		}
		iter, err := m.timeUntemplatedIterations(s.Iterations)
		m.stop()
		if err != nil {
			return nil, err
		}
		ideal := s.idealLRIteration(w, s.TaskDur)
		ctrl := iter - ideal
		if ctrl < 0 {
			ctrl = 0
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(w), ms(iter), ms(ideal), ms(ctrl),
		})
	}
	return t, nil
}

// Table1 reproduces Table 1: template installation costs per task,
// against the cost of centrally scheduling a task.
func Table1(s Scale) (*Table, error) {
	workers := s.Workers[len(s.Workers)-1]
	m, err := s.startLR(workers, controller.ModeNimbus)
	if err != nil {
		return nil, err
	}
	defer m.stop()
	// Plain scheduling baseline: one untemplated iteration.
	if _, err := m.timeUntemplatedIterations(1); err != nil {
		return nil, err
	}
	sched := liveSchedOf(m.c.Controller)

	// Recorded install.
	if err := m.j.InstallTemplates(); err != nil {
		return nil, err
	}
	if err := m.j.D.Barrier(); err != nil {
		return nil, err
	}
	tasks := 0
	m.c.Controller.Do(func() {
		for _, name := range []string{lr.OptimizeBlock, lr.EstimateBlock} {
			if t := m.c.Controller.TemplateByName(name); t != nil {
				tasks += t.TaskCount
			}
		}
	})
	// Controller-template construction now runs off the event loop:
	// RecordNanos covers on-loop stage capture, BuildNanos the background
	// assignment build.
	record := perTask(m.c.Controller.Stats.RecordNanos.Load()+
		m.c.Controller.Stats.BuildNanos.Load(), tasks)
	finalize := perTask(m.c.Controller.Stats.FinalizeNanos.Load(), tasks)
	var wInstall uint64
	for _, w := range m.c.Workers {
		wInstall += w.Stats.InstallNanos.Load()
	}
	// Scheduled one at a time, each untemplated task's paper-modelled cost
	// is NimbusPerTask itself; the templated rows schedule none.
	templated := func(name string, d time.Duration) []string { return []string{name, us(d), us(d)} }
	t := &Table{
		ID:      "table1",
		Title:   "Template installation is fast compared to scheduling (per-task costs)",
		Columns: []string{"operation", "measured(us)", "paper-modelled(us)"},
		Rows: [][]string{
			templated("Installing controller template", record),
			templated("Installing worker template on controller", finalize),
			templated("Installing worker template on worker", perTask(wInstall, tasks)),
			{"Nimbus schedule task (no templates)", us(perTask(sched.nanos, int(sched.tasks))), us(s.NimbusPerTask)},
			{"Spark schedule task (paper-modelled)", "-", us(s.SparkPerTask)},
		},
		Notes: []string{fmt.Sprintf("%d tasks across %d workers", tasks, workers), s.modelledNote()},
	}
	return t, nil
}

// Table2 reproduces Table 2: template instantiation costs per task for
// the auto-validated (tight loop) and fully validated (control-flow
// switch) cases, plus the implied scheduling throughput.
func Table2(s Scale) (*Table, error) {
	workers := s.Workers[len(s.Workers)-1]
	m, err := s.startLR(workers, controller.ModeNimbus)
	if err != nil {
		return nil, err
	}
	defer m.stop()
	if err := m.j.InstallTemplates(); err != nil {
		return nil, err
	}
	if err := m.j.D.Barrier(); err != nil {
		return nil, err
	}
	var taskCount int
	m.c.Controller.Do(func() {
		taskCount = m.c.Controller.TemplateByName(lr.OptimizeBlock).TaskCount
	})

	snapshot := func() (ctrlNanos, valNanos, wNanos uint64, insts, wCmds uint64) {
		ctrlNanos = m.c.Controller.Stats.InstantiateNanos.Load()
		valNanos = m.c.Controller.Stats.ValidateNanos.Load()
		insts = m.c.Controller.Stats.Instantiations.Load()
		for _, w := range m.c.Workers {
			wNanos += w.Stats.InstantiateNanos.Load()
			wCmds += w.Stats.InstantiateCmds.Load()
		}
		return
	}

	// Tight loop: repeated instantiation of one block auto-validates.
	const n = 20
	if err := m.j.Optimize(); err != nil { // warm-up (patches)
		return nil, err
	}
	if err := m.j.D.Barrier(); err != nil {
		return nil, err
	}
	c0, _, w0, i0, k0 := snapshot()
	for i := 0; i < n; i++ {
		if err := m.j.Optimize(); err != nil {
			return nil, err
		}
	}
	if err := m.j.D.Barrier(); err != nil {
		return nil, err
	}
	c1, _, w1, i1, k1 := snapshot()
	autoCtrl := perTask(c1-c0, int(i1-i0)*taskCount)
	autoWorker := perTask(w1-w0, int(i1-i0)*taskCount)
	// Per materialized command (tasks and copies), the worker-side cost of
	// the compiled fast path — the per-instance instantiation cost
	// cmd/nimbus-bench reports alongside the paper's per-task figures.
	perCmd := perTask(w1-w0, int(k1-k0))

	// Control-flow switches: alternating blocks force full validation.
	c2, v2, w2, i2, _ := snapshot()
	for i := 0; i < n; i++ {
		if err := m.j.Optimize(); err != nil {
			return nil, err
		}
		if err := m.j.Estimate(); err != nil {
			return nil, err
		}
	}
	if err := m.j.D.Barrier(); err != nil {
		return nil, err
	}
	c3, v3, w3, i3, _ := snapshot()
	valCtrl := perTask((c3-c2)+(v3-v2), int(i3-i2)*taskCount)
	valWorker := perTask(w3-w2, int(i3-i2)*taskCount)

	autoTotal := autoCtrl + autoWorker
	throughput := float64(0)
	if autoTotal > 0 {
		throughput = float64(time.Second) / float64(autoTotal)
	}
	t := &Table{
		ID:      "table2",
		Title:   "Template instantiation is fast (per-task costs)",
		Columns: []string{"operation", "per-task cost(us)"},
		Rows: [][]string{
			{"Instantiate controller template", us(autoCtrl)},
			{"Instantiate worker template (auto-validation)", us(autoWorker)},
			{"Instantiate worker template (validation)", us(valCtrl + valWorker)},
			{"Worker materialize per command (compiled path)", us(perCmd)},
		},
		Notes: []string{
			fmt.Sprintf("implied steady-state scheduling throughput: %.0f tasks/second", throughput),
			"paper: 0.2us + 1.7us auto (>500k tasks/s), 7.5us validated (~130k tasks/s)",
		},
	}

	// Driver iteration RTTs (driver API v2): the v1 Get loop pays one
	// driver↔controller round trip per iteration; a controller-evaluated
	// predicate loop pays one per loop. The probe variable is Put once
	// and never written by the block, so the predicate always holds and
	// the loop runs to its iteration bound.
	probe, err := m.j.D.DefineVariable("table2/rtt-probe", 1)
	if err != nil {
		return nil, err
	}
	if err := m.j.D.PutFloats(probe, 0, []float64{1}); err != nil {
		return nil, err
	}
	const loopIters = 20
	res, err := m.j.D.InstantiateWhile(lr.OptimizeBlock, probe.AtLeast(0, 0.5), loopIters)
	if err != nil {
		return nil, err
	}
	if res.Iters != loopIters {
		return nil, fmt.Errorf("table2: predicate loop ran %d iterations, want %d", res.Iters, loopIters)
	}
	t.Rows = append(t.Rows,
		[]string{"Driver iteration RTTs (v1 Get loop)", "1.00 /iter"},
		[]string{"Driver iteration RTTs (predicate loop)", fmt.Sprintf("%.2f /iter", 1/float64(res.Iters))},
	)
	return t, nil
}

// Table3 reproduces Table 3: edits cost proportional to the change, while
// the static-dataflow baseline pays a full reinstall for any change.
func Table3(s Scale) (*Table, error) {
	workers := s.Workers[len(s.Workers)-1]
	m, err := s.startLR(workers, controller.ModeNimbus)
	if err != nil {
		return nil, err
	}
	defer m.stop()
	if err := m.j.InstallTemplates(); err != nil {
		return nil, err
	}
	if err := m.j.Optimize(); err != nil {
		return nil, err
	}
	if err := m.j.D.Barrier(); err != nil {
		return nil, err
	}

	// Control traffic of the original installation for the bytes column.
	installBytes := m.c.Controller.Stats.BytesToWorkers.Load()

	// steadyBytes measures the control bytes of one instantiation.
	steadyBytes := func() (uint64, error) {
		b0 := m.c.Controller.Stats.BytesToWorkers.Load()
		if err := m.j.Optimize(); err != nil {
			return 0, err
		}
		if err := m.j.D.Barrier(); err != nil {
			return 0, err
		}
		return m.c.Controller.Stats.BytesToWorkers.Load() - b0, nil
	}
	base, err := steadyBytes()
	if err != nil {
		return nil, err
	}
	// migrate measures the controller's edit-generation wall time and the
	// extra control bytes the edit-carrying instantiation ships over a
	// steady-state one — the quantity that scales with the change size.
	migrate := func(parts []int) (time.Duration, uint64, error) {
		var dst ids.WorkerID
		var migErr error
		start := time.Now()
		m.c.Controller.Do(func() {
			actives := m.c.Controller.ActiveWorkers()
			dst = actives[0]
			migErr = m.c.Controller.Migrate(
				[]ids.VariableID{m.j.TData.ID, m.j.Grad.ID}, parts, dst)
		})
		elapsed := time.Since(start)
		if migErr != nil {
			return 0, 0, migErr
		}
		bytes, err := steadyBytes()
		if err != nil {
			return 0, 0, err
		}
		if bytes > base {
			bytes -= base
		} else {
			bytes = 0
		}
		return elapsed, bytes, nil
	}

	oneEdit, oneBytes, err := migrate([]int{1})
	if err != nil {
		return nil, err
	}
	fivePct := s.Tasks / 20
	parts := make([]int, 0, fivePct)
	for p := 2; p < 2+fivePct; p++ {
		parts = append(parts, p%s.Tasks)
	}
	bulk, bulkBytes, err := migrate(parts)
	if err != nil {
		return nil, err
	}

	// Full installation cost: record + off-loop build + finalize + worker
	// installs.
	installNanos := m.c.Controller.Stats.RecordNanos.Load() +
		m.c.Controller.Stats.BuildNanos.Load() +
		m.c.Controller.Stats.FinalizeNanos.Load()
	for _, w := range m.c.Workers {
		installNanos += w.Stats.InstallNanos.Load()
	}

	// Naiad any change: measured full dataflow reinstall.
	rt, err := dataflow.New(dataflow.Config{
		Workers: workers, Slots: s.Slots, Latency: s.Latency,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	place := core.NewStaticPlacement(workers)
	stages := s.lrStageSpecs(place)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	naiadInstall, err := rt.Install(stages, place, dir)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "table3",
		Title:   "Edits cost scales with the change; static dataflow pays full reinstall",
		Columns: []string{"operation", "controller(ms)", "control bytes"},
		Rows: [][]string{
			{"Nimbus single edit (1 task migrated)", ms(oneEdit), fmt.Sprint(oneBytes)},
			{fmt.Sprintf("Nimbus 5%% task migration (%d tasks)", fivePct), ms(bulk), fmt.Sprint(bulkBytes)},
			{"Nimbus complete installation (all tasks)", ms(time.Duration(installNanos)), fmt.Sprint(installBytes)},
			{"Naiad-style any change (full graph reinstall)", ms(naiadInstall), "full graph"},
		},
		Notes: []string{
			"paper: 41us single edit, 35ms for 800 edits, 203ms full install, 230ms Naiad",
			"control bytes shipped scale with the edit; edit generation visits only the moved tasks' cone, but still copies the template's entry arrays (O(template) bytes)",
		},
	}
	return t, nil
}

// Fig7 reproduces Figure 7: LR and k-means iteration times across worker
// counts for the three systems.
func Fig7(s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Iteration time: Spark-opt vs Naiad-opt vs Nimbus (LR and k-means)",
		Columns: []string{"app", "workers", "spark-opt(ms)", "naiad-opt(ms)", "nimbus(ms)", "compute(ms)"},
		Notes: []string{
			"paper shape: Nimbus ~= Naiad and both scale; Spark is 70-100% slower at the low end and 15-23x at 100 workers",
			s.sparkNote(),
		},
	}
	for _, app := range []string{"lr", "kmeans"} {
		taskDur := s.TaskDur
		if app == "kmeans" {
			taskDur = s.TaskDur * 145 / 100
		}
		for _, w := range s.Workers {
			spark, err := s.runCentralIteration(app, w)
			if err != nil {
				return nil, err
			}
			naiad, err := s.runDataflowIteration(app, w)
			if err != nil {
				return nil, err
			}
			nimbus, err := s.runNimbusIteration(app, w)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				app, fmt.Sprint(w), ms(spark), ms(naiad), ms(nimbus),
				ms(s.idealLRIteration(w, taskDur)),
			})
		}
	}
	return t, nil
}

func (s Scale) runNimbusIteration(app string, workers int) (time.Duration, error) {
	if app == "kmeans" {
		return s.runKMeansNimbus(workers)
	}
	m, err := s.startLR(workers, controller.ModeNimbus)
	if err != nil {
		return 0, err
	}
	defer m.stop()
	return m.timeTemplatedIterations(s.Iterations)
}

func (s Scale) runCentralIteration(app string, workers int) (time.Duration, error) {
	if app == "kmeans" {
		return s.runKMeansCentral(workers)
	}
	m, err := s.startLR(workers, controller.ModeCentral)
	if err != nil {
		return 0, err
	}
	defer m.stop()
	return m.timeUntemplatedIterations(s.Iterations)
}

func (s Scale) runDataflowIteration(app string, workers int) (time.Duration, error) {
	rt, err := dataflow.New(dataflow.Config{
		Workers: workers, Slots: s.Slots, Latency: s.Latency,
	})
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	place := core.NewStaticPlacement(workers)
	scale := s
	if app == "kmeans" {
		scale.TaskDur = s.TaskDur * 145 / 100
	}
	stages := scale.lrStageSpecs(place)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	if _, err := rt.Install(stages, place, dir); err != nil {
		return 0, err
	}
	if _, err := rt.RunIteration(); err != nil { // warm-up
		return 0, err
	}
	var total time.Duration
	for i := 0; i < s.Iterations; i++ {
		d, err := rt.RunIteration()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total / time.Duration(s.Iterations), nil
}

func (s Scale) runKMeansNimbus(workers int) (time.Duration, error) {
	c, err := s.nimbusCluster(workers, controller.ModeNimbus)
	if err != nil {
		return 0, err
	}
	defer c.Stop()
	d, err := c.Driver("bench")
	if err != nil {
		return 0, err
	}
	j, err := kmeans.Setup(d, s.kmConfig())
	if err != nil {
		return 0, err
	}
	if err := j.InstallTemplate(); err != nil {
		return 0, err
	}
	if err := j.Iterate(); err != nil { // warm-up
		return 0, err
	}
	if err := d.Barrier(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < s.Iterations; i++ {
		if err := j.Iterate(); err != nil {
			return 0, err
		}
	}
	if err := d.Barrier(); err != nil {
		return 0, err
	}
	return time.Since(start) / time.Duration(s.Iterations), nil
}

func (s Scale) runKMeansCentral(workers int) (time.Duration, error) {
	c, err := s.nimbusCluster(workers, controller.ModeCentral)
	if err != nil {
		return 0, err
	}
	defer c.Stop()
	d, err := c.Driver("bench")
	if err != nil {
		return 0, err
	}
	j, err := kmeans.Setup(d, s.kmConfig())
	if err != nil {
		return 0, err
	}
	if err := j.SubmitIterationStages(); err != nil { // warm-up
		return 0, err
	}
	if err := d.Barrier(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < s.Iterations; i++ {
		if err := j.SubmitIterationStages(); err != nil {
			return 0, err
		}
	}
	if err := d.Barrier(); err != nil {
		return 0, err
	}
	return time.Since(start) / time.Duration(s.Iterations), nil
}

// Fig8 reproduces Figure 8: task throughput of Nimbus vs the central
// baseline as workers increase. The central dispatcher saturates; Nimbus
// grows with the parallelism the job demands.
func Fig8(s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Task throughput vs workers (tasks/second)",
		Columns: []string{"workers", "spark-opt", "nimbus"},
		Notes: []string{
			"paper shape: Spark saturates ~6k tasks/s; Nimbus reaches 128k tasks/s at 100 workers",
			s.sparkNote(),
		},
	}
	tasksPerIter := s.Tasks + s.Tasks/s.ReduceFan + 1
	for _, w := range s.Workers {
		mc, err := s.startLR(w, controller.ModeCentral)
		if err != nil {
			return nil, err
		}
		citer, err := mc.timeUntemplatedIterations(s.Iterations)
		mc.stop()
		if err != nil {
			return nil, err
		}
		mn, err := s.startLR(w, controller.ModeNimbus)
		if err != nil {
			return nil, err
		}
		niter, err := mn.timeTemplatedIterations(s.Iterations)
		mn.stop()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(w),
			fmt.Sprintf("%.0f", float64(tasksPerIter)/citer.Seconds()),
			fmt.Sprintf("%.0f", float64(tasksPerIter)/niter.Seconds()),
		})
	}
	return t, nil
}

// Fig9 reproduces Figure 9: the adaptation timeline — templates manually
// disabled, then installed, then half the workers are revoked and later
// returned.
func Fig9(s Scale) (*Table, error) {
	workers := s.Workers[len(s.Workers)-1]
	m, err := s.startLR(workers, controller.ModeNimbus)
	if err != nil {
		return nil, err
	}
	defer m.stop()
	t := &Table{
		ID:      "fig9",
		Title:   "Dynamic adaptation timeline (per-iteration times)",
		Columns: []string{"iteration", "time(ms)", "paper-modelled(ms)", "event"},
		Notes: []string{
			"paper shape: slow without templates; fast after install; doubled compute on half the workers; revalidation spike on restore",
			s.modelledNote(),
		},
	}
	iterate := func(idx int, f func() error, event string) error {
		sched := liveSchedOf(m.c.Controller)
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		if err := m.j.D.Barrier(); err != nil {
			return err
		}
		took := time.Since(start)
		modelled := s.paperModelled(took, sched, liveSchedOf(m.c.Controller))
		t.Rows = append(t.Rows, []string{fmt.Sprint(idx), ms(took), ms(modelled), event})
		return nil
	}
	idx := 1
	// Iterations 1-4: templates disabled (per-stage scheduling).
	for i := 0; i < 4; i++ {
		ev := ""
		if i == 0 {
			ev = "templates disabled"
		}
		if err := iterate(idx, m.j.SubmitOptimizeStages, ev); err != nil {
			return nil, err
		}
		idx++
	}
	// Iteration 5: recording (executes once while installing).
	if err := iterate(idx, func() error {
		if err := m.j.D.BeginTemplate(lr.OptimizeBlock); err != nil {
			return err
		}
		if err := m.j.SubmitOptimizeStages(); err != nil {
			return err
		}
		return m.j.D.EndTemplate(lr.OptimizeBlock)
	}, "installing templates"); err != nil {
		return nil, err
	}
	idx++
	// Iterations 6-9: instantiation.
	for i := 0; i < 4; i++ {
		if err := iterate(idx, m.j.Optimize, ""); err != nil {
			return nil, err
		}
		idx++
	}
	// Revoke half the workers.
	var all []ids.WorkerID
	m.c.Controller.Do(func() { all = m.c.Controller.ActiveWorkers() })
	var resErr error
	m.c.Controller.Do(func() { resErr = m.c.Controller.SetActive(all[:len(all)/2]) })
	if resErr != nil {
		return nil, resErr
	}
	for i := 0; i < 4; i++ {
		ev := ""
		if i == 0 {
			ev = fmt.Sprintf("resource manager revokes %d workers", len(all)-len(all)/2)
		}
		if err := iterate(idx, m.j.Optimize, ev); err != nil {
			return nil, err
		}
		idx++
	}
	// Restore all workers: cached templates revalidate.
	m.c.Controller.Do(func() { resErr = m.c.Controller.SetActive(all) })
	if resErr != nil {
		return nil, resErr
	}
	for i := 0; i < 4; i++ {
		ev := ""
		if i == 0 {
			ev = "workers restored; cached templates revalidated"
		}
		if err := iterate(idx, m.j.Optimize, ev); err != nil {
			return nil, err
		}
		idx++
	}
	return t, nil
}

// Fig10 reproduces Figure 10: migrating 5% of tasks every 5 iterations.
// Nimbus pays per-edit costs; the static-dataflow baseline reinstalls the
// whole graph each time.
func Fig10(s Scale) (*Table, error) {
	workers := s.Workers[len(s.Workers)-1]
	const iters = 20
	t := &Table{
		ID:      "fig10",
		Title:   "Task migration every 5 iterations: cumulative time (s)",
		Columns: []string{"iteration", "nimbus(s)", "nimbus-mig(ms)", "naiad-opt(s)", "naiad-reinstall(ms)"},
		Notes: []string{
			"paper shape: Nimbus's edits are negligible; Naiad pays a full reinstall per migration and finishes ~2x slower",
			"the *-mig/-reinstall columns isolate the per-migration control cost; the reinstall grows with graph size (run -scale paper)",
		},
	}

	// Nimbus run.
	m, err := s.startLR(workers, controller.ModeNimbus)
	if err != nil {
		return nil, err
	}
	if err := m.j.InstallTemplates(); err != nil {
		m.stop()
		return nil, err
	}
	if err := m.j.Optimize(); err != nil {
		m.stop()
		return nil, err
	}
	if err := m.j.D.Barrier(); err != nil {
		m.stop()
		return nil, err
	}
	fivePct := s.Tasks / 20
	nimbusCum := make([]time.Duration, 0, iters)
	nimbusMig := make([]time.Duration, iters)
	var elapsed time.Duration
	for i := 1; i <= iters; i++ {
		start := time.Now()
		if i%5 == 0 {
			migStart := time.Now()
			parts := make([]int, 0, fivePct)
			for p := 0; p < fivePct; p++ {
				parts = append(parts, (i*7+p)%s.Tasks)
			}
			var dst ids.WorkerID
			var migErr error
			m.c.Controller.Do(func() {
				actives := m.c.Controller.ActiveWorkers()
				dst = actives[i%len(actives)]
				migErr = m.c.Controller.Migrate(
					[]ids.VariableID{m.j.TData.ID, m.j.Grad.ID}, parts, dst)
			})
			if migErr != nil {
				m.stop()
				return nil, migErr
			}
			nimbusMig[i-1] = time.Since(migStart)
		}
		if err := m.j.Optimize(); err != nil {
			m.stop()
			return nil, err
		}
		if err := m.j.D.Barrier(); err != nil {
			m.stop()
			return nil, err
		}
		elapsed += time.Since(start)
		nimbusCum = append(nimbusCum, elapsed)
	}
	m.stop()

	// Dataflow run: any migration = full reinstall.
	rt, err := dataflow.New(dataflow.Config{
		Workers: workers, Slots: s.Slots, Latency: s.Latency,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	place := core.NewStaticPlacement(workers)
	stages := s.lrStageSpecs(place)
	var alloc ids.ObjectIDs
	dir := flow.NewDirectory(&alloc)
	if _, err := rt.Install(stages, place, dir); err != nil {
		return nil, err
	}
	naiadCum := make([]time.Duration, 0, iters)
	naiadRe := make([]time.Duration, iters)
	elapsed = 0
	for i := 1; i <= iters; i++ {
		start := time.Now()
		if i%5 == 0 {
			// The schedule change invalidates the graph: full reinstall
			// (a fresh directory models the new object placement).
			place.Reassign(1, i%s.Tasks, ids.WorkerID(1+i%workers))
			dir2 := flow.NewDirectory(&alloc)
			d, err := rt.Install(stages, place, dir2)
			if err != nil {
				return nil, err
			}
			naiadRe[i-1] = d
		}
		if _, err := rt.RunIteration(); err != nil {
			return nil, err
		}
		elapsed += time.Since(start)
		naiadCum = append(naiadCum, elapsed)
	}
	for i := 0; i < iters; i++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i + 1),
			fmt.Sprintf("%.3f", nimbusCum[i].Seconds()),
			ms(nimbusMig[i]),
			fmt.Sprintf("%.3f", naiadCum[i].Seconds()),
			ms(naiadRe[i]),
		})
	}
	return t, nil
}

// Fig11 reproduces Figure 11: the water simulation under hand-written
// MPI, Nimbus with templates, and Nimbus without templates.
func Fig11(s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "Water simulation frame time: MPI vs Nimbus vs Nimbus w/o templates",
		Columns: []string{"system", "frame(ms)", "vs MPI"},
		Notes: []string{
			"paper: MPI 31.7s, Nimbus 36.5s (+15%), Nimbus w/o templates 196.8s (+520%)",
			s.modelledNote(),
		},
	}
	// runNimbus returns the measured frame time and its paper-modelled
	// counterpart.
	runNimbus := func(useTemplates bool) (time.Duration, time.Duration, error) {
		reg := fn.NewRegistry()
		water.Register(reg)
		c, err := cluster.Start(cluster.Options{
			Workers: s.WaterWorkers, Slots: s.Slots, Latency: s.Latency,
			Registry: reg,
		})
		if err != nil {
			return 0, 0, err
		}
		defer c.Stop()
		d, err := c.Driver("bench")
		if err != nil {
			return 0, 0, err
		}
		rows := s.WaterParts * 4
		j, err := water.Setup(d, water.Config{
			Rows: rows, Cols: 8, Partitions: s.WaterParts,
			Simulated: true, SimSubsteps: s.WaterSubsteps,
			SimReinit: s.WaterReinit, SimJacobi: s.WaterJacobi,
			GridTaskDuration: s.WaterGridDur, ReduceTaskDuration: s.WaterReduceDur,
		})
		if err != nil {
			return 0, 0, err
		}
		if useTemplates {
			if err := j.InstallTemplates(); err != nil {
				return 0, 0, err
			}
			if err := d.Barrier(); err != nil {
				return 0, 0, err
			}
		}
		sched := liveSchedOf(c.Controller)
		start := time.Now()
		for f := 0; f < s.WaterFrames; f++ {
			if useTemplates {
				if _, err := j.RunFrame(f + 1); err != nil {
					return 0, 0, err
				}
			} else {
				// Templates off: every stage is submitted and scheduled
				// afresh, substep by substep.
				for step := 0; step < s.WaterSubsteps; step++ {
					if err := j.SubmitPreStages(); err != nil {
						return 0, 0, err
					}
					for i := 0; i < s.WaterReinit; i++ {
						if err := j.SubmitReinitStages(); err != nil {
							return 0, 0, err
						}
					}
					if err := j.SubmitMidStages(); err != nil {
						return 0, 0, err
					}
					for i := 0; i < s.WaterJacobi; i++ {
						if err := j.SubmitJacobiStages(); err != nil {
							return 0, 0, err
						}
					}
					if err := j.SubmitPostStages(); err != nil {
						return 0, 0, err
					}
				}
			}
		}
		if err := d.Barrier(); err != nil {
			return 0, 0, err
		}
		took := time.Since(start)
		modelled := s.paperModelled(took, sched, liveSchedOf(c.Controller))
		frames := time.Duration(s.WaterFrames)
		return took / frames, modelled / frames, nil
	}

	comm, err := mpi.NewComm(s.WaterWorkers, s.Latency)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, err = mpi.RunWaterSubsteps(comm, mpi.WaterProfile{
		StripsPerRank: s.WaterParts / s.WaterWorkers, Slots: s.Slots,
		GridTaskDuration: s.WaterGridDur, ReduceTaskDuration: s.WaterReduceDur,
		Substeps:    s.WaterSubsteps * s.WaterFrames,
		ReinitIters: s.WaterReinit, JacobiIters: s.WaterJacobi,
	})
	comm.Close()
	if err != nil {
		return nil, err
	}
	mpiFrame := time.Since(start) / time.Duration(s.WaterFrames)

	withT, _, err := runNimbus(true)
	if err != nil {
		return nil, err
	}
	withoutT, withoutModelled, err := runNimbus(false)
	if err != nil {
		return nil, err
	}
	rel := func(d time.Duration) string {
		return fmt.Sprintf("%+.0f%%", 100*(d.Seconds()/mpiFrame.Seconds()-1))
	}
	t.Rows = [][]string{
		{"MPI (hand-tuned, static)", ms(mpiFrame), "+0%"},
		{"Nimbus with templates", ms(withT), rel(withT)},
		{"Nimbus w/o templates", ms(withoutT), rel(withoutT)},
		{"Nimbus w/o templates (paper-modelled)", ms(withoutModelled), rel(withoutModelled)},
	}
	return t, nil
}

// Shuffle measures the streaming data plane: a grouped stage pulls every
// partition to one worker, so each remote partition crosses a
// worker→worker link as a chunked, credit-controlled transfer. Configs
// vary chunk size and force receiver spill with a tight receive budget;
// each row reports the shuffle time and the per-link goodput.
func Shuffle(s Scale) (*Table, error) {
	t := &Table{
		ID:      "shuffle",
		Title:   "Streaming data plane: shuffle time and per-link goodput",
		Columns: []string{"config", "moved(MiB)", "shuffle(ms)", "GB/s/link", "chunks", "spills"},
		Notes: []string{
			fmt.Sprintf("%d partitions x %d MiB over %d workers; one grouped task pulls all partitions",
				s.ShuffleParts, s.ShufflePartBytes>>20, s.ShuffleWorkers),
			"GB/s/link divides cross-worker bytes by shuffle time and inbound links (workers-1)",
			"spill rows bound receiver memory at a quarter partition, forcing reassembly through disk",
		},
	}
	configs := []struct {
		name   string
		chunk  int
		budget int64
	}{
		{"chunk=256KiB", 256 << 10, 0},
		{"chunk=64KiB", 64 << 10, 0},
		{"chunk=256KiB spill", 256 << 10, int64(s.ShufflePartBytes) / 4},
	}
	for _, cfg := range configs {
		moved, elapsed, chunks, spills, err := s.runShuffle(cfg.chunk, cfg.budget)
		if err != nil {
			return nil, fmt.Errorf("shuffle %s: %w", cfg.name, err)
		}
		links := s.ShuffleWorkers - 1
		if links < 1 {
			links = 1
		}
		gbPerLink := float64(moved) / elapsed.Seconds() / float64(links) / 1e9
		t.Rows = append(t.Rows, []string{
			cfg.name,
			fmt.Sprintf("%.0f", float64(moved)/(1<<20)),
			ms(elapsed),
			fmt.Sprintf("%.2f", gbPerLink),
			fmt.Sprint(chunks),
			fmt.Sprint(spills),
		})
	}
	return t, nil
}

// runShuffle runs one shuffle configuration and returns the cross-worker
// bytes moved, wall time, chunks received, and receiver spills.
func (s Scale) runShuffle(chunk int, budget int64) (uint64, time.Duration, uint64, uint64, error) {
	c, err := cluster.Start(cluster.Options{
		Workers: s.ShuffleWorkers, Slots: s.Slots, Latency: s.Latency,
		Registry:  fn.NewRegistry(),
		ChunkSize: chunk, RecvBudget: budget,
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer c.Stop()
	d, err := c.Driver("shuffle")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer d.Close()
	x := d.MustVar("x", s.ShuffleParts)
	y := d.MustVar("y", 1)
	data := make([]byte, s.ShufflePartBytes)
	for i := range data {
		data[i] = byte((i*2654435761 + i>>9) >> 7)
	}
	put := func() error {
		for p := 0; p < s.ShuffleParts; p++ {
			if err := d.Put(x, p, data); err != nil {
				return err
			}
		}
		return nil
	}
	shuffle := func() error {
		if err := d.Submit(fn.FuncNop, 1, nil, x.ReadGrouped(), y.WriteShared()); err != nil {
			return err
		}
		return d.Barrier()
	}
	snapshot := func() (xfers, chunks, spills uint64) {
		for _, w := range c.Workers {
			xfers += w.Stats.XfersRecv.Load()
			chunks += w.Stats.ChunksRecv.Load()
			spills += w.Stats.Spills.Load()
		}
		return
	}
	// Warm-up round: first-touch allocation, pool fill, peer dials. Each
	// re-Put bumps every partition's version so the next round moves the
	// data again instead of validating cached copies. The fastest of three
	// measured rounds is reported — single rounds are dominated by
	// scheduler jitter at the 100µs latency model's scale.
	if err := put(); err != nil {
		return 0, 0, 0, 0, err
	}
	if err := shuffle(); err != nil {
		return 0, 0, 0, 0, err
	}
	var moved, chunks, spills uint64
	var best time.Duration
	for round := 0; round < 3; round++ {
		if err := put(); err != nil {
			return 0, 0, 0, 0, err
		}
		x0, c0, s0 := snapshot()
		start := time.Now()
		if err := shuffle(); err != nil {
			return 0, 0, 0, 0, err
		}
		elapsed := time.Since(start)
		x1, c1, s1 := snapshot()
		if best == 0 || elapsed < best {
			best = elapsed
			moved = (x1 - x0) * uint64(s.ShufflePartBytes)
			chunks = c1 - c0
			spills = s1 - s0
		}
	}
	return moved, best, chunks, spills, nil
}

// All runs every experiment at the given scale.
func All(s Scale) ([]*Table, error) {
	runners := []func(Scale) (*Table, error){
		Fig1, Table1, Table2, Table3, Fig7, Fig8, Fig9, Fig10, Fig11, Shuffle, FrontDoor,
	}
	var out []*Table
	for _, r := range runners {
		t, err := r(s)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
