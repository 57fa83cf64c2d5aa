package bench

import (
	"testing"

	"nimbus/internal/controller"
	"nimbus/internal/ids"
)

// These tests pin the paper's mechanism as exact counts, beside table 3's
// in table3_count_test.go. Each runs LR at quick scale with 1 ns tasks and
// no link latency, reads controller.Stats and checks no timing. Message and
// frame counts are pinned elsewhere: one frame per worker per steady
// instantiation by TestSteadyStateFanoutOneFramePerWorker (internal/cluster)
// and one driver message per predicate loop by TestLoopOneMessagePerPredicate.

// countScale is quick scale with tasks per iteration set, 1 ns tasks and
// zero latency, so nothing but control traffic differs between runs.
func countScale(tasks int) Scale {
	s := Quick()
	s.Tasks = tasks
	s.TaskDur, s.ReduceDur, s.Latency = 1, 1, 0
	return s
}

// iterBytes runs n iterations of iterate, each closed by a barrier, and
// returns the controller's control bytes to workers per iteration.
func iterBytes(t *testing.T, m *measuredJob, n int, iterate func() error) float64 {
	t.Helper()
	stats := &m.c.Controller.Stats
	before := stats.BytesToWorkers.Load()
	for i := 0; i < n; i++ {
		if err := iterate(); err != nil {
			t.Fatal(err)
		}
		if err := m.j.D.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	return float64(stats.BytesToWorkers.Load()-before) / float64(n)
}

// TestTemplatedIterationBytesPerWorkerFlat: a steady templated iteration
// costs each worker one small instantiation message whatever the
// template's size: at most 16 control bytes per worker per iteration at
// both 160 tasks on 4 workers and 3 200 tasks on 16.
func TestTemplatedIterationBytesPerWorkerFlat(t *testing.T) {
	for _, tc := range []struct{ tasks, workers int }{{160, 4}, {3200, 16}} {
		m, err := countScale(tc.tasks).startLR(tc.workers, controller.ModeNimbus)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.j.InstallTemplates(); err != nil {
			m.stop()
			t.Fatal(err)
		}
		// Warm-up: the first instantiation validates and patches, the
		// second auto-validates.
		iterBytes(t, m, 2, m.j.Optimize)
		perWorker := iterBytes(t, m, 5, m.j.Optimize) / float64(tc.workers)
		m.stop()
		t.Logf("%d tasks on %d workers: %.1f control bytes per worker per iteration", tc.tasks, tc.workers, perWorker)
		if perWorker > 16 {
			t.Errorf("%d tasks on %d workers: %.1f control bytes per worker per iteration, want at most 16",
				tc.tasks, tc.workers, perWorker)
		}
	}
}

// TestUntemplatedIterationBytesPerTask: with templates off every task is
// scheduled and shipped afresh, so an iteration costs at least 50 control
// bytes per task.
func TestUntemplatedIterationBytesPerTask(t *testing.T) {
	const tasks, workers = 160, 4
	m, err := countScale(tasks).startLR(workers, controller.ModeNimbus)
	if err != nil {
		t.Fatal(err)
	}
	defer m.stop()
	iterBytes(t, m, 1, m.j.SubmitOptimizeStages)
	perTask := iterBytes(t, m, 3, m.j.SubmitOptimizeStages) / tasks
	t.Logf("untemplated: %.1f control bytes per task", perTask)
	if perTask < 50 {
		t.Errorf("untemplated iteration shipped %.1f control bytes per task, want at least 50", perTask)
	}
}

// TestRestoredWorkersRevalidateCachedTemplates pins figure 9's restore:
// when revoked workers return, the templates cached for the full worker
// set are reused, not rebuilt; the first instantiation validates them and
// the next auto-validates.
func TestRestoredWorkersRevalidateCachedTemplates(t *testing.T) {
	const workers = 4
	m, err := countScale(160).startLR(workers, controller.ModeNimbus)
	if err != nil {
		t.Fatal(err)
	}
	defer m.stop()
	ctrl := m.c.Controller
	if err := m.j.InstallTemplates(); err != nil {
		t.Fatal(err)
	}
	iterBytes(t, m, 2, m.j.Optimize)
	var all []ids.WorkerID
	ctrl.Do(func() { all = ctrl.ActiveWorkers() })
	setActive := func(ws []ids.WorkerID) {
		t.Helper()
		var err error
		ctrl.Do(func() { err = ctrl.SetActive(ws) })
		if err != nil {
			t.Fatal(err)
		}
	}
	setActive(all[:workers/2])
	iterBytes(t, m, 2, m.j.Optimize)

	stats := &ctrl.Stats
	built := stats.TemplatesBuilt.Load()
	setActive(all)
	step := func(what string, wantValidations, wantAuto uint64) {
		t.Helper()
		v, a := stats.Validations.Load(), stats.AutoValidations.Load()
		iterBytes(t, m, 1, m.j.Optimize)
		if dv, da := stats.Validations.Load()-v, stats.AutoValidations.Load()-a; dv != wantValidations || da != wantAuto {
			t.Errorf("%s: %d validations and %d auto-validations, want %d and %d", what, dv, da, wantValidations, wantAuto)
		}
	}
	step("first instantiation after the restore", 1, 0)
	step("second instantiation after the restore", 0, 1)
	if got := stats.TemplatesBuilt.Load() - built; got != 0 {
		t.Errorf("the restore built %d templates, want 0: the full worker set's templates are cached", got)
	}
}
