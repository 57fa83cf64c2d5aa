package worker

import (
	"testing"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// jobRecvTemplate is a one-entry CopyRecv template install scoped to a
// job: instantiating it stalls the instance on its payload, holding an
// arena in flight.
func jobRecvTemplate(job ids.JobID, id ids.TemplateID, obj ids.ObjectID) *proto.InstallTemplate {
	return &proto.InstallTemplate{
		Job: job, Template: id, Name: "recv",
		Entries: []command.TemplateEntry{{
			Index: 0, Kind: command.CopyRecv,
			Writes: []ids.ObjectID{obj}, Logical: ids.LogicalID(obj),
			ParamSlot: command.NoParamSlot,
		}},
	}
}

// TestHaltIsJobScoped is the worker-side failure-containment guarantee:
// halting one job (its recovery) flushes only that job's in-flight
// arenas, buffered payloads and barriers. Another job's stalled instance
// survives the halt and completes normally when its payload lands.
func TestHaltIsJobScoped(t *testing.T) {
	b := NewBenchLoop(1)
	defer b.Close()
	// Two jobs, each with a template instance stalled on its payload.
	b.Apply(jobRecvTemplate(1, 7, 11))
	b.Apply(jobRecvTemplate(2, 7, 11)) // same template ID and name: namespaced
	b.Apply(&proto.InstantiateTemplate{Job: 1, Template: 7, Instance: 1, Base: 100})
	b.Apply(&proto.InstantiateTemplate{Job: 2, Template: 7, Instance: 1, Base: 100})
	j1, j2 := b.Job(1), b.Job(2)
	if j1.unfin != 1 || j2.unfin != 1 {
		t.Fatalf("unfin = %d/%d, want 1/1", j1.unfin, j2.unfin)
	}

	// Halt job 1 (its recovery). Job 2's arena must be untouched.
	b.Apply(&proto.Halt{Job: 1, Seq: 1})
	if j1.unfin != 0 || len(j1.liveUnits) != 0 || len(j1.payWait) != 0 {
		t.Fatalf("job 1 not flushed: unfin=%d live=%d wait=%d", j1.unfin, len(j1.liveUnits), len(j1.payWait))
	}
	if j2.unfin != 1 || len(j2.liveUnits) != 1 || len(j2.payWait) != 1 {
		t.Fatalf("halt of job 1 flushed job 2: unfin=%d live=%d wait=%d", j2.unfin, len(j2.liveUnits), len(j2.payWait))
	}

	// Job 2's payload completes its instance; same (job-local) command ID
	// delivered to job 1 lands in a flushed namespace and resurrects
	// nothing.
	b.Apply(&proto.Resume{Job: 1})
	w2payload := &proto.DataPayload{Job: 2, DstCommand: 100, Object: 11, Logical: 11, Version: 3, Data: []byte{2}}
	b.W.handlePayload(inPayload{msg: w2payload})
	if !j2.isDone(100) {
		t.Fatal("job 2 instance did not complete after its payload")
	}
	if o := j2.store.Get(11); o == nil || o.Version != 3 {
		t.Fatalf("job 2 store missing payload: %+v", o)
	}
	b.W.handlePayload(inPayload{msg: &proto.DataPayload{Job: 1, DstCommand: 100, Object: 11, Logical: 11, Version: 9, Data: []byte{1}}})
	if j1.isDone(100) {
		t.Fatal("flushed job 1 command resurrected by late payload")
	}
	if j1.store.Get(11) != nil {
		t.Fatal("late payload installed into halted job 1")
	}
}

// TestJobEndDropsNamespace: JobEnd tears down exactly one job's
// templates, datastore and completion records; other jobs keep theirs.
func TestJobEndDropsNamespace(t *testing.T) {
	b := NewBenchLoop(1)
	defer b.Close()
	for _, job := range []ids.JobID{1, 2} {
		b.Apply(&proto.InstallTemplate{
			Job: job, Template: 3, Name: "blk",
			Entries: []command.TemplateEntry{{
				Index: 0, Kind: command.Create, Writes: []ids.ObjectID{5},
				ParamSlot: command.NoParamSlot, Fixed: []byte{byte(job)},
			}},
		})
		b.Apply(&proto.InstantiateTemplate{Job: job, Template: 3, Instance: 1, Base: 50})
	}
	if got := b.Job(1).store.Get(5).Data[0]; got != 1 {
		t.Fatalf("job 1 object = %d, want 1", got)
	}
	if got := b.Job(2).store.Get(5).Data[0]; got != 2 {
		t.Fatalf("job 2 object = %d, want 2 (namespace cross-talk)", got)
	}
	b.Apply(&proto.JobEnd{Job: 1})
	if b.W.StoreOf(1) != nil {
		t.Fatal("job 1 namespace survived JobEnd")
	}
	if b.W.StoreOf(2) == nil || b.W.StoreOf(2).Get(5) == nil {
		t.Fatal("JobEnd of job 1 dropped job 2's state")
	}
	if got := b.W.Stats.JobsEnded.Load(); got != 1 {
		t.Fatalf("jobs ended = %d, want 1", got)
	}
	// A late data-plane payload for the torn-down job is dropped: it must
	// not resurrect an empty namespace that nothing would ever tear down
	// again (the data plane is not FIFO-ordered behind the JobEnd).
	b.W.handlePayload(inPayload{msg: &proto.DataPayload{Job: 1, DstCommand: 51, Object: 9, Version: 1, Data: []byte{1}}})
	if b.W.StoreOf(1) != nil {
		t.Fatal("late payload resurrected ended job 1")
	}
}

// TestQuotaFairShare: with two jobs contending for the executor pool, the
// round-robin dispatcher throttles a job back to its quota as soon as the
// other wants slots — and the overflow path remains work-conserving when
// only one job has runnable work.
func TestQuotaFairShare(t *testing.T) {
	b := NewBenchLoop(4)
	defer b.Close()
	b.Apply(&proto.JobQuota{Job: 1, Slots: 2})
	b.Apply(&proto.JobQuota{Job: 2, Slots: 2})
	slow := func(job ids.JobID, base ids.CommandID, n int) *proto.SpawnCommands {
		cmds := make([]*command.Command, n)
		for i := range cmds {
			cmds[i] = &command.Command{
				ID: base + ids.CommandID(i), Kind: command.Task,
				Function: fn.FuncSim, Params: fn.SimParams(20 * time.Millisecond),
			}
		}
		return &proto.SpawnCommands{Job: job, Cmds: cmds}
	}
	// Job 1 alone: work-conserving overflow uses all 4 slots despite a
	// quota of 2 (idle slots help no one).
	b.Apply(slow(1, 100, 8))
	if got := b.Job(1).running; got != 4 {
		t.Fatalf("sole job running = %d, want 4 (work-conserving overflow)", got)
	}
	// Job 2 arrives: nothing free yet.
	b.Apply(slow(2, 200, 8))
	if got := b.Job(2).running; got != 0 {
		t.Fatalf("job 2 running = %d with full pool", got)
	}
	// As job 1's tasks drain, the freed slots must go to job 2 (job 1 is
	// over quota), until both sit at their fair share.
	for b.Job(2).running < 2 {
		b.step()
	}
	if got := b.Job(1).running; got > 2 {
		t.Fatalf("job 1 running = %d after contention, want <= quota 2", got)
	}
	if b.W.Stats.QuotaDeferrals.Load() == 0 {
		t.Fatal("no quota deferrals recorded under contention")
	}
	b.Drain()
	if got := b.W.Stats.TasksRun.Load(); got != 16 {
		t.Fatalf("tasks run = %d, want 16", got)
	}
}

// TestQuotaOverflowWorkConserving: quota truncation (e.g. 8 slots over 3
// jobs → share 2 each, sum 6) must not idle the remainder — once every
// runnable job is at quota, free slots are handed out past quota.
func TestQuotaOverflowWorkConserving(t *testing.T) {
	b := NewBenchLoop(8)
	defer b.Close()
	for j := 1; j <= 3; j++ {
		b.Apply(&proto.JobQuota{Job: ids.JobID(j), Slots: 2})
	}
	for j := 1; j <= 3; j++ {
		cmds := make([]*command.Command, 4)
		for i := range cmds {
			cmds[i] = &command.Command{
				ID: ids.CommandID(100*j + i), Kind: command.Task,
				Function: fn.FuncSim, Params: fn.SimParams(20 * time.Millisecond),
			}
		}
		b.Apply(&proto.SpawnCommands{Job: ids.JobID(j), Cmds: cmds})
	}
	if b.W.freeSlots != 0 {
		t.Fatalf("free slots = %d with 12 runnable tasks over 3 jobs, want 0 (work-conserving)", b.W.freeSlots)
	}
	b.Drain()
	if got := b.W.Stats.TasksRun.Load(); got != 12 {
		t.Fatalf("tasks run = %d, want 12", got)
	}
}

// TestInstantiateAllocCeilingFourJobs extends the steady-state allocation
// guard to multi-tenancy: four jobs interleaving 1024-entry instantiates
// must stay under the same per-instantiate ceiling as a single job — the
// per-job namespace lookup and arena pooling add no per-command cost.
func TestInstantiateAllocCeilingFourJobs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector pool instrumentation defeats allocation accounting")
	}
	b := NewBenchLoop(1)
	defer b.Close()
	const entries = 1024
	const jobs = 4
	for j := 1; j <= jobs; j++ {
		msg := destroyTemplate(7, entries)
		msg.Job = ids.JobID(j)
		b.Apply(msg)
	}
	const span = uint64(entries)
	insts := make([]uint64, jobs+1)
	next := 0
	run := func() {
		job := ids.JobID(next%jobs + 1)
		next++
		insts[job]++
		i := insts[job]
		b.Apply(&proto.InstantiateTemplate{
			Job: job, Template: 7, Instance: i, Base: ids.CommandID(1 + i*span),
			DoneWatermark: ids.CommandID(1 + i*span),
		})
	}
	for i := 0; i < 16*jobs; i++ { // warm pools and ring capacities per job
		run()
	}
	avg := testing.AllocsPerRun(64, run)
	if avg > 16 {
		t.Fatalf("allocs per 1024-entry instantiate across 4 jobs = %.1f, want <= 16", avg)
	}
}
