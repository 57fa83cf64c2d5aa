package worker

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// destroyTemplate builds an n-entry template of inline Destroy commands:
// entry 0 first, the rest depending on it. Destroy of a missing object is
// a no-op, so the whole instance exercises the scheduler — materialize,
// activate, inline cascade, barrier completion — without task goroutines
// or data allocation.
func destroyTemplate(id ids.TemplateID, n int) *proto.InstallTemplate {
	entries := make([]command.TemplateEntry, n)
	for i := range entries {
		entries[i] = command.TemplateEntry{
			Index: int32(i), Kind: command.Destroy,
			Writes:    []ids.ObjectID{ids.ObjectID(i + 1)},
			ParamSlot: command.NoParamSlot,
		}
		if i > 0 {
			entries[i].BeforeIdx = []int32{0}
		}
	}
	return &proto.InstallTemplate{Template: id, Name: "destroy", Entries: entries}
}

// TestInstantiateAllocCeiling is the steady-state guard (analogous to
// proto's TestMarshalSteadyStateZeroAlloc): instantiating and fully
// completing a 1024-entry instance must stay under a small constant
// allocation ceiling — no per-command Command/pcmd allocations, no map
// inserts, pooled arenas and codec buffers. The map-based path allocated
// 2+ objects per command (>2000 allocs per instance at this size).
func TestInstantiateAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector pool instrumentation defeats allocation accounting")
	}
	b := NewBenchLoop(1)
	defer b.Close()
	const entries = 1024
	b.Apply(destroyTemplate(7, entries))
	const span = uint64(entries)
	inst := uint64(0)
	run := func() {
		inst++
		b.Apply(&proto.InstantiateTemplate{
			Template: 7, Instance: inst, Base: ids.CommandID(1 + inst*span),
			DoneWatermark: ids.CommandID(1 + inst*span), // everything before this instance
		})
	}
	for i := 0; i < 16; i++ { // warm pools and ring capacities
		run()
	}
	if got := len(b.Job(0).doneRanges); got > 2 {
		t.Fatalf("done ranges not pruned by watermark: %d", got)
	}
	avg := testing.AllocsPerRun(64, run)
	// Per instance the path may allocate a handful of transient frames
	// (BlockDone transport item, amortized queue growth); 16 leaves slack
	// while still catching any per-command regression (which would cost
	// 1000+).
	if avg > 16 {
		t.Fatalf("allocs per 1024-entry instantiate = %.1f, want <= 16", avg)
	}
}

// refModel mirrors the installed template the way the pre-compilation
// map-based path held it, and materializes instances through
// TemplateEntry.Materialize — the reference semantics the compiled path
// must reproduce.
type refModel struct {
	entries map[int32]*command.TemplateEntry
}

func (r *refModel) applyEdit(e *command.Edit) {
	for _, idx := range e.Remove {
		delete(r.entries, idx)
	}
	for i := range e.Add {
		ne := e.Add[i]
		r.entries[ne.Index] = &ne
	}
}

func (r *refModel) materialize(base ids.CommandID) map[ids.CommandID][]ids.CommandID {
	out := make(map[ids.CommandID][]ids.CommandID, len(r.entries))
	for _, e := range r.entries {
		var c command.Command
		e.Materialize(base, nil, &c)
		out[c.ID] = append([]ids.CommandID(nil), c.Before...)
	}
	return out
}

// recordEntry builds a recording-task entry whose Fixed params carry its
// own global index, so the executed order can be reconstructed.
func recordEntry(idx int32, recID ids.FunctionID, before []int32) command.TemplateEntry {
	return command.TemplateEntry{
		Index: idx, Kind: command.Task, Function: recID,
		ParamSlot: command.NoParamSlot,
		Fixed:     []byte{byte(idx), byte(idx >> 8)},
		BeforeIdx: before,
	}
}

// TestSchedulerEquivalence is the scheduler-level half of the equivalence
// property: across random templates, random persistent edits and advancing
// watermarks, the compiled arena path must execute exactly the command set
// the map-based path would materialize, respect every before edge, and
// keep whole-instance barrier ordering.
func TestSchedulerEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(271828))
	for trial := 0; trial < 25; trial++ {
		reg := fn.NewRegistry()
		var mu sync.Mutex
		var order []int32 // executed entry indexes, in completion order
		recID := fn.FirstAppFunc
		reg.MustRegister(recID, "test/record", func(c *fn.Ctx) error {
			mu.Lock()
			order = append(order, int32(c.Params[0])|int32(c.Params[1])<<8)
			mu.Unlock()
			return nil
		})

		b := NewBenchLoop(1) // one slot: serial execution, total order
		b.W.reg = reg

		// Random DAG template: every entry a recording task with random
		// backward edges.
		n := r.Intn(24) + 2
		entries := make([]command.TemplateEntry, n)
		referenced := map[int32]bool{}
		for i := range entries {
			var before []int32
			for k := 0; k < r.Intn(3) && i > 0; k++ {
				dep := int32(r.Intn(i))
				before = append(before, dep)
				referenced[dep] = true
			}
			entries[i] = recordEntry(int32(i), recID, before)
		}
		ref := &refModel{entries: make(map[int32]*command.TemplateEntry)}
		for i := range entries {
			e := entries[i]
			ref.entries[e.Index] = &e
		}
		b.Apply(&proto.InstallTemplate{Template: 1, Name: "rand", Entries: entries})

		const instances = 5
		span := uint64(n + instances + 1) // room for edit-added indexes
		type instRef struct {
			base ids.CommandID
			want map[ids.CommandID][]ids.CommandID
		}
		var wants []instRef
		nextIdx := int32(n)
		for k := 0; k < instances; k++ {
			base := ids.CommandID(1 + uint64(k)*span)
			msg := &proto.InstantiateTemplate{
				Template: 1, Instance: uint64(k + 1), Base: base,
			}
			if k > 0 {
				msg.DoneWatermark = base // prune everything before this instance
			}
			// Random persistent edit on some instances: remove an
			// unreferenced entry, add one depending on a survivor.
			if k > 0 && r.Intn(2) == 0 {
				var victims []int32
				for idx := range ref.entries {
					if !referenced[idx] {
						victims = append(victims, idx)
					}
				}
				if len(victims) > 1 {
					sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
					victim := victims[r.Intn(len(victims))]
					var survivors []int32
					for idx := range ref.entries {
						if idx != victim {
							survivors = append(survivors, idx)
						}
					}
					sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })
					dep := survivors[r.Intn(len(survivors))]
					referenced[dep] = true
					ed := command.Edit{
						Remove: []int32{victim},
						Add:    []command.TemplateEntry{recordEntry(nextIdx, recID, []int32{dep})},
					}
					nextIdx++
					msg.Edits = []command.Edit{ed}
					ref.applyEdit(&ed)
				}
			}
			wants = append(wants, instRef{base: base, want: ref.materialize(base)})
			b.Apply(msg)
			b.Drain()
		}

		// Same command set, instance by instance, in barrier order.
		mu.Lock()
		got := append([]int32(nil), order...)
		mu.Unlock()
		off := 0
		for k, w := range wants {
			if len(got) < off+len(w.want) {
				t.Fatalf("trial %d: executed %d commands, want >= %d", trial, len(got), off+len(w.want))
			}
			window := got[off : off+len(w.want)]
			pos := make(map[ids.CommandID]int, len(window))
			for j, idx := range window {
				id := w.base + ids.CommandID(idx)
				if _, dup := pos[id]; dup {
					t.Fatalf("trial %d inst %d: command %s executed twice", trial, k, id)
				}
				pos[id] = off + j
			}
			for id, before := range w.want {
				p, ok := pos[id]
				if !ok {
					t.Fatalf("trial %d inst %d: command %s missing or outside its barrier window", trial, k, id)
				}
				for _, dep := range before {
					dp, ok := pos[dep]
					if !ok {
						t.Fatalf("trial %d inst %d: dep %s of %s not in window", trial, k, dep, id)
					}
					if dp >= p {
						t.Fatalf("trial %d inst %d: %s (at %d) ran before its dep %s (at %d)",
							trial, k, id, p, dep, dp)
					}
				}
			}
			off += len(w.want)
		}
		if off != len(got) {
			t.Fatalf("trial %d: executed %d commands, want %d", trial, len(got), off)
		}
		b.Close()
	}
}

// TestBarrierIgnoresLateArrivals pins the prefix-counter semantics the
// old per-unit scan implemented: completions of commands that arrived
// *after* a queued barrier unit must not count toward its barrier, even
// when they finish first.
func TestBarrierIgnoresLateArrivals(t *testing.T) {
	b := NewBenchLoop(1)
	defer b.Close()
	// An unrunnable task holds the arrival watermark down.
	b.Apply(&proto.SpawnCommands{Cmds: []*command.Command{
		{ID: 10, Kind: command.Task, Function: fn.FuncNop, Before: []ids.CommandID{9999}},
	}})
	b.Apply(destroyTemplate(3, 4))
	b.Apply(&proto.InstantiateTemplate{Template: 3, Instance: 1, Base: 100})
	if len(b.Job(0).units) != 1 {
		t.Fatalf("queued units = %d, want 1", len(b.Job(0).units))
	}
	// Late non-barrier commands complete immediately — and must not
	// unblock the queued instance.
	for i := 0; i < 8; i++ {
		b.Apply(&proto.SpawnCommands{Cmds: []*command.Command{
			{ID: ids.CommandID(20 + i), Kind: command.Destroy, Writes: []ids.ObjectID{1}},
		}})
	}
	if len(b.Job(0).units) != 1 || b.Job(0).units[0].activated {
		t.Fatal("barrier unit activated by late arrivals")
	}
	// Satisfy the stalled task's dependency; the cascade must activate
	// and complete the instance.
	b.Apply(&proto.SpawnCommands{Cmds: []*command.Command{
		{ID: 9999, Kind: command.Destroy, Writes: []ids.ObjectID{2}},
	}})
	b.Drain()
	if len(b.Job(0).units) != 0 {
		t.Fatalf("queued units = %d after drain", len(b.Job(0).units))
	}
	if !b.Job(0).isDone(100) || !b.Job(0).isDone(103) {
		t.Fatal("instance commands not recorded done")
	}
}

// TestCrossUnitWaitOnInstanceCommand exercises the waiter-map fallback for
// dependencies on live arena commands: a spawned command depending on an
// in-flight instance's receive must wake when the payload lands, and a
// dependency on an already-completed instance must resolve through the
// done-range lookup.
func TestCrossUnitWaitOnInstanceCommand(t *testing.T) {
	b := NewBenchLoop(1)
	defer b.Close()
	b.Apply(&proto.InstallTemplate{
		Template: 5, Name: "recv",
		Entries: []command.TemplateEntry{{
			Index: 0, Kind: command.CopyRecv,
			Writes: []ids.ObjectID{41}, Logical: 41, ParamSlot: command.NoParamSlot,
		}},
	})
	b.Apply(&proto.InstantiateTemplate{Template: 5, Instance: 1, Base: 500})
	// The instance stalls on its payload; a non-barrier command depending
	// on the receive registers in the waiter map.
	b.Apply(&proto.SpawnCommands{Cmds: []*command.Command{
		{ID: 900, Kind: command.Destroy, Writes: []ids.ObjectID{41}, Before: []ids.CommandID{500}},
	}})
	if b.Job(0).isDone(900) {
		t.Fatal("dependent ran before the receive completed")
	}
	b.W.handlePayload(inPayload{msg: &proto.DataPayload{DstCommand: 500, Object: 41, Logical: 41, Version: 3, Data: []byte{9}}})
	if !b.Job(0).isDone(900) {
		t.Fatal("dependent did not wake on instance completion")
	}
	// A later dependency on the completed instance resolves through the
	// done range (the arena is already recycled).
	b.Apply(&proto.SpawnCommands{Cmds: []*command.Command{
		{ID: 901, Kind: command.Destroy, Writes: []ids.ObjectID{41}, Before: []ids.CommandID{500}},
	}})
	if !b.Job(0).isDone(901) {
		t.Fatal("dependency on completed instance did not resolve")
	}
}

// TestHostilePayloadOrdering covers the data-plane races around buffered
// payloads and the watermark (paper's push-model data plane: payloads may
// arrive in any order relative to control).
func TestHostilePayloadOrdering(t *testing.T) {
	recvTemplate := func(id ids.TemplateID, obj ids.ObjectID) *proto.InstallTemplate {
		return &proto.InstallTemplate{
			Template: id, Name: fmt.Sprintf("recv%d", id),
			Entries: []command.TemplateEntry{{
				Index: 0, Kind: command.CopyRecv,
				Writes: []ids.ObjectID{obj}, Logical: ids.LogicalID(obj),
				ParamSlot: command.NoParamSlot,
			}},
		}
	}

	t.Run("payload-before-command", func(t *testing.T) {
		b := NewBenchLoop(1)
		defer b.Close()
		b.Apply(recvTemplate(1, 11))
		b.W.handlePayload(inPayload{msg: &proto.DataPayload{DstCommand: 100, Object: 11, Version: 7, Data: []byte{1}}})
		b.Apply(&proto.InstantiateTemplate{Template: 1, Instance: 1, Base: 100})
		o := b.Job(0).store.Get(11)
		if o == nil || o.Version != 7 {
			t.Fatalf("buffered payload not consumed: %+v", o)
		}
		if len(b.Job(0).payloads) != 0 || len(b.Job(0).payWait) != 0 {
			t.Fatal("payload bookkeeping leaked")
		}
	})

	t.Run("command-before-payload", func(t *testing.T) {
		b := NewBenchLoop(1)
		defer b.Close()
		b.Apply(recvTemplate(1, 12))
		b.Apply(&proto.InstantiateTemplate{Template: 1, Instance: 1, Base: 200})
		if b.Job(0).store.Get(12) != nil {
			t.Fatal("receive ran without payload")
		}
		b.W.handlePayload(inPayload{msg: &proto.DataPayload{DstCommand: 200, Object: 12, Version: 9, Data: []byte{2}}})
		o := b.Job(0).store.Get(12)
		if o == nil || o.Version != 9 {
			t.Fatalf("late payload not installed: %+v", o)
		}
	})

	t.Run("duplicate-payload-no-resurrect", func(t *testing.T) {
		b := NewBenchLoop(1)
		defer b.Close()
		b.Apply(recvTemplate(1, 13))
		b.Apply(&proto.InstantiateTemplate{Template: 1, Instance: 1, Base: 300})
		b.W.handlePayload(inPayload{msg: &proto.DataPayload{DstCommand: 300, Object: 13, Version: 5, Data: []byte{3}}})
		if o := b.Job(0).store.Get(13); o == nil || o.Version != 5 {
			t.Fatalf("first payload not installed: %+v", o)
		}
		// Duplicate for the completed receive: buffers, must not
		// re-install.
		b.W.handlePayload(inPayload{msg: &proto.DataPayload{DstCommand: 300, Object: 13, Version: 99, Data: []byte{9}}})
		if o := b.Job(0).store.Get(13); o.Version != 5 {
			t.Fatalf("duplicate payload resurrected completed receive: version %d", o.Version)
		}
		// The watermark retires both the completion record and the stale
		// buffer.
		b.Apply(&proto.InstantiateTemplate{Template: 1, Instance: 2, Base: 400, DoneWatermark: 301})
		if len(b.Job(0).payloads) != 0 {
			t.Fatalf("stale payload survived the watermark: %d buffered", len(b.Job(0).payloads))
		}
		if !b.Job(0).isDone(300) { // below doneLow now
			t.Fatal("watermark lost the completion")
		}
		if o := b.Job(0).store.Get(13); o.Version != 5 {
			t.Fatalf("pruning re-ran the receive: version %d", o.Version)
		}
		// Complete the second instance for a tidy shutdown.
		b.W.handlePayload(inPayload{msg: &proto.DataPayload{DstCommand: 400, Object: 13, Version: 6, Data: []byte{4}}})
	})

	t.Run("stale-payload-below-watermark", func(t *testing.T) {
		b := NewBenchLoop(1)
		defer b.Close()
		b.Apply(recvTemplate(1, 14))
		// A payload addressed far below any future command arrives first.
		b.W.handlePayload(inPayload{msg: &proto.DataPayload{DstCommand: 50, Object: 14, Version: 1, Data: []byte{5}}})
		// The instantiation's watermark is above it: the buffer must be
		// dropped, and the new receive must still wait for its own
		// payload rather than consume the stale one.
		b.Apply(&proto.InstantiateTemplate{Template: 1, Instance: 1, Base: 600, DoneWatermark: 100})
		if len(b.Job(0).payloads) != 0 {
			t.Fatal("stale payload survived the watermark")
		}
		if b.Job(0).store.Get(14) != nil {
			t.Fatal("receive consumed a stale payload")
		}
		b.W.handlePayload(inPayload{msg: &proto.DataPayload{DstCommand: 600, Object: 14, Version: 2, Data: []byte{6}}})
		if o := b.Job(0).store.Get(14); o == nil || o.Version != 2 {
			t.Fatalf("fresh payload not installed: %+v", o)
		}
	})
}

// TestRunnableRingDoesNotPin is the regression test for the old
// pop-front-by-reslice leak: a drained runnable queue must hold no
// references to completed pcmds.
func TestRunnableRingDoesNotPin(t *testing.T) {
	var r pcmdRing
	pcs := make([]pcmd, 100)
	for i := range pcs {
		r.push(&pcs[i])
	}
	for r.n > 0 {
		if r.pop() == nil {
			t.Fatal("pop returned nil with items queued")
		}
	}
	for i, slot := range r.buf {
		if slot != nil {
			t.Fatalf("drained ring pins pcmd at slot %d", i)
		}
	}
	// Wrap-around: interleaved push/pop crosses the ring boundary and
	// must still clear every vacated slot.
	for round := 0; round < 50; round++ {
		r.push(&pcs[round%len(pcs)])
		r.push(&pcs[(round+1)%len(pcs)])
		r.pop()
		r.pop()
	}
	for i, slot := range r.buf {
		if slot != nil {
			t.Fatalf("ring pins pcmd at slot %d after wrap-around", i)
		}
	}
}

// TestHaltDoesNotOverCreditSlots: halt restores the full executor slot
// count while tasks are still in flight; their stale completions must not
// push freeSlots past the configured limit (which would permanently raise
// the worker's concurrency).
func TestHaltDoesNotOverCreditSlots(t *testing.T) {
	b := NewBenchLoop(2)
	defer b.Close()
	b.Apply(&proto.SpawnCommands{Cmds: []*command.Command{
		{ID: 1, Kind: command.Task, Function: fn.FuncSim, Params: fn.SimParams(30 * time.Millisecond)},
		{ID: 2, Kind: command.Task, Function: fn.FuncSim, Params: fn.SimParams(30 * time.Millisecond)},
	}})
	if b.W.freeSlots != 0 {
		t.Fatalf("free slots = %d with 2 tasks in flight", b.W.freeSlots)
	}
	b.Apply(&proto.Halt{Seq: 1})
	if b.W.freeSlots != 0 {
		t.Fatalf("free slots after halt = %d, want 0 (tasks still occupy executors)", b.W.freeSlots)
	}
	for i := 0; i < 2; i++ {
		b.step() // each task's stale evDone
	}
	if b.W.freeSlots != 2 {
		t.Fatalf("free slots after stale completions = %d, want 2", b.W.freeSlots)
	}
}

// TestUnitPoolReuse verifies steady-state instantiations are served from
// the arena pool rather than fresh allocations.
func TestUnitPoolReuse(t *testing.T) {
	b := NewBenchLoop(1)
	defer b.Close()
	b.Apply(destroyTemplate(9, 64))
	for i := uint64(0); i < 10; i++ {
		b.Apply(&proto.InstantiateTemplate{
			Template: 9, Instance: i + 1, Base: ids.CommandID(1 + i*64),
			DoneWatermark: ids.CommandID(1 + i*64),
		})
	}
	if got := b.W.Stats.UnitsReused.Load(); got < 8 {
		t.Fatalf("units reused = %d, want >= 8", got)
	}
	if got := b.W.Stats.InstantiateCmds.Load(); got != 640 {
		t.Fatalf("instantiate cmds = %d, want 640", got)
	}
}
