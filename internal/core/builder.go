package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"nimbus/internal/command"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// provKind classifies an entry's provenance for the rebuild diff.
type provKind uint8

const (
	provTask provKind = iota + 1
	provSend
	provRecv
)

// restoreStage is the pseudo stage index of the restoring copies appended
// by the build so that a template's postcondition satisfies its own
// precondition (paper §4.2, optimization 1).
const restoreStage = -1

// Provenance identifies the semantic origin of a template entry,
// independent of its index or worker: which stage/task produced it, or
// which logical object a copy moves. The rebuild diff matches entries
// across placements by provenance so that unchanged entries keep their
// indexes and edits stay proportional to the actual change (paper §4.3:
// a replacement command assigned the same index leaves other commands
// untouched).
type Provenance struct {
	Kind    provKind
	Stage   int32
	Task    int32
	Logical ids.LogicalID
	// From/To disambiguate copies: From is the sending worker (sends
	// only), To the receiving worker.
	From ids.WorkerID
	To   ids.WorkerID
}

// Precond is one worker-template precondition: the worker's replica of the
// logical object must hold the latest version when the template is
// instantiated (paper §4.1).
type Precond struct {
	Logical ids.LogicalID
	Worker  ids.WorkerID
	Object  ids.ObjectID
}

// ObjectEffect summarizes what one template instance does to a logical
// object: how many versions it produces and which workers hold the final
// version. The controller applies effects to its directory at
// instantiation time instead of re-deriving them per task.
type ObjectEffect struct {
	Logical      ids.LogicalID
	Bumps        uint64
	FinalHolders []ids.WorkerID
}

// LedgerEffect summarizes the final ordering state of one physical object
// on one worker after a template instance: the in-template last writer
// (entry index, or -1 if the template only reads it) and the in-template
// readers since that write. Applying these keeps post-template commands'
// before sets correct without per-task bookkeeping.
type LedgerEffect struct {
	Object ids.ObjectID
	// LastWriterIdx is the entry index of the final in-template writer,
	// or -1 to preserve the pre-instance writer.
	LastWriterIdx int32
	Readers       []int32
}

// Effects is the full instantiation effect of an assignment.
type Effects struct {
	Objects []ObjectEffect
	Ledger  map[ids.WorkerID][]LedgerEffect
}

// Instances resolves the stable physical instance of a logical object on a
// worker, allocating one on first use. *flow.Directory implements it for
// on-loop builds; *flow.BuildView implements it for off-loop builds over a
// directory snapshot.
type Instances interface {
	Instance(l ids.LogicalID, w ids.WorkerID) ids.ObjectID
}

// ValidateStage checks that a stage can be recorded into a template under
// the given placement. Every build-time error is shape-dependent, not
// task-dependent (partition-count mismatches, divisibility, fixed-index
// bounds), so validating task 0 of each reference covers the whole stage;
// after ValidateStage succeeds a build of the stage cannot fail.
func ValidateStage(spec *proto.SubmitStage, place Placement) error {
	if len(spec.PerTask) > 0 {
		return fmt.Errorf("core: stage %s has per-task parameters and cannot be templated", spec.Stage)
	}
	if spec.Tasks <= 0 {
		// A degenerate zero-task stage records (and builds) to nothing,
		// matching the live scheduling path.
		return nil
	}
	if _, _, err := TaskAccesses(spec, place, 0); err != nil {
		return err
	}
	if _, err := AnchorWorker(spec, place, 0); err != nil {
		return err
	}
	return nil
}

// taskPlan is one task's resolved placement: what it reads and writes and
// where it runs. Pass A of the build produces one per task, in parallel.
type taskPlan struct {
	reads  []ids.LogicalID
	writes []ids.LogicalID
	worker ids.WorkerID
}

// buildState is the serial (pass B) state of one assignment build.
type buildState struct {
	inst Instances

	// entries, workerOf and prov are indexed by final entry index; order
	// lists the placed indexes in program order, which is index order only
	// for a build without a predecessor.
	entries  []command.TemplateEntry
	workerOf []ids.WorkerID
	prov     []Provenance
	key      []int32
	order    []int32
	// taskIdx maps every flat task (stage-major) to its entry index.
	taskIdx []int32

	// prevByProv maps the predecessor's live provenances to their indexes,
	// holes lists its tombstoned indexes in ascending order, and next is
	// the first index past its array. A build without a predecessor has an
	// empty map, no holes and next 0, so indexes count up in program order.
	prevByProv map[Provenance]int32
	holes      []int32
	next       int32

	objs     slab[ids.ObjectID]
	wids     slab[ids.WorkerID] // backs the first element of every worker set
	copies   []copyRec
	holders  map[ids.LogicalID]holderState
	preconds []Precond
	pcKey    []int32 // per precondition: the access position of the read that made it
	slots    int
}

// holderState tracks a logical object's within-template placement: how many
// versions the template has produced so far, which workers hold the
// template-current version, and which workers read it before any write (the
// entry reads, one precondition each). Both worker sets are sorted and
// small — at most one element per worker — so they are slices, not maps.
type holderState struct {
	bumps   uint64
	holders []ids.WorkerID
	readers []ids.WorkerID
}

// written reports whether the template has produced a version of the object.
func (hs holderState) written() bool { return hs.bumps > 0 }

// slab carves small slices out of shared backing arrays, so a build makes
// one allocation per few thousand elements instead of one per entry.
type slab[T any] struct{ buf []T }

// take returns a zeroed slice of length and capacity n.
func (s *slab[T]) take(n int) []T {
	if n > cap(s.buf)-len(s.buf) {
		s.buf = make([]T, 0, max(n, 1024, cap(s.buf)))
	}
	lo := len(s.buf)
	s.buf = s.buf[:lo+n]
	return s.buf[lo : lo+n : lo+n]
}

// epoch is one write-delimited stretch of a physical object's accesses on
// its worker: the entry that wrote it (-1, with key -1, for the stretch
// before the template's first write) and the entries that read it since, in
// program order. An object's epochs, in order, are its whole access history
// within the template; the last one is its ledger effect.
type epoch struct {
	writer  int32
	wkey    int32
	readers []int32
}

// idxLedger mirrors flow.Ledger with entry indexes instead of command IDs,
// and keeps every object's epochs rather than only the last. Pass C keeps
// one per worker; per-worker ledgers are disjoint, which is what makes the
// dependency pass shardable.
type idxLedger struct {
	hist map[ids.ObjectID][]epoch
	// ints backs the before sets and the first two readers of every epoch.
	ints slab[int32]
	eps  slab[epoch]
}

// epochsOf returns o's epochs, starting them on first use.
func (l *idxLedger) epochsOf(o ids.ObjectID) []epoch {
	eps, ok := l.hist[o]
	if !ok {
		eps = l.eps.take(2)[:1]
		eps[0] = epoch{writer: -1, wkey: -1, readers: l.ints.take(2)[:0]}
	}
	return eps
}

func (l *idxLedger) read(o ids.ObjectID, idx int32, deps []int32) []int32 {
	eps := l.epochsOf(o)
	cur := &eps[len(eps)-1]
	if cur.writer >= 0 {
		deps = appendUniqueIdx(deps, cur.writer)
	}
	cur.readers = append(cur.readers, idx)
	l.hist[o] = eps
	return deps
}

func (l *idxLedger) write(o ids.ObjectID, idx, key int32, deps []int32) []int32 {
	eps := l.epochsOf(o)
	deps = writeDeps(eps[len(eps)-1], idx, deps)
	l.hist[o] = append(eps, epoch{writer: idx, wkey: key, readers: l.ints.take(2)[:0]})
	return deps
}

// writeDeps adds what a write by idx that ends epoch ep must follow: ep's
// writer and its readers other than idx itself.
func writeDeps(ep epoch, idx int32, deps []int32) []int32 {
	if ep.writer >= 0 {
		deps = appendUniqueIdx(deps, ep.writer)
	}
	for _, r := range ep.readers {
		if r != idx {
			deps = appendUniqueIdx(deps, r)
		}
	}
	return deps
}

// packReaders moves one worker's ledger reader lists into one array:
// instantiation walks all of them, so they should sit together rather than
// between the before sets and older epochs they were built beside.
func packReaders(les []LedgerEffect) {
	n := 0
	for i := range les {
		n += len(les[i].Readers)
	}
	pack := make([]int32, 0, n)
	for i := range les {
		if rs := les[i].Readers; len(rs) > 0 {
			pack = append(pack, rs...)
			les[i].Readers = pack[len(pack)-len(rs) : len(pack) : len(pack)]
		}
	}
}

// packHolders does for the object effects' final holders what packReaders
// does for reader lists.
func packHolders(objs []ObjectEffect) {
	n := 0
	for i := range objs {
		n += len(objs[i].FinalHolders)
	}
	pack := make([]ids.WorkerID, 0, n)
	for i := range objs {
		hs := objs[i].FinalHolders
		pack = append(pack, hs...)
		objs[i].FinalHolders = pack[len(pack)-len(hs) : len(pack) : len(pack)]
	}
}

// plainHistory reports whether an object's epochs follow from its ledger
// effect and the entry keys: it is only read, or written once before any
// read.
func plainHistory(eps []epoch) bool {
	return len(eps) == 1 || len(eps) == 2 && len(eps[0].readers) == 0
}

// epochsOf returns the epochs of the object whose ledger effect is
// Effects.Ledger[w][at].
func (a *Assignment) epochsOf(w ids.WorkerID, at int) []epoch {
	le := a.Effects.Ledger[w][at]
	if eps, ok := a.history[w][le.Object]; ok {
		return eps
	}
	if le.LastWriterIdx < 0 {
		return []epoch{{writer: -1, wkey: -1, readers: le.Readers}}
	}
	return []epoch{{writer: -1, wkey: -1}, {writer: le.LastWriterIdx, wkey: a.key[le.LastWriterIdx], readers: le.Readers}}
}

// ledgerEffect is the LedgerEffect of an object with the given epochs.
func ledgerEffect(o ids.ObjectID, eps []epoch) LedgerEffect {
	last := eps[len(eps)-1]
	le := LedgerEffect{Object: o, LastWriterIdx: last.writer}
	if len(last.readers) > 0 {
		le.Readers = last.readers
	}
	return le
}

func appendUniqueIdx(deps []int32, idx int32) []int32 {
	for _, d := range deps {
		if d == idx {
			return deps
		}
	}
	return append(deps, idx)
}

// BuildAssignment constructs an Assignment (the controller half of a
// worker-template set plus the controller template's command array) for the
// given stage sequence under a fixed placement. It is a pure function over
// its inputs: inst and place are only read (inst may allocate fresh
// instance IDs), so it can run off the controller's event loop against a
// directory snapshot while the loop keeps serving heartbeats, completions
// and other templates' dispatch.
//
// The build is a three-pass pipeline, sharded where state is disjoint:
//
//	A. resolve every task's accesses and anchor worker (pure over place) —
//	   parallel over tasks;
//	B. lay out the entry array: copy insertion, index assignment, instance
//	   resolution, preconditions and object effects (global holder state) —
//	   serial, but only map lookups per entry;
//	C. derive every entry's before set and the per-worker ledger effects —
//	   parallel over workers, since each entry depends only on its home
//	   worker's index ledger.
//
// par bounds the goroutine pool; par <= 0 uses GOMAXPROCS, par == 1 runs
// fully serially (no goroutines). Output is deterministic and identical
// across par values.
func BuildAssignment(id ids.TemplateID, inst Instances, place Placement, stages []*proto.SubmitStage, par int) (*Assignment, error) {
	return buildAssignment(id, inst, place, stages, nil, par)
}

// buildAssignment is BuildAssignment with an optional predecessor. With
// prev non-nil, pass B numbers the entries against it instead of counting
// up: an entry whose provenance matches a live entry of prev takes that
// entry's index, any other entry takes prev's lowest tombstoned index, and
// only when prev has no tombstone left does the array grow. Every entry is
// written once, at its final index, and passes B and C work in final
// indexes throughout, so nothing is renumbered afterwards. Trailing
// tombstones are trimmed. The result: indexes of unchanged entries never
// move, a reused index is always a hole in prev (a plain Add for Diff), and
// the array never exceeds the live entries by more than the entries one
// rebuild replaced.
func buildAssignment(id ids.TemplateID, inst Instances, place Placement, stages []*proto.SubmitStage, prev *Assignment, par int) (*Assignment, error) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	// Pass A: per-task placement resolution, sharded over the flattened
	// task list.
	total := 0
	offsets := make([]int, len(stages))
	for i, spec := range stages {
		if len(spec.PerTask) > 0 {
			return nil, fmt.Errorf("core: stage %s has per-task parameters and cannot be templated", spec.Stage)
		}
		offsets[i] = total
		total += spec.Tasks
	}
	plans := make([]taskPlan, total)
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	shard(total, par, func(lo, hi int) {
		si := sort.Search(len(offsets), func(i int) bool { return offsets[i] > lo }) - 1
		for flat := lo; flat < hi; flat++ {
			for si+1 < len(offsets) && flat >= offsets[si+1] {
				si++
			}
			spec, t := stages[si], flat-offsets[si]
			reads, writes, err := TaskAccesses(spec, place, t)
			if err != nil {
				fail(err)
				return
			}
			w, err := AnchorWorker(spec, place, t)
			if err != nil {
				fail(err)
				return
			}
			plans[flat] = taskPlan{reads: reads, writes: writes, worker: w}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}

	// Pass B: serial entry layout. Sizes come from the predecessor when
	// there is one; otherwise from the task list, guessing that every other
	// read crosses a link (a copy is two entries).
	reads, accesses := 0, 0
	for i := range plans {
		reads += len(plans[i].reads)
		accesses += len(plans[i].reads) + len(plans[i].writes)
	}
	n, room, live, copies := 0, total+reads, total+reads, reads
	if prev != nil {
		n, room = len(prev.Entries), len(prev.Entries)/8
		live = prev.live + prev.live/8
		copies = max(prev.live-total, 0) // a copy entry names one object
		copies += copies / 8
	}
	b := &buildState{
		inst:     inst,
		entries:  make([]command.TemplateEntry, n, n+room),
		workerOf: make([]ids.WorkerID, n, n+room),
		prov:     make([]Provenance, n, n+room),
		key:      make([]int32, n, n+room),
		order:    make([]int32, 0, live),
		taskIdx:  make([]int32, total),
		next:     int32(n),
		holders:  make(map[ids.LogicalID]holderState, accesses/2),
	}
	b.objs.buf = make([]ids.ObjectID, 0, accesses+copies)
	b.wids.buf = make([]ids.WorkerID, 0, accesses)
	b.copies = make([]copyRec, 0, copies/2)
	if prev != nil {
		b.preconds = make([]Precond, 0, len(prev.Preconds))
		b.pcKey = make([]int32, 0, len(prev.Preconds))
		b.prevByProv = make(map[Provenance]int32, prev.live)
		for i := range prev.Entries {
			if prev.Entries[i].Kind != 0 {
				b.prevByProv[prev.Prov[i]] = int32(i)
			} else {
				b.holes = append(b.holes, int32(i))
			}
		}
	}
	// pos numbers every access in program order (a task's reads, then its
	// writes); entry keys derive from it (see copyKey).
	pos := int32(0)
	for si, spec := range stages {
		slot := command.NoParamSlot
		if len(spec.Params) > 0 {
			slot = int32(b.slots)
			b.slots++
		}
		stageIdx := int32(si)
		for t := 0; t < spec.Tasks; t++ {
			flat := offsets[si] + t
			p := &plans[flat]
			w := p.worker
			// First, materialize any copies the reads require so that copy
			// entries precede the task entry.
			for i, l := range p.reads {
				b.ensureReadable(l, w, stageIdx, pos+int32(i))
			}
			readObjs := b.objs.take(len(p.reads))
			for i, l := range p.reads {
				readObjs[i] = b.inst.Instance(l, w)
			}
			writeObjs := b.objs.take(len(p.writes))
			for i, l := range p.writes {
				writeObjs[i] = b.inst.Instance(l, w)
				hs := b.holders[l]
				hs.bumps++
				if hs.holders == nil {
					hs.holders = b.wids.take(1)
				}
				hs.holders = append(hs.holders[:0], w)
				b.holders[l] = hs
			}
			pos += int32(len(p.reads) + len(p.writes))
			prov := Provenance{Kind: provTask, Stage: stageIdx, Task: int32(t)}
			b.taskIdx[flat] = b.indexFor(prov)
			b.put(command.TemplateEntry{
				Index:     b.taskIdx[flat],
				Kind:      command.Task,
				Function:  spec.Fn,
				Reads:     readObjs,
				Writes:    writeObjs,
				ParamSlot: slot,
				Fixed:     spec.Params,
			}, w, prov, taskKey(pos))
		}
	}
	// Restoring copies: a precondition (l, w) whose logical object the
	// template wrote must end with w holding the final version, so tight
	// loops auto-validate (paper §4.2).
	for i, pc := range b.preconds {
		if hs := b.holders[pc.Logical]; hs.written() {
			b.copyTo(pc.Logical, hs, pc.Worker, restoreStage, restoreKey(pos, b.pcKey[i]))
		}
	}
	// Trim trailing tombstones: the array ends at its last live entry.
	n = len(b.entries)
	for n > 0 && b.entries[n-1].Kind == 0 {
		n--
	}
	b.entries, b.workerOf, b.prov, b.key = b.entries[:n], b.workerOf[:n], b.prov[:n], b.key[:n]
	var holes []int32
	if len(b.order) < n {
		holes = make([]int32, 0, n-len(b.order))
		for i := range b.entries {
			if b.entries[i].Kind == 0 {
				holes = append(holes, int32(i))
			}
		}
	}

	// Per-worker entry lists in program order, carved from one array.
	counts := make(map[ids.WorkerID]int)
	for _, idx := range b.order {
		counts[b.workerOf[idx]]++
	}
	workers := make([]ids.WorkerID, 0, len(counts))
	for w := range counts {
		workers = append(workers, w)
	}
	slices.Sort(workers)
	perWorker := make(map[ids.WorkerID][]int32, len(workers))
	lists := make([]int32, len(b.order))
	for _, w := range workers {
		perWorker[w] = lists[:0:counts[w]]
		lists = lists[counts[w]:]
	}
	for _, idx := range b.order {
		w := b.workerOf[idx]
		perWorker[w] = append(perWorker[w], idx)
	}

	// Pass C: before sets and ledger effects, sharded over workers. Every
	// entry's dependencies come from its home worker's index ledger only,
	// so per-worker goroutines touch disjoint entries and ledgers. Each
	// list is walked in program order, then sorted: PerWorker is ascending.
	// The epochs the ledger effects do not tell stay with the assignment
	// for Migrate.
	ledgerEff := make([][]LedgerEffect, len(workers))
	history := make([]map[ids.ObjectID][]epoch, len(workers))
	shard(len(workers), par, func(lo, hi int) {
		var deps []int32
		for wi := lo; wi < hi; wi++ {
			list := perWorker[workers[wi]]
			led := idxLedger{hist: make(map[ids.ObjectID][]epoch, len(list))}
			led.ints.buf = make([]int32, 0, 6*len(list))
			led.eps.buf = make([]epoch, 0, 2*len(list))
			for _, idx := range list {
				e := &b.entries[idx]
				deps = deps[:0]
				for _, o := range e.Reads {
					deps = led.read(o, idx, deps)
				}
				for _, o := range e.Writes {
					deps = led.write(o, idx, b.key[idx], deps)
				}
				if len(deps) > 0 {
					e.BeforeIdx = led.ints.take(len(deps))
					copy(e.BeforeIdx, deps)
				}
			}
			slices.Sort(list)
			objs := make([]ids.ObjectID, 0, len(led.hist))
			for o := range led.hist {
				objs = append(objs, o)
			}
			slices.Sort(objs)
			les := make([]LedgerEffect, len(objs))
			for i, o := range objs {
				eps := led.hist[o]
				les[i] = ledgerEffect(o, eps)
				if !plainHistory(eps) {
					if history[wi] == nil {
						history[wi] = make(map[ids.ObjectID][]epoch)
					}
					history[wi][o] = slices.Clone(eps) // out of the slab, which can go
				}
			}
			packReaders(les)
			ledgerEff[wi] = les
		}
	})

	eff := Effects{Ledger: make(map[ids.WorkerID][]LedgerEffect, len(workers))}
	hist := make(map[ids.WorkerID]map[ids.ObjectID][]epoch)
	for wi, w := range workers {
		eff.Ledger[w] = ledgerEff[wi]
		if history[wi] != nil {
			hist[w] = history[wi]
		}
	}
	slices.SortFunc(b.copies, compareCopies)
	pcOf := make([]pcRec, len(b.preconds))
	for i, pc := range b.preconds {
		pcOf[i] = pcRec{Logical: pc.Logical, Key: b.pcKey[i]}
	}
	slices.SortFunc(pcOf, comparePCs)
	logicals := make([]ids.LogicalID, 0, len(b.holders))
	for l, hs := range b.holders {
		if hs.written() {
			logicals = append(logicals, l)
		}
	}
	slices.Sort(logicals)
	eff.Objects = make([]ObjectEffect, len(logicals))
	for i, l := range logicals {
		hs := b.holders[l]
		eff.Objects[i] = ObjectEffect{Logical: l, Bumps: hs.bumps, FinalHolders: hs.holders}
	}
	packHolders(eff.Objects)

	return &Assignment{
		ID:        id,
		Entries:   b.entries,
		WorkerOf:  b.workerOf,
		Prov:      b.prov,
		PerWorker: perWorker,
		Preconds:  b.preconds,
		Effects:   eff,
		Slots:     b.slots,
		Installed: make(map[ids.WorkerID]bool),
		live:      len(b.order),
		key:       b.key,
		taskIdx:   b.taskIdx,
		holes:     holes,
		pcKey:     b.pcKey,
		history:   hist,
		copyOf:    b.copies,
		pcOf:      pcOf,
	}, nil
}

// shard splits [0, n) into at most par contiguous chunks and runs fn over
// them, inline when par == 1 or the range is trivial.
func shard(n, par int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + par - 1) / par
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Entry keys order a build's entries as pass B places them: a copy a read
// at access position q requires is 4q (send) and 4q+1 (receive), a task
// whose last access is at position q-1 is 4q-1, and a restoring copy for the
// precondition made at position q, in a template of n accesses, is 4(n+q)
// and 4(n+q)+1. Within one physical object, key order is program order; a
// task's accesses share its key, reads before writes.
func copyKey(q int32) int32       { return 4 * q }
func recvKey(sendKey int32) int32 { return sendKey + 1 }
func taskKey(next int32) int32    { return 4*next - 1 }
func restoreKey(n, q int32) int32 { return 4 * (n + q) }

// ensureReadable prepares logical object l for a read at worker w, the
// access at position q. If the template has already written l, the
// template-current version must reach w, so a copy pair is inserted when
// missing. Otherwise the read is an entry read: it becomes a worker-template
// precondition — patches, not cached copies, handle entry-time data
// movement (paper §2.4).
func (b *buildState) ensureReadable(l ids.LogicalID, w ids.WorkerID, stage, q int32) {
	hs := b.holders[l]
	if hs.written() {
		b.copyTo(l, hs, w, stage, copyKey(q))
		return
	}
	at, found := slices.BinarySearch(hs.readers, w)
	if found {
		return
	}
	if hs.readers == nil {
		hs.readers = b.wids.take(1)[:0]
	}
	hs.readers = slices.Insert(hs.readers, at, w)
	b.holders[l] = hs
	b.preconds = append(b.preconds, Precond{Logical: l, Worker: w, Object: b.inst.Instance(l, w)})
	b.pcKey = append(b.pcKey, q)
}

// copyTo makes dst a holder of the template-current version of l (whose
// state is hs), copying from the lowest-numbered holder if it is not one.
func (b *buildState) copyTo(l ids.LogicalID, hs holderState, dst ids.WorkerID, stage, key int32) {
	at, found := slices.BinarySearch(hs.holders, dst)
	if found {
		return
	}
	send, recv := b.insertCopy(l, hs.holders[0], dst, stage, key)
	b.copies = append(b.copies, copyRec{Logical: l, Send: send, Recv: recv, Key: key})
	hs.holders = slices.Insert(hs.holders, at, dst)
	b.holders[l] = hs
}

// insertCopy places a send/receive pair moving the template-current
// version of l from src to dst, the send at key and the receive at the key
// after it, and returns their indexes. Before sets are filled by pass C.
func (b *buildState) insertCopy(l ids.LogicalID, src, dst ids.WorkerID, stage, key int32) (send, recv int32) {
	sendProv := Provenance{Kind: provSend, Stage: stage, Logical: l, From: src, To: dst}
	recvProv := Provenance{Kind: provRecv, Stage: stage, Logical: l, To: dst}
	send, recv = b.indexFor(sendProv), b.indexFor(recvProv)
	objs := b.objs.take(2)
	objs[0], objs[1] = b.inst.Instance(l, src), b.inst.Instance(l, dst)
	sendE, recvE := copyEntries(l, dst, send, recv, objs)
	b.put(sendE, src, sendProv, key)
	b.put(recvE, dst, recvProv, recvKey(key))
	return send, recv
}

// copyEntries returns the send and receive entries of one copy of l to dst
// at the given indexes; objs holds the source and destination instances.
func copyEntries(l ids.LogicalID, dst ids.WorkerID, send, recv int32, objs []ids.ObjectID) (sendE, recvE command.TemplateEntry) {
	sendE = command.TemplateEntry{
		Index:     send,
		Kind:      command.CopySend,
		Reads:     objs[:1:1],
		ParamSlot: command.NoParamSlot,
		Logical:   l,
		DstWorker: dst,
		DstIdx:    recv,
	}
	recvE = command.TemplateEntry{
		Index:     recv,
		Kind:      command.CopyRecv,
		Writes:    objs[1:2:2],
		ParamSlot: command.NoParamSlot,
		Logical:   l,
	}
	return sendE, recvE
}

// indexFor picks the final index of the entry with provenance p: the
// predecessor's index of the same provenance, else its lowest unused hole,
// else the next index past it. A provenance the build has already placed
// (a block that copies one object to one worker twice within a stage) is
// numbered like a new entry.
func (b *buildState) indexFor(p Provenance) int32 {
	if idx, ok := b.prevByProv[p]; ok && b.entries[idx].Kind == 0 {
		return idx
	}
	if len(b.holes) > 0 {
		idx := b.holes[0]
		b.holes = b.holes[1:]
		return idx
	}
	b.next++
	return b.next - 1
}

// put writes an entry at its index. Indexes past the array are handed out
// and placed in ascending order, so such an entry always lands at the end.
func (b *buildState) put(e command.TemplateEntry, w ids.WorkerID, p Provenance, key int32) {
	if int(e.Index) == len(b.entries) {
		b.entries = append(b.entries, e)
		b.workerOf = append(b.workerOf, w)
		b.prov = append(b.prov, p)
		b.key = append(b.key, key)
	} else {
		b.entries[e.Index] = e
		b.workerOf[e.Index] = w
		b.prov[e.Index] = p
		b.key[e.Index] = key
	}
	b.order = append(b.order, e.Index)
}

// Builder accumulates a stage sequence and builds it into an Assignment.
// It is the recording-time facade over BuildAssignment: AddStage validates
// each stage as the controller records it (so the driver hears about a
// non-templatable stage at submission time), and Finalize runs the full
// sharded construction.
type Builder struct {
	inst   Instances
	place  Placement
	stages []*proto.SubmitStage
	par    int
}

// NewBuilder returns a Builder resolving object instances from inst and
// placement through place.
func NewBuilder(inst Instances, place Placement) *Builder {
	return &Builder{inst: inst, place: place}
}

// SetParallelism bounds the goroutine pool Finalize uses (0 = GOMAXPROCS,
// 1 = fully serial).
func (b *Builder) SetParallelism(par int) { b.par = par }

// AddStage appends one stage to the template under construction after
// validating it can be templated under the builder's placement.
func (b *Builder) AddStage(spec *proto.SubmitStage) error {
	if err := ValidateStage(spec, b.place); err != nil {
		return err
	}
	b.stages = append(b.stages, spec)
	return nil
}

// Finalize builds the accumulated stages into an Assignment. Stages were
// validated by AddStage, so the build cannot fail.
func (b *Builder) Finalize(id ids.TemplateID) *Assignment {
	a, err := BuildAssignment(id, b.inst, b.place, b.stages, b.par)
	if err != nil {
		// Unreachable: every build-time error is caught by AddStage's
		// ValidateStage (errors are shape-, not task-dependent).
		panic(fmt.Sprintf("core: validated build failed: %v", err))
	}
	return a
}
