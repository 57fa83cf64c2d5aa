package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"nimbus/internal/command"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// Move names one (variable, partition) pair a migration re-places.
type Move struct {
	Var       ids.VariableID
	Partition int
}

// coneIndex is what Migrate needs of a template's shape. None of it depends
// on placement: a task's accesses and its anchor pair are fixed by the
// stage, so the index is built once per template.
type coneIndex struct {
	tasks []coneTask
	// offset is each stage's first flat task.
	offset []int32
	// logicals holds every logical object's accesses.
	logicals map[ids.LogicalID]*coneLogical
	// anchored lists the tasks anchored on each pair; anchors holds every
	// pair once, in program order.
	anchored map[Move][]int32
	anchors  []Move
	// accesses counts the template's accesses; restoring copies' keys
	// start past them.
	accesses int32
}

type coneTask struct {
	stage         int32
	reads, writes []ids.LogicalID
	key           int32
}

// coneLogical is one logical object's accesses in program order, and the
// indexes of the writes among them. The writes split the reads into
// segments: segment 0 reads the version the template starts from,
// segment j > 0 the version write j-1 made.
type coneLogical struct {
	acc    []access
	writes []int32
}

// access is one read or write of a logical object: its position in the
// template's access numbering and the flat task that makes it.
type access struct {
	pos   int32
	task  int32
	write bool
}

func newConeIndex(stages []*proto.SubmitStage, place Placement) (*coneIndex, error) {
	cx := &coneIndex{
		offset:   make([]int32, len(stages)),
		logicals: make(map[ids.LogicalID]*coneLogical),
		anchored: make(map[Move][]int32),
	}
	at := func(l ids.LogicalID) *coneLogical {
		cl := cx.logicals[l]
		if cl == nil {
			cl = &coneLogical{}
			cx.logicals[l] = cl
		}
		return cl
	}
	pos := int32(0)
	for si, spec := range stages {
		if len(spec.PerTask) > 0 {
			return nil, fmt.Errorf("core: stage %s has per-task parameters and cannot be templated", spec.Stage)
		}
		cx.offset[si] = int32(len(cx.tasks))
		for t := 0; t < spec.Tasks; t++ {
			reads, writes, err := TaskAccesses(spec, place, t)
			if err != nil {
				return nil, err
			}
			mv, err := anchorOf(spec, place, t)
			if err != nil {
				return nil, err
			}
			f := int32(len(cx.tasks))
			for _, l := range reads {
				cl := at(l)
				cl.acc = append(cl.acc, access{pos: pos, task: f})
				pos++
			}
			for _, l := range writes {
				cl := at(l)
				cl.writes = append(cl.writes, int32(len(cl.acc)))
				cl.acc = append(cl.acc, access{pos: pos, task: f, write: true})
				pos++
			}
			if _, ok := cx.anchored[mv]; !ok {
				cx.anchors = append(cx.anchors, mv)
			}
			cx.anchored[mv] = append(cx.anchored[mv], f)
			cx.tasks = append(cx.tasks, coneTask{stage: int32(si), reads: reads, writes: writes, key: taskKey(pos)})
		}
	}
	cx.accesses = pos
	return cx, nil
}

// coneOf returns the template's cone index, building it on first use.
func (t *Template) coneOf(place Placement) (*coneIndex, error) {
	t.coneOnce.Do(func() { t.cone, t.coneErr = newConeIndex(t.Stages, place) })
	return t.cone, t.coneErr
}

// Migrate returns prev edited for a placement that differs from prev's only
// in the given moves, and the per-worker edits that take prev to it. moved
// nil means any anchor may have moved (prev was made for some other
// placement). The result is what RebuildPar + Diff give for the same
// placement, indexes included, but only the moved tasks' cone is visited:
//
//   - a template's entries depend on placement only through each task's
//     anchor worker, so the moved tasks are the tasks anchored on a moved
//     pair whose worker changes; they keep their indexes;
//   - holder state (copies, preconditions, final holders) is per logical
//     object and restarts at every write, so only the segments (a write
//     and the reads after it) in which a moved task reads or writes are
//     replayed, with pass B's rules, and compared with prev's copies by
//     key and provenance;
//   - before sets and ledger effects are per physical object, so only the
//     accesses that differ are spliced into prev's epochs, and only the
//     entries whose epoch changed get their before sets recomputed.
//
// prev is not modified; next shares its unchanged entries and metadata. New
// entries take prev's lowest holes in program order before the array
// grows, and trailing tombstones are trimmed, as in a rebuild. Where the edit cannot be exact —
// a replayed object with two live copies of one provenance — Migrate falls
// back to RebuildPar + Diff and sets the result's Rebuilt.
func (t *Template) Migrate(id ids.TemplateID, inst Instances, place Placement, prev *Assignment, moved []Move, par int) (*Assignment, *DiffResult, error) {
	if cx, err := t.coneOf(place); err == nil && len(prev.taskIdx) == len(cx.tasks) {
		m := &migration{cx: cx, inst: inst, prev: prev}
		if next, res := m.run(id, place, moved); next != nil {
			return next, res, nil
		}
	}
	next, err := t.RebuildPar(id, inst, place, prev, par)
	if err != nil {
		return nil, nil, err
	}
	res := Diff(prev, next)
	res.Rebuilt = true
	return next, res, nil
}

// objEvent is one access of a physical object that prev and next do not
// share: one prev made (gone, at prev's key) or one next makes (added, at
// next's key).
type objEvent struct {
	idx, key     int32
	write, added bool
}

// firstRead is a worker's first read of a logical object in one segment.
type firstRead struct {
	w   ids.WorkerID
	pos int32
}

type migration struct {
	cx         *coneIndex
	inst       Instances
	prev, next *Assignment
	moved      map[int32]ids.WorkerID // flat task -> its new worker
	visited    int
	inexact    bool
	hole       int // prev.holes handed out so far

	// Replay scratch, reset for every logical object.
	oldByProv map[Provenance]int32
	made      map[Provenance]bool

	// events holds the accesses of the replayed logical object that
	// differ, with their workers; spliced, they are dropped.
	events []workerEvent
	// Splice scratch.
	group, added []objEvent
	owned        []bool
	// rebuild holds the entries whose before set is recomputed; true marks
	// one the migration rewrote (a moved task or a replayed copy).
	rebuild map[int32]bool
	removed []int32
	// The replayed objects' new metadata, in cone order.
	copies  []copyRec
	pcs     []pcRec
	pcGone  []int32
	pcAdded []keyedPrecond
	finals  []ObjectEffect
	// Physical objects whose epochs changed: the new epochs by object
	// (nil: the object is gone), and per worker the ledger effects to set
	// and the objects to drop.
	epochs    map[ids.ObjectID][]epoch
	ledgerSet map[ids.WorkerID][]LedgerEffect
	dropped   map[ids.WorkerID][]ids.ObjectID
	// histSet holds, per worker, the objects whose stored history changes
	// (nil: none stored any more).
	histSet map[ids.WorkerID]map[ids.ObjectID][]epoch
}

type keyedPrecond struct {
	key int32
	pc  Precond
}

// run performs the migration; a nil assignment means it cannot be exact.
func (m *migration) run(id ids.TemplateID, place Placement, moved []Move) (*Assignment, *DiffResult) {
	prev := m.prev
	m.moved = make(map[int32]ids.WorkerID)
	check := func(mv Move) {
		tasks := m.cx.anchored[mv]
		m.visited += len(tasks)
		w := place.WorkerOf(mv.Var, mv.Partition)
		for _, f := range tasks {
			if prev.WorkerOf[prev.taskIdx[f]] != w {
				m.moved[f] = w
			}
		}
	}
	if moved == nil {
		for _, mv := range m.cx.anchors {
			check(mv)
		}
	} else {
		for _, mv := range moved {
			check(mv)
		}
	}
	if len(m.moved) == 0 {
		next := *prev
		next.ID, next.Installed = id, make(map[ids.WorkerID]bool)
		return &next, &DiffResult{Edits: make(map[ids.WorkerID]*command.Edit), Visited: m.visited}
	}

	m.next = &Assignment{
		ID:        id,
		Entries:   slices.Clone(prev.Entries),
		WorkerOf:  slices.Clone(prev.WorkerOf),
		Prov:      slices.Clone(prev.Prov),
		Slots:     prev.Slots,
		Installed: make(map[ids.WorkerID]bool),
		live:      prev.live,
		key:       slices.Clone(prev.key),
		taskIdx:   prev.taskIdx,
	}
	m.oldByProv = make(map[Provenance]int32)
	m.made = make(map[Provenance]bool)
	m.rebuild = make(map[int32]bool)
	m.epochs = make(map[ids.ObjectID][]epoch)
	m.ledgerSet = make(map[ids.WorkerID][]LedgerEffect)
	m.histSet = make(map[ids.WorkerID]map[ids.ObjectID][]epoch)
	m.dropped = make(map[ids.WorkerID][]ids.ObjectID)

	// The moved tasks keep their indexes, provenances and keys; their
	// objects become the new worker's instances (resolved in task order, so
	// fresh instance IDs do not depend on map order). The cone is every
	// logical object they read or write.
	tasks := make([]int32, 0, len(m.moved))
	for f := range m.moved {
		tasks = append(tasks, f)
	}
	slices.Sort(tasks)
	movers := make(map[ids.LogicalID][]int32)
	for _, f := range tasks {
		w := m.moved[f]
		ct := &m.cx.tasks[f]
		for _, ls := range [][]ids.LogicalID{ct.reads, ct.writes} {
			for _, l := range ls {
				if fs := movers[l]; len(fs) == 0 || fs[len(fs)-1] != f {
					movers[l] = append(fs, f)
				}
			}
		}
		idx := prev.taskIdx[f]
		e := prev.Entries[idx]
		e.Reads, e.Writes, e.BeforeIdx = m.instances(ct.reads, w), m.instances(ct.writes, w), nil
		m.next.Entries[idx], m.next.WorkerOf[idx] = e, w
		m.rebuild[idx] = true
	}
	cone := make([]ids.LogicalID, 0, len(movers))
	for l := range movers {
		cone = append(cone, l)
	}
	slices.Sort(cone)
	plans := make([]*logicalPlan, len(cone))
	for i, l := range cone {
		if plans[i] = m.replay(l, movers[l]); plans[i] == nil {
			return nil, nil
		}
	}
	m.number(plans)
	for _, pl := range plans {
		m.events = append(m.events[:0], pl.events...)
		m.matchCopies(pl.l, pl.gone, pl.fresh)
		m.copies = append(m.copies, mergeCopies(pl.kept, pl.fresh)...)
		m.spliceAll(pl.l)
	}
	if !m.beforeSets() {
		return nil, nil
	}
	return m.next, m.assemble(cone)
}

// instances resolves the given logical objects' instances on w.
func (m *migration) instances(ls []ids.LogicalID, w ids.WorkerID) []ids.ObjectID {
	if len(ls) == 0 {
		return nil
	}
	objs := make([]ids.ObjectID, len(ls))
	for i, l := range ls {
		objs[i] = m.inst.Instance(l, w)
	}
	return objs
}

// runOf returns the elements of s, sorted by logical object, that belong to
// l.
func runOf[T any](s []T, logical func(T) ids.LogicalID, l ids.LogicalID) []T {
	lo := sort.Search(len(s), func(i int) bool { return logical(s[i]) >= l })
	hi := lo + sort.Search(len(s)-lo, func(i int) bool { return logical(s[lo+i]) > l })
	return s[lo:hi]
}

func copyLogical(c copyRec) ids.LogicalID { return c.Logical }
func pcLogical(p pcRec) ids.LogicalID     { return p.Logical }

// worker returns flat task f's worker in next.
func (m *migration) worker(f int32) ids.WorkerID {
	if w, ok := m.moved[f]; ok {
		return w
	}
	return m.prev.WorkerOf[m.prev.taskIdx[f]]
}

// logicalPlan is what the replay of one logical object decided: prev's
// copies it keeps and the ones it replayed (gone), the copies that replace
// those (fresh), and the accesses of its moved tasks.
type logicalPlan struct {
	l          ids.LogicalID
	kept, gone []copyRec
	fresh      []freshCopy
	events     []workerEvent
}

// replay redoes pass B's holder logic for logical object l in the segments
// the moved tasks (movers, ascending) read or write in, and in the
// restoring copies, and records the resulting preconditions and final
// holders. A segment's copies depend only on its writer's worker and on the
// order in which other workers first read it, so the other segments keep
// prev's copies. It returns the plan for the copies, or nil when the edit
// cannot be exact.
func (m *migration) replay(l ids.LogicalID, movers []int32) *logicalPlan {
	prev := m.prev
	cl := m.cx.logicals[l]
	acc := cl.acc
	old := runOf(prev.copyOf, copyLogical, l)
	oldPCs := runOf(prev.pcOf, pcLogical, l)
	m.visited += len(old)
	clear(m.oldByProv)
	clear(m.made)
	for _, c := range old {
		for _, idx := range []int32{c.Send, c.Recv} {
			if _, dup := m.oldByProv[prev.Prov[idx]]; dup {
				return nil
			}
			m.oldByProv[prev.Prov[idx]] = idx
		}
	}

	// The moved tasks' accesses of l, and the segments they touch.
	var moves []int32 // accessor indexes
	for _, f := range movers {
		for i := sort.Search(len(acc), func(i int) bool { return acc[i].task >= f }); i < len(acc) && acc[i].task == f; i++ {
			moves = append(moves, int32(i))
		}
	}
	m.visited += len(moves)
	var segs []int
	for _, i := range moves {
		j := sort.Search(len(cl.writes), func(k int) bool { return cl.writes[k] >= i })
		if acc[i].write {
			j++
		}
		if len(segs) == 0 || segs[len(segs)-1] != j {
			segs = append(segs, j)
		}
		f := acc[i].task
		ev := objEvent{idx: m.prev.taskIdx[f], key: m.cx.tasks[f].key, write: acc[i].write}
		m.event(l, prev.WorkerOf[ev.idx], ev)
		ev.added = true
		m.event(l, m.moved[f], ev)
	}
	last := len(cl.writes)
	bounds := func(j int) (lo, hi int32) {
		lo, hi = 0, int32(len(acc))
		if j > 0 {
			lo = cl.writes[j-1] + 1
		}
		if j < last {
			hi = cl.writes[j]
		}
		return lo, hi
	}

	// The key ranges replayed: the replayed segments' copies and every
	// restoring copy. prev's copies elsewhere stand.
	var ranges [][2]int32
	for _, j := range segs {
		if lo, hi := bounds(j); j > 0 && lo < hi {
			ranges = append(ranges, [2]int32{copyKey(acc[lo].pos), recvKey(copyKey(acc[hi-1].pos))})
		}
	}
	if last > 0 {
		ranges = append(ranges, [2]int32{restoreKey(m.cx.accesses, 0), 1<<31 - 1})
	}
	replayed := func(key int32) bool {
		for _, r := range ranges {
			if key >= r[0] && key <= r[1] {
				return true
			}
		}
		return false
	}
	var kept, gone []copyRec
	for _, c := range old {
		if replayed(c.Key) {
			gone = append(gone, c)
		} else {
			kept = append(kept, c)
			m.made[prev.Prov[c.Send]], m.made[prev.Prov[c.Recv]] = true, true
		}
	}

	var fresh []freshCopy  // replayed copies, in key order
	var pcs []keyedPrecond // segment 0's first reads, if replayed
	var holders []ids.WorkerID
	for _, j := range segs {
		lo, hi := bounds(j)
		firsts := m.firstReads(l, j, lo, hi, moves, old, oldPCs)
		if j == 0 {
			for _, fr := range firsts {
				pcs = append(pcs, keyedPrecond{fr.pos, Precond{Logical: l, Worker: fr.w, Object: m.inst.Instance(l, fr.w)}})
			}
			continue
		}
		holders = []ids.WorkerID{m.worker(acc[lo-1].task)}
		for _, fr := range firsts {
			stage := m.cx.tasks[acc[m.accAt(cl, fr.pos)].task].stage
			fresh = append(fresh, m.newCopy(l, holders[0], fr.w, stage, copyKey(fr.pos)))
			at, _ := slices.BinarySearch(holders, fr.w)
			holders = slices.Insert(holders, at, fr.w)
		}
	}

	// Restoring copies: from the last segment's holders to every worker
	// that read the starting version and does not hold the final one.
	if last > 0 {
		if len(segs) == 0 || segs[len(segs)-1] != last {
			holders = []ids.WorkerID{m.worker(acc[cl.writes[last-1]].task)}
			from := copyKey(acc[cl.writes[last-1]].pos)
			for _, c := range kept {
				if c.Key > from && c.Key < restoreKey(m.cx.accesses, 0) {
					w := prev.Prov[c.Send].To
					at, _ := slices.BinarySearch(holders, w)
					holders = slices.Insert(holders, at, w)
				}
			}
		}
		readers := pcs
		if len(segs) == 0 || segs[0] != 0 {
			readers = m.oldPreconds(oldPCs)
		}
		for _, pc := range readers {
			if at, found := slices.BinarySearch(holders, pc.pc.Worker); !found {
				fresh = append(fresh, m.newCopy(l, holders[0], pc.pc.Worker, restoreStage, restoreKey(m.cx.accesses, pc.key)))
				holders = slices.Insert(holders, at, pc.pc.Worker)
			}
		}
		at, _ := slices.BinarySearchFunc(prev.Effects.Objects, l, func(oe ObjectEffect, l ids.LogicalID) int { return cmp.Compare(oe.Logical, l) })
		if oe := prev.Effects.Objects[at]; !slices.Equal(oe.FinalHolders, holders) {
			m.finals = append(m.finals, ObjectEffect{Logical: l, Bumps: oe.Bumps, FinalHolders: holders})
		}
	}
	if len(segs) > 0 && segs[0] == 0 {
		for _, pc := range oldPCs {
			m.pcGone = append(m.pcGone, pc.Key)
		}
		for _, pc := range pcs {
			m.pcs = append(m.pcs, pcRec{Logical: l, Key: pc.key})
		}
		m.pcAdded = append(m.pcAdded, pcs...)
	} else {
		m.pcs = append(m.pcs, oldPCs...)
	}
	if m.inexact {
		return nil
	}
	// prev's replayed copies whose provenance no fresh copy took are gone.
	for _, c := range gone {
		for _, idx := range []int32{c.Send, c.Recv} {
			if !m.made[prev.Prov[idx]] {
				m.removed = append(m.removed, idx)
				m.next.Entries[idx], m.next.WorkerOf[idx] = command.TemplateEntry{}, ids.NoWorker
				m.next.Prov[idx], m.next.key[idx] = Provenance{}, 0
			}
		}
	}
	pl := &logicalPlan{l: l, kept: kept, gone: gone, fresh: fresh, events: slices.Clone(m.events)}
	m.events = m.events[:0]
	return pl
}

// number gives the fresh copies with a new provenance their indexes, in
// key (program) order as a rebuild would: prev's lowest holes first, then
// growth.
func (m *migration) number(plans []*logicalPlan) {
	var fresh []*int32
	var keys []int32
	for _, pl := range plans {
		for i := range pl.fresh {
			c := &pl.fresh[i]
			if c.Send < 0 {
				fresh, keys = append(fresh, &c.Send), append(keys, c.Key)
			}
			if c.Recv < 0 {
				fresh, keys = append(fresh, &c.Recv), append(keys, recvKey(c.Key))
			}
		}
	}
	order := make([]int, len(fresh))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	next := m.next
	for _, i := range order {
		if m.hole < len(m.prev.holes) {
			*fresh[i] = m.prev.holes[m.hole]
			m.hole++
			continue
		}
		*fresh[i] = int32(len(next.Entries))
		next.Entries = append(next.Entries, command.TemplateEntry{})
		next.WorkerOf = append(next.WorkerOf, ids.NoWorker)
		next.Prov = append(next.Prov, Provenance{})
		next.key = append(next.key, 0)
	}
}

// accAt returns the index of the access at position pos.
func (m *migration) accAt(cl *coneLogical, pos int32) int {
	return sort.Search(len(cl.acc), func(i int) bool { return cl.acc[i].pos >= pos })
}

// oldPreconds returns prev's preconditions on one logical object (its
// records in pcOf) in key order.
func (m *migration) oldPreconds(pcs []pcRec) []keyedPrecond {
	prev := m.prev
	out := make([]keyedPrecond, 0, len(pcs))
	for _, pc := range pcs {
		at, _ := slices.BinarySearch(prev.pcKey, pc.Key)
		out = append(out, keyedPrecond{pc.Key, prev.Preconds[at]})
	}
	return out
}

// firstReads returns, in position order, the first read of l in segment j
// (accesses lo to hi) by every worker that reads it there under the new
// placement, less the segment's writer, which holds the version already.
// It starts from prev's (its copies' or preconditions' positions: old and
// oldPCs are l's records) and redoes only the workers a moved task's read
// joins or leaves.
func (m *migration) firstReads(l ids.LogicalID, j int, lo, hi int32, moves []int32, old []copyRec, oldPCs []pcRec) []firstRead {
	prev, cl := m.prev, m.cx.logicals[l]
	acc := cl.acc
	var firsts []firstRead
	var oldWriter, newWriter ids.WorkerID = ids.NoWorker, ids.NoWorker
	if j == 0 {
		for _, pc := range m.oldPreconds(oldPCs) {
			firsts = append(firsts, firstRead{pc.pc.Worker, pc.key})
		}
	} else {
		oldWriter = prev.WorkerOf[prev.taskIdx[acc[lo-1].task]]
		newWriter = m.worker(acc[lo-1].task)
		if lo < hi {
			from, to := copyKey(acc[lo].pos), recvKey(copyKey(acc[hi-1].pos))
			for _, c := range old {
				if c.Key >= from && c.Key <= to {
					firsts = append(firsts, firstRead{prev.Prov[c.Send].To, c.Key / 4})
				}
			}
		}
	}
	// Workers whose first read moved away, and a writer's worker that
	// stopped holding the version, need their first read looked up again.
	redo := func(w ids.WorkerID) {
		for k := range firsts {
			if firsts[k].w == w {
				firsts = slices.Delete(firsts, k, k+1)
				break
			}
		}
		lowKey, highKey := int32(-1), int32(1<<31-1)
		if lo > 0 {
			lowKey = m.cx.tasks[acc[lo-1].task].key
		}
		if hi < int32(len(acc)) {
			highKey = m.cx.tasks[acc[hi].task].key
		}
		if pos, ok := m.firstReadOf(l, w, lowKey, highKey); ok {
			firsts = append(firsts, firstRead{w, pos})
		}
	}
	if j > 0 && oldWriter != newWriter {
		redo(oldWriter)
	}
	for _, i := range moves {
		if acc[i].write || i < lo || i >= hi {
			continue
		}
		from := prev.WorkerOf[prev.taskIdx[acc[i].task]]
		for _, fr := range firsts {
			if fr.w == from && fr.pos == acc[i].pos {
				redo(from)
				break
			}
		}
	}
	for _, i := range moves {
		if acc[i].write || i < lo || i >= hi {
			continue
		}
		to, pos := m.moved[acc[i].task], acc[i].pos
		k := slices.IndexFunc(firsts, func(fr firstRead) bool { return fr.w == to })
		switch {
		case k < 0:
			firsts = append(firsts, firstRead{to, pos})
		case firsts[k].pos > pos:
			firsts[k].pos = pos
		}
	}
	if k := slices.IndexFunc(firsts, func(fr firstRead) bool { return fr.w == newWriter }); k >= 0 {
		firsts = slices.Delete(firsts, k, k+1)
	}
	slices.SortFunc(firsts, func(a, b firstRead) int { return cmp.Compare(a.pos, b.pos) })
	return firsts
}

// firstReadOf returns the position of the first read of l, by a task of
// prev on w that does not move, whose key is in (lowKey, highKey]. prev's
// epochs of l's object on w hold the readers in key order.
func (m *migration) firstReadOf(l ids.LogicalID, w ids.WorkerID, lowKey, highKey int32) (int32, bool) {
	prev := m.prev
	eps := m.oldEpochs(l, w)
	e := sort.Search(len(eps), func(i int) bool { return eps[i].wkey > lowKey })
	if e > 0 {
		e--
	}
	for ; e < len(eps); e++ {
		rs := eps[e].readers
		for i := sort.Search(len(rs), func(i int) bool { return prev.key[rs[i]] > lowKey }); i < len(rs); i++ {
			m.visited++
			r := rs[i]
			if prev.key[r] > highKey {
				return 0, false
			}
			p := prev.Prov[r]
			if p.Kind != provTask {
				continue
			}
			f := m.cx.offset[p.Stage] + p.Task
			if _, moved := m.moved[f]; moved {
				continue
			}
			cl := m.cx.logicals[l]
			return cl.acc[sort.Search(len(cl.acc), func(i int) bool { return cl.acc[i].task >= f })].pos, true
		}
	}
	return 0, false
}

// oldEpochs returns prev's epochs of l's object on w, which must exist.
func (m *migration) oldEpochs(l ids.LogicalID, w ids.WorkerID) []epoch {
	if at, ok := findLedger(m.prev.Effects.Ledger[w], m.inst.Instance(l, w)); ok {
		return m.prev.epochsOf(w, at)
	}
	return nil
}

// freshCopy is a replayed copy pair: its record and the provenances its
// indexes were picked by.
type freshCopy struct {
	copyRec
	send, recv Provenance
}

// newCopy returns the copy pair of l from src to dst at key.
func (m *migration) newCopy(l ids.LogicalID, src, dst ids.WorkerID, stage, key int32) freshCopy {
	c := freshCopy{
		send: Provenance{Kind: provSend, Stage: stage, Logical: l, From: src, To: dst},
		recv: Provenance{Kind: provRecv, Stage: stage, Logical: l, To: dst},
	}
	c.copyRec = copyRec{Logical: l, Key: key, Send: m.indexFor(c.send), Recv: m.indexFor(c.recv)}
	return c
}

// indexFor is buildState.indexFor for a replayed copy: prev's index of the
// same provenance, or -1 for number to fill in. A provenance made twice
// cannot be numbered exactly.
func (m *migration) indexFor(p Provenance) int32 {
	if m.made[p] {
		m.inexact = true
	}
	m.made[p] = true
	if idx, ok := m.oldByProv[p]; ok {
		return idx
	}
	return -1
}

// matchCopies compares the replayed copies of l (fresh) with prev's copies
// in the replayed ranges (gone), both in key order. A send or receive at
// the same key with the same index stands; otherwise prev's access goes and
// the fresh entry is written and its access added.
func (m *migration) matchCopies(l ids.LogicalID, gone []copyRec, fresh []freshCopy) {
	prev := m.prev
	for len(gone) > 0 || len(fresh) > 0 {
		var o *copyRec
		var n *freshCopy
		switch {
		case len(fresh) == 0 || len(gone) > 0 && gone[0].Key < fresh[0].Key:
			o, gone = &gone[0], gone[1:]
		case len(gone) == 0 || fresh[0].Key < gone[0].Key:
			n, fresh = &fresh[0], fresh[1:]
		default:
			o, n, gone, fresh = &gone[0], &fresh[0], gone[1:], fresh[1:]
		}
		sendSame := o != nil && n != nil && o.Send == n.Send
		recvSame := o != nil && n != nil && o.Recv == n.Recv
		if o != nil && !sendSame {
			m.event(l, prev.WorkerOf[o.Send], objEvent{idx: o.Send, key: o.Key})
		}
		if o != nil && !recvSame {
			m.event(l, prev.WorkerOf[o.Recv], objEvent{idx: o.Recv, key: recvKey(o.Key), write: true})
		}
		if n == nil || sendSame && recvSame {
			continue
		}
		src, dst := n.send.From, n.send.To
		objs := []ids.ObjectID{m.inst.Instance(l, src), m.inst.Instance(l, dst)}
		sendE, recvE := copyEntries(l, dst, n.Send, n.Recv, objs)
		if !sendSame {
			m.stage(sendE, src, n.send, n.Key)
			m.event(l, src, objEvent{idx: n.Send, key: n.Key, added: true})
		}
		if !recvSame {
			m.stage(recvE, dst, n.recv, recvKey(n.Key))
			m.event(l, dst, objEvent{idx: n.Recv, key: recvKey(n.Key), write: true, added: true})
		}
	}
}

// mergeCopies merges two key-ordered copy lists.
func mergeCopies(kept []copyRec, fresh []freshCopy) []copyRec {
	out := make([]copyRec, 0, len(kept)+len(fresh))
	for len(kept) > 0 || len(fresh) > 0 {
		if len(fresh) == 0 || len(kept) > 0 && kept[0].Key < fresh[0].Key {
			out, kept = append(out, kept[0]), kept[1:]
		} else {
			out, fresh = append(out, fresh[0].copyRec), fresh[1:]
		}
	}
	return out
}

// stage writes a replayed entry into next; its before set comes later.
func (m *migration) stage(e command.TemplateEntry, w ids.WorkerID, p Provenance, key int32) {
	m.next.Entries[e.Index], m.next.WorkerOf[e.Index] = e, w
	m.next.Prov[e.Index], m.next.key[e.Index] = p, key
	m.rebuild[e.Index] = true
}

// mark queues entry idx for a before-set recomputation.
func (m *migration) mark(idx int32) {
	if _, ok := m.rebuild[idx]; !ok && idx >= 0 {
		m.rebuild[idx] = false
	}
}

// event queues an access of l's object on w that prev and next do not
// share.
func (m *migration) event(l ids.LogicalID, w ids.WorkerID, ev objEvent) {
	m.events = append(m.events, workerEvent{w, ev})
}

type workerEvent struct {
	w  ids.WorkerID
	ev objEvent
}

// spliceAll splices the queued accesses of l into its objects' epochs, one
// object (worker) at a time.
func (m *migration) spliceAll(l ids.LogicalID) {
	evs := m.events
	slices.SortStableFunc(evs, func(a, b workerEvent) int { return cmp.Compare(a.w, b.w) })
	for len(evs) > 0 {
		n := 1
		for n < len(evs) && evs[n].w == evs[0].w {
			n++
		}
		group := m.group[:0]
		for i := 0; i < n; i++ {
			group = append(group, evs[i].ev)
		}
		m.group = group
		m.splice(l, evs[0].w, group)
		evs = evs[n:]
	}
	m.events = m.events[:0]
}

// splice applies one object's differing accesses to prev's epochs of it:
// gone accesses leave, a gone write merging its epoch into the one before,
// then added accesses join, an added write splitting the epoch it lands
// in. It marks the entries whose dependencies through the object change:
// the added ones, the readers whose epoch's writer changes, and the writer
// after every epoch whose readers or writer change.
func (m *migration) splice(l ids.LogicalID, w ids.WorkerID, evs []objEvent) {
	prev, next := m.prev, m.next
	o := m.inst.Instance(l, w)
	at0, had := findLedger(prev.Effects.Ledger[w], o)
	eps := []epoch{{writer: -1, wkey: -1}}
	if had {
		eps = slices.Clone(prev.epochsOf(w, at0))
	}
	owned := append(m.owned[:0], make([]bool, len(eps))...) // readers this splice copied
	own := func(e int) []int32 {
		if !owned[e] {
			eps[e].readers, owned[e] = slices.Clone(eps[e].readers), true
		}
		return eps[e].readers
	}
	markNext := func(e int) {
		if e+1 < len(eps) {
			m.mark(eps[e+1].writer)
		}
	}
	epochOf := func(key int32) int { // the epoch a read at key falls in
		return sort.Search(len(eps), func(i int) bool { return eps[i].wkey >= key }) - 1
	}
	for _, ev := range evs {
		if ev.added {
			continue
		}
		m.visited++
		if ev.write {
			e := epochOf(ev.key) + 1
			for eps[e].writer != ev.idx {
				e++
			}
			for _, r := range eps[e].readers {
				m.mark(r)
			}
			m.visited += len(eps[e].readers)
			eps[e-1].readers = append(own(e-1), eps[e].readers...)
			eps, owned = slices.Delete(eps, e, e+1), slices.Delete(owned, e, e+1)
			markNext(e - 1)
			continue
		}
		e := epochOf(ev.key)
		rs := own(e)
		i := sort.Search(len(rs), func(i int) bool { return prev.key[rs[i]] >= ev.key })
		for rs[i] != ev.idx {
			i++
		}
		eps[e].readers = slices.Delete(rs, i, i+1)
		markNext(e)
	}
	added := m.added[:0]
	for _, ev := range evs {
		if ev.added {
			added = append(added, ev)
		}
	}
	m.added = added
	slices.SortStableFunc(added, func(a, b objEvent) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		switch {
		case a.write == b.write:
			return 0
		case b.write:
			return -1
		}
		return 1
	})
	for _, ev := range added {
		m.visited++
		m.mark(ev.idx)
		e := epochOf(ev.key)
		rs := eps[e].readers
		i := sort.Search(len(rs), func(i int) bool { return next.key[rs[i]] > ev.key })
		if !ev.write {
			eps[e].readers = slices.Insert(own(e), i, ev.idx)
			markNext(e)
			continue
		}
		after := rs[i:len(rs):len(rs)]
		for _, r := range after {
			m.mark(r)
		}
		m.visited += len(after)
		eps[e].readers = rs[:i:i]
		eps = slices.Insert(eps, e+1, epoch{writer: ev.idx, wkey: ev.key, readers: after})
		owned = slices.Insert(owned, e+1, false)
		markNext(e + 1)
	}

	m.owned = owned
	m.epochs[o] = eps
	if len(eps) == 1 && len(eps[0].readers) == 0 {
		m.epochs[o] = nil
		if had {
			m.dropped[w] = append(m.dropped[w], o)
		}
		eps = nil
	} else {
		m.ledgerSet[w] = append(m.ledgerSet[w], ledgerEffect(o, eps))
	}
	if _, kept := prev.history[w][o]; kept || eps != nil && !plainHistory(eps) {
		if m.histSet[w] == nil {
			m.histSet[w] = make(map[ids.ObjectID][]epoch)
		}
		if eps != nil && plainHistory(eps) {
			eps = nil
		}
		m.histSet[w][o] = eps
	}
}

// findLedger returns o's position in a worker's ledger effects.
func findLedger(les []LedgerEffect, o ids.ObjectID) (int, bool) {
	return slices.BinarySearchFunc(les, o, func(le LedgerEffect, o ids.ObjectID) int { return cmp.Compare(le.Object, o) })
}

// epochsOf returns next's epochs of object o on w.
func (m *migration) epochsOf(w ids.WorkerID, o ids.ObjectID) []epoch {
	if eps, ok := m.epochs[o]; ok {
		return eps
	}
	if at, ok := findLedger(m.prev.Effects.Ledger[w], o); ok {
		return m.prev.epochsOf(w, at)
	}
	return nil
}

// beforeSets recomputes the before set of every marked entry from next's
// epochs, as pass C would have, and reports whether every access was found.
func (m *migration) beforeSets() bool {
	next := m.next
	var deps []int32
	for idx, rewritten := range m.rebuild {
		e := &next.Entries[idx]
		if e.Kind == 0 {
			continue
		}
		m.visited++
		w, key := next.WorkerOf[idx], next.key[idx]
		deps = deps[:0]
		for _, o := range e.Reads {
			eps := m.epochsOf(w, o)
			at := sort.Search(len(eps), func(i int) bool { return eps[i].wkey >= key }) - 1
			if at < 0 {
				return false
			}
			if eps[at].writer >= 0 {
				deps = appendUniqueIdx(deps, eps[at].writer)
			}
		}
		for j, o := range e.Writes {
			eps := m.epochsOf(w, o)
			at := sort.Search(len(eps), func(i int) bool { return eps[i].wkey >= key })
			at += countOf(e.Writes[:j], o) // a task writing one object twice
			if at < 1 || at >= len(eps) || eps[at].writer != idx {
				return false
			}
			deps = writeDeps(eps[at-1], idx, deps)
		}
		if !rewritten && sameIndexSet(deps, e.BeforeIdx) {
			continue
		}
		e.BeforeIdx = nil
		if len(deps) > 0 {
			e.BeforeIdx = slices.Clone(deps)
		}
	}
	return true
}

func countOf(s []ids.ObjectID, o ids.ObjectID) int {
	n := 0
	for _, x := range s {
		if x == o {
			n++
		}
	}
	return n
}

// assemble finishes next's lists, effects and
// metadata from prev's by splicing in what changed, and diffs the touched
// indexes.
func (m *migration) assemble(cone []ids.LogicalID) *DiffResult {
	prev, next := m.prev, m.next
	touched := make([]int32, 0, len(m.rebuild)+len(m.removed))
	for idx := range m.rebuild {
		touched = append(touched, idx)
	}
	touched = append(touched, m.removed...)
	slices.Sort(touched)
	touched = slices.Compact(touched)

	// Live count, per-worker lists and holes.
	gone := make(map[ids.WorkerID][]int32)
	added := make(map[ids.WorkerID][]int32)
	var tomb []int32
	for _, idx := range touched {
		wasLive := idx < int32(len(prev.Entries)) && prev.Entries[idx].Kind != 0
		isLive := next.Entries[idx].Kind != 0
		oldW, newW := ids.NoWorker, ids.NoWorker
		if wasLive {
			oldW = prev.WorkerOf[idx]
		}
		if isLive {
			newW = next.WorkerOf[idx]
		} else {
			tomb = append(tomb, idx)
		}
		if oldW == newW {
			continue
		}
		if wasLive {
			next.live--
			gone[oldW] = append(gone[oldW], idx)
		}
		if isLive {
			next.live++
			added[newW] = append(added[newW], idx)
		}
	}
	next.PerWorker = maps.Clone(prev.PerWorker)
	for w, list := range gone {
		next.PerWorker[w] = splice(next.PerWorker[w], ident, list, added[w])
		delete(added, w)
	}
	for w, list := range added {
		next.PerWorker[w] = splice(next.PerWorker[w], ident, nil, list)
	}
	for w, list := range next.PerWorker {
		if len(list) == 0 {
			delete(next.PerWorker, w)
		}
	}
	next.holes = splice(prev.holes[m.hole:], ident, nil, tomb)
	n := len(next.Entries)
	for n > 0 && next.Entries[n-1].Kind == 0 {
		n--
	}
	next.Entries, next.WorkerOf, next.Prov, next.key = next.Entries[:n], next.WorkerOf[:n], next.Prov[:n], next.key[:n]
	for len(next.holes) > 0 && int(next.holes[len(next.holes)-1]) >= n {
		next.holes = next.holes[:len(next.holes)-1]
	}

	// Preconditions, in the order a build makes them, and the per-object
	// records of copies and preconditions.
	slices.Sort(m.pcGone)
	slices.SortFunc(m.pcAdded, func(a, b keyedPrecond) int { return cmp.Compare(a.key, b.key) })
	keyed := make([]keyedPrecond, len(prev.Preconds))
	for i, pc := range prev.Preconds {
		keyed[i] = keyedPrecond{prev.pcKey[i], pc}
	}
	keyed = splice(keyed, func(pc keyedPrecond) int32 { return pc.key }, m.pcGone, m.pcAdded)
	next.Preconds, next.pcKey = make([]Precond, len(keyed)), make([]int32, len(keyed))
	for i, pc := range keyed {
		next.Preconds[i], next.pcKey[i] = pc.pc, pc.key
	}
	next.copyOf = replaceRuns(prev.copyOf, copyLogical, cone, m.copies)
	next.pcOf = replaceRuns(prev.pcOf, pcLogical, cone, m.pcs)

	// Effects, and the epochs beside the ledger effects.
	next.Effects.Objects = prev.Effects.Objects
	if len(m.finals) > 0 {
		objs := slices.Clone(prev.Effects.Objects)
		for _, oe := range m.finals {
			at, _ := slices.BinarySearchFunc(objs, oe.Logical, func(x ObjectEffect, l ids.LogicalID) int { return cmp.Compare(x.Logical, l) })
			objs[at] = oe
		}
		packHolders(objs)
		next.Effects.Objects = objs
	}
	next.Effects.Ledger = maps.Clone(prev.Effects.Ledger)
	byObject := func(le LedgerEffect) ids.ObjectID { return le.Object }
	workers := make(map[ids.WorkerID]bool)
	for w := range m.ledgerSet {
		workers[w] = true
	}
	for w := range m.dropped {
		workers[w] = true
	}
	for w := range workers {
		set, rm := m.ledgerSet[w], m.dropped[w]
		slices.SortFunc(set, func(a, b LedgerEffect) int { return cmp.Compare(a.Object, b.Object) })
		for _, le := range set {
			if _, had := findLedger(prev.Effects.Ledger[w], le.Object); had {
				rm = append(rm, le.Object)
			}
		}
		slices.Sort(rm)
		if les := splice(prev.Effects.Ledger[w], byObject, rm, set); len(les) > 0 {
			packReaders(les)
			next.Effects.Ledger[w] = les
		} else {
			delete(next.Effects.Ledger, w)
		}
	}
	next.history = prev.history
	if len(m.histSet) > 0 {
		next.history = maps.Clone(prev.history)
		for w, set := range m.histSet {
			h := maps.Clone(prev.history[w])
			if h == nil {
				h = make(map[ids.ObjectID][]epoch)
			}
			for o, eps := range set {
				if eps == nil {
					delete(h, o)
				} else {
					h[o] = eps
				}
			}
			if len(h) == 0 {
				delete(next.history, w)
			} else {
				next.history[w] = h
			}
		}
	}

	res := &DiffResult{Edits: make(map[ids.WorkerID]*command.Edit)}
	for _, idx := range touched {
		res.compare(prev, next, idx)
	}
	res.classifyWorkers(prev, next)
	res.Visited = m.visited
	return res
}

func ident(x int32) int32 { return x }

// splice returns a copy of s, which is sorted by key, without the elements
// whose keys rm lists and with add merged in; rm and add are sorted, and an
// element both removed and added is replaced. Runs between the changes are
// copied, not compared, so the work beyond the copy is O(changes · log n).
func splice[T any, K cmp.Ordered](s []T, key func(T) K, rm []K, add []T) []T {
	out := make([]T, 0, len(s)-len(rm)+len(add))
	i := 0
	for len(rm) > 0 || len(add) > 0 {
		if len(rm) > 0 && (len(add) == 0 || rm[0] <= key(add[0])) {
			at := i + sort.Search(len(s)-i, func(j int) bool { return key(s[i+j]) >= rm[0] })
			out = append(out, s[i:at]...)
			i = min(at+1, len(s))
			rm = rm[1:]
			continue
		}
		at := i + sort.Search(len(s)-i, func(j int) bool { return key(s[i+j]) > key(add[0]) })
		out = append(out, s[i:at]...)
		out = append(out, add[0])
		i = at
		add = add[1:]
	}
	return append(out, s[i:]...)
}

// replaceRuns returns a copy of s, sorted by logical object, with the runs
// of the logical objects in cone (sorted) replaced by their runs in repl.
func replaceRuns[T any](s []T, logical func(T) ids.LogicalID, cone []ids.LogicalID, repl []T) []T {
	out := make([]T, 0, len(s)+len(repl))
	i := 0
	for _, l := range cone {
		lo := i + sort.Search(len(s)-i, func(j int) bool { return logical(s[i+j]) >= l })
		hi := lo + sort.Search(len(s)-lo, func(j int) bool { return logical(s[lo+j]) > l })
		n := sort.Search(len(repl), func(j int) bool { return logical(repl[j]) > l })
		out = append(append(out, s[i:lo]...), repl[:n]...)
		i, repl = hi, repl[n:]
	}
	return append(out, s[i:]...)
}
