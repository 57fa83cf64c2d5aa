// Package flow implements the controller's data-flow bookkeeping: the
// object directory (which worker holds which version of each logical data
// object) and the per-worker dependency ledgers from which command before
// sets are derived.
//
// Nimbus data objects are mutable, so several physical replicas of a
// logical object can coexist at different versions (paper §3.3). The
// directory tracks, per logical object, the latest version number and every
// replica's version, and guarantees — through the copies the controller
// inserts — that tasks always read the latest value according to program
// order. The ledgers record, per worker and per physical object, the last
// writing command and the readers since, which is exactly the information
// needed to emit before sets (write-after-read and read-after-write edges)
// for newly scheduled commands.
package flow

import (
	"fmt"
	"slices"

	"nimbus/internal/ids"
)

// Replica is one physical instance of a logical object.
type Replica struct {
	Worker ids.WorkerID
	Object ids.ObjectID
	// Version is the data version this replica holds. A replica is live
	// when Version equals the logical object's Latest.
	Version uint64
}

// entry is the directory's per-logical-object record.
type entry struct {
	logical  ids.LogicalID
	latest   uint64
	replicas map[ids.WorkerID]*Replica
}

// Directory tracks every logical object's replicas. It is confined to the
// controller's event loop and is not safe for concurrent use; Snapshot
// produces immutable views that background builds may read concurrently.
type Directory struct {
	objectIDs *ids.ObjectIDs
	entries   map[ids.LogicalID]*entry
	// snap caches the snapshot of the current instance table; any
	// instance-table mutation (allocation, adoption, a dropped replica)
	// drops it, so repeat snapshots between mutations are free. Version
	// bumps deliberately do not: template builds read only the instance
	// table.
	snap *Snapshot
}

// NewDirectory returns an empty directory drawing physical object IDs from
// alloc.
func NewDirectory(alloc *ids.ObjectIDs) *Directory {
	return &Directory{
		objectIDs: alloc,
		entries:   make(map[ids.LogicalID]*entry),
	}
}

func (d *Directory) entryOf(l ids.LogicalID) *entry {
	e, ok := d.entries[l]
	if !ok {
		e = &entry{logical: l, replicas: make(map[ids.WorkerID]*Replica)}
		d.entries[l] = e
	}
	return e
}

// Instance returns the stable physical instance of logical object l on
// worker w, allocating one on first use. Stability is what lets execution
// templates cache physical object IDs across iterations (paper §3.3).
func (d *Directory) Instance(l ids.LogicalID, w ids.WorkerID) ids.ObjectID {
	e := d.entryOf(l)
	if r, ok := e.replicas[w]; ok {
		return r.Object
	}
	r := &Replica{Worker: w, Object: d.objectIDs.Next()}
	// A brand-new replica holds no data yet; version 0 is stale unless the
	// logical object has never been written (latest == 0).
	e.replicas[w] = r
	d.mutated()
	return r.Object
}

// AdoptInstance installs a pre-allocated physical instance for (l, w) —
// the commit half of an off-loop build, replaying the build view's overlay
// allocations. It panics if the pair already has a different instance; the
// caller must have checked for conflicts (BuildView.Commit does).
func (d *Directory) AdoptInstance(l ids.LogicalID, w ids.WorkerID, o ids.ObjectID) {
	e := d.entryOf(l)
	if r, ok := e.replicas[w]; ok {
		if r.Object != o {
			panic(fmt.Sprintf("flow: adopt of %s at %s conflicts: have %s, adopting %s",
				l, w, r.Object, o))
		}
		return
	}
	e.replicas[w] = &Replica{Worker: w, Object: o}
	d.mutated()
}

// mutated drops the cached snapshot after an instance-table mutation.
func (d *Directory) mutated() {
	d.snap = nil
}

// Snapshot returns an immutable copy of the instance table for off-loop
// template builds. The copy is cached: in a mutation-free steady state
// repeated snapshots return the same object without copying.
func (d *Directory) Snapshot() *Snapshot {
	if d.snap != nil {
		return d.snap
	}
	base := make(map[ids.LogicalID]map[ids.WorkerID]ids.ObjectID, len(d.entries))
	for l, e := range d.entries {
		m := make(map[ids.WorkerID]ids.ObjectID, len(e.replicas))
		for w, r := range e.replicas {
			m[w] = r.Object
		}
		base[l] = m
	}
	d.snap = &Snapshot{base: base, alloc: d.objectIDs}
	return d.snap
}

// Lookup returns the replica of l on w, or nil.
func (d *Directory) Lookup(l ids.LogicalID, w ids.WorkerID) *Replica {
	if e, ok := d.entries[l]; ok {
		return e.replicas[w]
	}
	return nil
}

// Latest returns the latest version number of l (0 if never written).
func (d *Directory) Latest(l ids.LogicalID) uint64 {
	if e, ok := d.entries[l]; ok {
		return e.latest
	}
	return 0
}

// IsLatest reports whether worker w holds the latest version of l. An
// unwritten logical object (latest 0) is trivially latest everywhere a
// replica exists.
func (d *Directory) IsLatest(l ids.LogicalID, w ids.WorkerID) bool {
	e, ok := d.entries[l]
	if !ok {
		return false
	}
	r, ok := e.replicas[w]
	if !ok {
		return false
	}
	return r.Version == e.latest
}

// LatestHolder returns some worker holding the latest version of l, or
// NoWorker if none does (an unwritten object has no holder unless a replica
// was Put).
func (d *Directory) LatestHolder(l ids.LogicalID) ids.WorkerID {
	e, ok := d.entries[l]
	if !ok {
		return ids.NoWorker
	}
	var best ids.WorkerID
	for w, r := range e.replicas {
		if r.Version == e.latest {
			// Prefer the lowest worker ID for determinism.
			if best == ids.NoWorker || w < best {
				best = w
			}
		}
	}
	return best
}

// RecordWrite registers that worker w produced a new version of l and
// returns the new version number. Every other replica becomes stale.
func (d *Directory) RecordWrite(l ids.LogicalID, w ids.WorkerID) uint64 {
	e := d.entryOf(l)
	r, ok := e.replicas[w]
	if !ok {
		panic(fmt.Sprintf("flow: write of %s at %s without instance", l, w))
	}
	e.latest++
	r.Version = e.latest
	return e.latest
}

// RecordCopy registers that the latest version of l was copied to worker w.
func (d *Directory) RecordCopy(l ids.LogicalID, w ids.WorkerID) {
	e := d.entryOf(l)
	r, ok := e.replicas[w]
	if !ok {
		panic(fmt.Sprintf("flow: copy of %s to %s without instance", l, w))
	}
	r.Version = e.latest
}

// ApplyBlockEffect advances the directory state by a template instance's
// summarized effect: the logical object gains bumps new versions and the
// final holders end at the new latest (paper §2.2: instantiating a
// controller template replays its cached bookkeeping).
func (d *Directory) ApplyBlockEffect(l ids.LogicalID, bumps uint64, finalHolders []ids.WorkerID) {
	e := d.entryOf(l)
	e.latest += bumps
	for _, w := range finalHolders {
		r, ok := e.replicas[w]
		if !ok {
			panic(fmt.Sprintf("flow: block effect on %s names %s without instance", l, w))
		}
		r.Version = e.latest
	}
}

// DropWorker removes every replica held by worker w (a decommissioned
// worker, whose latest versions were flushed elsewhere first).
func (d *Directory) DropWorker(w ids.WorkerID) {
	for _, e := range d.entries {
		if _, ok := e.replicas[w]; ok {
			delete(e.replicas, w)
			d.mutated()
		}
	}
}

// Rewind returns the directory to the state of one that has never been
// written, over the workers of set (sorted): every replica held outside set
// is dropped, every other instance keeps its ID, and every latest and
// replica version returns to 0. A recovery rewinds once the workers in set
// have cleared the job's objects, so no replica can match a latest version
// it does not hold.
func (d *Directory) Rewind(set []ids.WorkerID) {
	for l, e := range d.entries {
		e.latest = 0
		for w, r := range e.replicas {
			if _, ok := slices.BinarySearch(set, w); ok {
				r.Version = 0
				continue
			}
			delete(e.replicas, w)
			d.mutated()
		}
		if len(e.replicas) == 0 {
			delete(d.entries, l)
		}
	}
}

// Logicals calls fn for every logical object with at least one replica.
func (d *Directory) Logicals(fn func(l ids.LogicalID, latest uint64, replicas map[ids.WorkerID]*Replica)) {
	for l, e := range d.entries {
		fn(l, e.latest, e.replicas)
	}
}
