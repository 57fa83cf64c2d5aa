package flow

import (
	"fmt"
	"sync"

	"nimbus/internal/ids"
)

// This file implements the snapshot half of the off-loop template build
// pipeline (snapshot -> build -> commit). The controller's event loop takes
// an immutable Snapshot of the directory's instance table, hands it to a
// background builder, and later commits the builder's newly allocated
// instances back — or discards them if the directory moved underneath.
//
// Snapshots are cached: the directory keeps the last snapshot it produced
// and reuses it until an instance-table mutation invalidates it, so
// repeated snapshots in a mutation-free steady state are O(1).

// Snapshot is an immutable copy of a Directory's instance table (which
// physical object backs each (logical, worker) pair). Staleness is
// detected at commit time by conflict, not by epoch: the controller
// additionally guards commits with its own placement epoch and the
// directory's identity.
type Snapshot struct {
	base  map[ids.LogicalID]map[ids.WorkerID]ids.ObjectID
	alloc *ids.ObjectIDs
}

// View returns a fresh build view over the snapshot. Each build group gets
// its own view; the view is safe for concurrent use by the goroutines of
// one build group.
func (s *Snapshot) View() *BuildView {
	return &BuildView{snap: s, alloc: s.alloc, overlay: make(map[instKey]ids.ObjectID)}
}

// LiveView returns a build view whose base is the directory itself rather
// than a snapshot of it: nothing is copied, but lookups read the live
// table, so the view may be used only while nothing mutates the directory
// — by a build group the event loop runs and waits for, as a migration
// does. It commits like any view.
func (d *Directory) LiveView() *BuildView {
	return &BuildView{live: d, alloc: d.objectIDs, overlay: make(map[instKey]ids.ObjectID)}
}

type instKey struct {
	l ids.LogicalID
	w ids.WorkerID
}

// BuildView is a Snapshot plus an overlay of instances allocated during an
// off-loop build. Lookups hit the immutable base first; misses allocate
// from the directory's shared (atomic) object-ID allocator and are recorded
// in the overlay for the commit step. A BuildView is safe for concurrent
// use.
type BuildView struct {
	mu      sync.Mutex
	snap    *Snapshot  // the base, or nil for a live view
	live    *Directory // a live view's base
	alloc   *ids.ObjectIDs
	overlay map[instKey]ids.ObjectID
}

// Instance implements the builder's instance resolution against the
// snapshot: stable IDs for pairs the directory already knew, fresh IDs
// (staged in the overlay) for pairs first touched by this build. The base
// is immutable, so the common case — a pair the directory already tracks —
// is lock-free; only overlay allocations take the mutex.
func (v *BuildView) Instance(l ids.LogicalID, w ids.WorkerID) ids.ObjectID {
	if v.live != nil {
		if r := v.live.Lookup(l, w); r != nil {
			return r.Object
		}
	} else if m, ok := v.snap.base[l]; ok {
		if o, ok := m[w]; ok {
			return o
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	k := instKey{l, w}
	if o, ok := v.overlay[k]; ok {
		return o
	}
	o := v.alloc.Next()
	v.overlay[k] = o
	return o
}

// ErrStaleSnapshot reports a commit conflict: the directory allocated a
// different instance for a (logical, worker) pair the build also allocated,
// so the built assignment references objects the directory will never
// track. The caller must rebuild from a fresh snapshot.
var ErrStaleSnapshot = fmt.Errorf("flow: snapshot stale: directory changed during build")

// Commit replays the view's overlay allocations into dir. It fails with
// ErrStaleSnapshot (committing nothing further) if dir concurrently
// allocated a conflicting instance for any overlaid pair. Pairs adopted
// before the conflict was found are harmless: they are valid allocations
// for objects the discarded build would have introduced anyway.
func (v *BuildView) Commit(dir *Directory) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for k, o := range v.overlay {
		if r := dir.Lookup(k.l, k.w); r != nil {
			if r.Object == o {
				continue
			}
			return ErrStaleSnapshot
		}
		dir.AdoptInstance(k.l, k.w, o)
	}
	return nil
}
