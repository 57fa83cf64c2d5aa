// Package datastore implements a worker's in-memory physical data object
// store.
//
// Nimbus tasks operate on mutable data objects (paper §3.3): supporting
// in-place modification avoids copies, lets loop iterations reuse object
// identifiers (so templates can cache them), and keeps the object
// population small. A physical object is one worker-resident instance of a
// logical object; it has a stable ObjectID, a logical identity, a version
// label and a byte buffer. Received data installs by pointer swap (paper
// §3.4): the transport reads into a fresh buffer and the store swaps it in
// once the receive command's before set is satisfied.
package datastore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"nimbus/internal/ids"
)

// Object is one physical data object instance.
type Object struct {
	ID      ids.ObjectID
	Logical ids.LogicalID
	// Version labels the data currently held, as assigned by the
	// controller's directory. It is bookkeeping for checkpoints and
	// debugging; ordering correctness comes from command before sets.
	Version uint64
	// Data is the object's buffer. Task functions may mutate it in place
	// or replace it entirely.
	Data []byte
	// spill holds the object's body on disk while it is spilled (Data is
	// nil then); readers fault it back in through the store.
	spill *Spilled
}

// DefaultShards is the shard count New uses. Executor goroutines resolve
// read/write sets concurrently with the control loop's creates and
// installs; sharding keeps them off a single mutex.
const DefaultShards = 16

// shard is one lock domain of the table. The padding rounds the struct to
// 128 bytes so neighbouring shards' mutexes never share a cache line.
type shard struct {
	mu      sync.RWMutex
	objects map[ids.ObjectID]*Object
	_       [128 - 32]byte
}

// Store holds a worker's physical objects. It is safe for concurrent use:
// executor goroutines read and write objects while the control loop creates
// and destroys them.
//
// The table is split into power-of-two shards keyed by a multiplicative
// hash of the ObjectID, so parallel executors resolving disjoint objects do
// not serialize on one RWMutex. Object *contents* are not protected by the
// store: the control plane's before sets guarantee exclusive access during
// writes, which is the same contract Nimbus's C++ workers rely on.
type Store struct {
	shards []shard
	mask   uint64
	// faults counts spilled objects faulted back into memory on read.
	faults atomic.Uint64
}

// New returns an empty store with DefaultShards shards.
func New() *Store { return NewSharded(DefaultShards) }

// NewSharded returns an empty store with n shards, rounded up to a power of
// two (n <= 1 gives a single-lock store, which benchmarks use as the
// pre-sharding baseline).
func NewSharded(n int) *Store {
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Store{shards: make([]shard, size), mask: uint64(size - 1)}
	for i := range s.shards {
		s.shards[i].objects = make(map[ids.ObjectID]*Object)
	}
	return s
}

// shardOf picks the lock domain for an object. Fibonacci hashing spreads
// the controller's sequentially allocated ObjectIDs across shards.
func (s *Store) shardOf(id ids.ObjectID) *shard {
	return &s.shards[(uint64(id)*0x9E3779B97F4A7C15)>>32&s.mask]
}

// Create allocates an object. Creating an existing ID is an error.
func (s *Store) Create(id ids.ObjectID, logical ids.LogicalID, data []byte) error {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.objects[id]; ok {
		return fmt.Errorf("datastore: object %s already exists", id)
	}
	sh.objects[id] = &Object{ID: id, Logical: logical, Data: data}
	return nil
}

// Ensure returns the object with the given ID, creating an empty one bound
// to logical if absent. Copy receives and patches use Ensure so that data
// movement can materialize instances lazily. Executors call it for every
// read and write of every task, nearly always on an object that exists and
// is in memory, so that case takes only the shard's read lock (Get); the
// write lock is for creating the object.
func (s *Store) Ensure(id ids.ObjectID, logical ids.LogicalID) *Object {
	if o := s.Get(id); o != nil {
		return o
	}
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o := sh.ensureLocked(id, logical)
	if o.spill != nil {
		s.faultLocked(o)
	}
	return o
}

func (sh *shard) ensureLocked(id ids.ObjectID, logical ids.LogicalID) *Object {
	if o, ok := sh.objects[id]; ok {
		return o
	}
	o := &Object{ID: id, Logical: logical}
	sh.objects[id] = o
	return o
}

// Get returns the object or nil if absent, faulting a spilled body back
// into memory so callers always observe Data populated.
func (s *Store) Get(id ids.ObjectID) *Object {
	sh := s.shardOf(id)
	sh.mu.RLock()
	o := sh.objects[id]
	spilled := o != nil && o.spill != nil
	sh.mu.RUnlock()
	if !spilled {
		return o
	}
	// Upgrade to the write lock for the fault; re-check under it, since a
	// concurrent reader may have faulted (or an Install superseded) the
	// spill between the locks.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o = sh.objects[id]
	if o != nil && o.spill != nil {
		s.faultLocked(o)
	}
	return o
}

// Destroy removes an object. Destroying a missing object is a no-op, which
// keeps Destroy idempotent across recovery replays.
func (s *Store) Destroy(id ids.ObjectID) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	o := sh.objects[id]
	delete(sh.objects, id)
	sh.mu.Unlock()
	if o != nil && o.spill != nil {
		o.spill.Remove()
	}
}

// Install swaps fresh data into the object, creating it if needed, in one
// critical section — lookup, creation and mutation hold the shard lock
// together, so no concurrent Install can interleave between the ensure and
// the swap. It implements the receive-side pointer swap of the push-model
// data plane.
func (s *Store) Install(id ids.ObjectID, logical ids.LogicalID, version uint64, data []byte) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	o := sh.ensureLocked(id, logical)
	old := o.spill
	o.Data = data
	o.Version = version
	o.spill = nil
	if o.Logical == ids.NoLogical {
		o.Logical = logical
	}
	sh.mu.Unlock()
	if old != nil {
		// A fresh install supersedes a spilled body that was never read.
		old.Remove()
	}
}

// Len reports the number of live objects.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.objects)
		sh.mu.RUnlock()
	}
	return n
}

// Snapshot returns the live objects sorted by ID, as one point-in-time
// view: all shard locks are held together (in index order) while
// collecting, so concurrent creates and destroys cannot produce a
// membership set that never existed. Spilled objects are faulted back in
// — checkpointing reads Data — which is why the locks are exclusive.
// The data slices are shared, so the caller must finish with them before
// execution resumes.
func (s *Store) Snapshot() []*Object {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += len(s.shards[i].objects)
	}
	out := make([]*Object, 0, n)
	for i := range s.shards {
		for _, o := range s.shards[i].objects {
			if o.spill != nil {
				s.faultLocked(o)
			}
			out = append(out, o)
		}
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Clear removes every object (recovery reload starts from a clean store).
func (s *Store) Clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		old := sh.objects
		sh.objects = make(map[ids.ObjectID]*Object)
		sh.mu.Unlock()
		for _, o := range old {
			if o.spill != nil {
				o.spill.Remove()
			}
		}
	}
}
