package flow

import (
	"testing"
	"testing/quick"

	"nimbus/internal/ids"
)

func TestDirectoryVersioning(t *testing.T) {
	var alloc ids.ObjectIDs
	d := NewDirectory(&alloc)
	const l ids.LogicalID = 1
	o1 := d.Instance(l, 1)
	o2 := d.Instance(l, 2)
	if o1 == o2 {
		t.Fatal("instances on different workers must differ")
	}
	if d.Instance(l, 1) != o1 {
		t.Fatal("instance must be stable")
	}
	// Unwritten object: everyone with a replica is trivially latest.
	if !d.IsLatest(l, 1) || !d.IsLatest(l, 2) {
		t.Fatal("latest of unwritten object")
	}
	if v := d.RecordWrite(l, 1); v != 1 {
		t.Fatalf("version = %d", v)
	}
	if d.IsLatest(l, 2) {
		t.Fatal("stale replica considered latest")
	}
	if h := d.LatestHolder(l); h != 1 {
		t.Fatalf("holder = %v", h)
	}
	d.RecordCopy(l, 2)
	if !d.IsLatest(l, 2) {
		t.Fatal("copy should make replica latest")
	}
	if !d.IsLatest(l, 1) {
		t.Fatal("copy should leave the source latest")
	}
	d.RecordWrite(l, 2)
	if d.IsLatest(l, 1) {
		t.Fatal("old holder still latest after write elsewhere")
	}
}

func TestDirectoryBlockEffect(t *testing.T) {
	var alloc ids.ObjectIDs
	d := NewDirectory(&alloc)
	const l ids.LogicalID = 1
	d.Instance(l, 1)
	d.Instance(l, 2)
	d.RecordWrite(l, 1)
	d.ApplyBlockEffect(l, 3, []ids.WorkerID{2})
	if d.Latest(l) != 4 {
		t.Fatalf("latest = %d", d.Latest(l))
	}
	if d.IsLatest(l, 1) || !d.IsLatest(l, 2) {
		t.Fatal("block effect holders wrong")
	}
}

func TestDirectoryDropWorker(t *testing.T) {
	var alloc ids.ObjectIDs
	d := NewDirectory(&alloc)
	const l ids.LogicalID = 1
	d.Instance(l, 1)
	d.Instance(l, 2)
	d.RecordWrite(l, 1)
	d.DropWorker(1)
	if d.LatestHolder(l) != ids.NoWorker {
		t.Fatal("dropped worker still a holder")
	}
	if d.Lookup(l, 1) != nil {
		t.Fatal("dropped replica still resolvable")
	}
}

// TestDirectoryRewind: a rewound directory keeps the IDs of every instance
// inside the set, forgets every replica outside it, and then reads as a
// fresh directory does after the same block effects (a recovery's loads).
func TestDirectoryRewind(t *testing.T) {
	var alloc, freshAlloc ids.ObjectIDs
	d, fresh := NewDirectory(&alloc), NewDirectory(&freshAlloc)
	set := []ids.WorkerID{1, 2}
	workers := []ids.WorkerID{1, 2, 3}
	logicals := []ids.LogicalID{1, 2, 3, 4}
	kept := make(map[[2]uint64]ids.ObjectID)
	for _, l := range logicals {
		for _, w := range workers {
			o := d.Instance(l, w)
			if w != 3 {
				kept[[2]uint64{uint64(l), uint64(w)}] = o
				fresh.Instance(l, w)
			}
		}
	}
	// Versions on every worker, the outside one latest for logical 3.
	d.RecordWrite(1, 1)
	d.RecordCopy(1, 2)
	d.RecordWrite(2, 2)
	d.RecordWrite(3, 3)
	d.ApplyBlockEffect(4, 5, []ids.WorkerID{1, 3})

	d.Rewind(set)
	for _, l := range logicals {
		for _, w := range set {
			if got, want := d.Instance(l, w), kept[[2]uint64{uint64(l), uint64(w)}]; got != want {
				t.Fatalf("%s on %s: instance %s after the rewind, want %s", l, w, got, want)
			}
		}
		if d.Lookup(l, 3) != nil {
			t.Fatalf("%s: replica outside the set survived the rewind", l)
		}
	}
	for _, dir := range []*Directory{d, fresh} {
		dir.ApplyBlockEffect(1, 7, []ids.WorkerID{2})
		dir.ApplyBlockEffect(3, 2, []ids.WorkerID{1})
	}
	for _, l := range logicals {
		if got, want := d.Latest(l), fresh.Latest(l); got != want {
			t.Errorf("%s: Latest %d, fresh directory %d", l, got, want)
		}
		if got, want := d.LatestHolder(l), fresh.LatestHolder(l); got != want {
			t.Errorf("%s: LatestHolder %s, fresh directory %s", l, got, want)
		}
		for _, w := range workers {
			if got, want := d.IsLatest(l, w), fresh.IsLatest(l, w); got != want {
				t.Errorf("%s on %s: IsLatest %v, fresh directory %v", l, w, got, want)
			}
		}
	}
}

func TestLedgerEdges(t *testing.T) {
	l := NewLedger(1)
	const o ids.ObjectID = 1
	// First reader: no edges.
	if deps := l.Read(o, 10, nil); len(deps) != 0 {
		t.Fatalf("deps = %v", deps)
	}
	// Writer after readers: write-after-read edges.
	l.Read(o, 11, nil)
	deps := l.Write(o, 12, nil)
	if len(deps) != 2 {
		t.Fatalf("write deps = %v, want readers 10 and 11", deps)
	}
	// Reader after write: read-after-write edge.
	deps = l.Read(o, 13, nil)
	if len(deps) != 1 || deps[0] != 12 {
		t.Fatalf("read deps = %v", deps)
	}
	// Writer after write+read: both edges, deduplicated.
	deps = l.Write(o, 14, nil)
	if len(deps) != 2 {
		t.Fatalf("write deps = %v", deps)
	}
	if l.LastWriter(o) != 14 {
		t.Fatalf("last writer = %v", l.LastWriter(o))
	}
}

func TestLedgerSetState(t *testing.T) {
	l := NewLedger(1)
	const o ids.ObjectID = 1
	l.SetState(o, 100, []ids.CommandID{101, 102})
	deps := l.Write(o, 103, nil)
	if len(deps) != 3 {
		t.Fatalf("deps = %v, want writer+2 readers", deps)
	}
}

// Property: after any sequence of reads and writes, a new writer depends
// on the last writer (transitively ordering all prior access).
func TestQuickLedgerWriterOrdering(t *testing.T) {
	f := func(ops []bool) bool {
		l := NewLedger(1)
		const o ids.ObjectID = 1
		var lastWrite ids.CommandID
		id := ids.CommandID(1)
		for _, isWrite := range ops {
			id++
			if isWrite {
				deps := l.Write(o, id, nil)
				if lastWrite != ids.NoCommand {
					found := false
					for _, d := range deps {
						if d == lastWrite {
							found = true
						}
					}
					// The previous writer may be ordered transitively
					// through intervening readers; if there were no
					// readers, the edge must be direct.
					if !found && len(deps) == 0 {
						return false
					}
				}
				lastWrite = id
			} else {
				l.Read(o, id, nil)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDirectorySnapshotEpochCache: snapshots are cached per epoch and
// invalidated by instance-table mutations, not version bumps.
func TestDirectorySnapshotEpochCache(t *testing.T) {
	var alloc ids.ObjectIDs
	d := NewDirectory(&alloc)
	const l ids.LogicalID = 1
	o1 := d.Instance(l, 1)

	s1 := d.Snapshot()
	if s2 := d.Snapshot(); s2 != s1 {
		t.Fatal("mutation-free snapshot was recopied")
	}
	// Version bumps must not stale the snapshot: builds read only the
	// instance table.
	d.RecordWrite(l, 1)
	if s2 := d.Snapshot(); s2 != s1 {
		t.Fatal("version bump invalidated the snapshot")
	}
	// A new instance must.
	o2 := d.Instance(l, 2)
	s3 := d.Snapshot()
	if s3 == s1 {
		t.Fatal("instance allocation did not invalidate the cached snapshot")
	}

	// The view resolves existing pairs to their stable IDs and stages
	// fresh pairs in its overlay.
	v := s3.View()
	if got := v.Instance(l, 1); got != o1 {
		t.Fatalf("view resolved (l,1) to %s, want %s", got, o1)
	}
	fresh := v.Instance(l, 3)
	if again := v.Instance(l, 3); again != fresh {
		t.Fatal("overlay allocation not stable within the view")
	}
	if got := v.Instance(l, 2); got != o2 {
		t.Fatalf("view resolved (l,2) to %s, want %s", got, o2)
	}
	if err := v.Commit(d); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := d.Instance(l, 3); got != fresh {
		t.Fatalf("directory did not adopt the view's allocation: %s != %s", got, fresh)
	}
}

// TestSnapshotCommitConflict: if the directory allocates a different
// instance for a pair the build also allocated, the commit must fail so
// the controller rebuilds from a fresh snapshot.
func TestSnapshotCommitConflict(t *testing.T) {
	var alloc ids.ObjectIDs
	d := NewDirectory(&alloc)
	const l ids.LogicalID = 7
	d.Instance(l, 1)

	v := d.Snapshot().View()
	buildObj := v.Instance(l, 2) // staged off-loop
	liveObj := d.Instance(l, 2)  // racing on-loop allocation
	if buildObj == liveObj {
		t.Fatal("distinct allocations collided")
	}
	if err := v.Commit(d); err == nil {
		t.Fatal("conflicting commit succeeded")
	}
	// The live allocation must be untouched.
	if got := d.Instance(l, 2); got != liveObj {
		t.Fatalf("conflict clobbered the live instance: %s != %s", got, liveObj)
	}
}

// TestLedgerSnapshot: ledger snapshots are immutable copies.
func TestLedgerSnapshot(t *testing.T) {
	led := NewLedger(1)
	const o ids.ObjectID = 9
	led.Write(o, 10, nil)
	led.Read(o, 11, nil)

	s := led.Snapshot()
	if s.Worker() != 1 {
		t.Fatalf("snapshot worker = %s, want w:1", s.Worker())
	}
	if s.LastWriter(o) != 10 {
		t.Fatalf("snapshot last writer = %s, want cmd:10", s.LastWriter(o))
	}
	if rs := s.Readers(o); len(rs) != 1 || rs[0] != 11 {
		t.Fatalf("snapshot readers = %v, want [cmd:11]", rs)
	}
	// Later mutations must not leak into the taken snapshot.
	led.Write(o, 12, nil)
	if s.LastWriter(o) != 10 {
		t.Fatal("snapshot mutated by later ledger write")
	}
	if s2 := led.Snapshot(); s2.LastWriter(o) != 12 {
		t.Fatal("fresh snapshot missing later write")
	}
}
