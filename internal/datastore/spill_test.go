package datastore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func newTestSpillFS(t *testing.T) *SpillFS {
	t.Helper()
	fs, err := NewSpillFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func spillBytes(t *testing.T, fs *SpillFS, data []byte) *Spilled {
	t.Helper()
	sw, err := fs.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 100 {
		end := off + 100
		if end > len(data) {
			end = len(data)
		}
		if err := sw.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := sw.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// A spilled install is disk-backed until the first read faults it in,
// bit-identical, consuming the spill file.
func TestSpillInstallFaultIn(t *testing.T) {
	fs := newTestSpillFS(t)
	data := bytes.Repeat([]byte{7, 11, 13}, 1000)
	sp := spillBytes(t, fs, data)

	s := New()
	s.InstallSpilled(42, 5, 3, sp)
	if got := s.Spilled(); got != 1 {
		t.Fatalf("Spilled() = %d, want 1", got)
	}
	o := s.Get(42)
	if o == nil {
		t.Fatal("object missing")
	}
	if !bytes.Equal(o.Data, data) {
		t.Fatal("faulted data differs from spilled data")
	}
	if o.Version != 3 {
		t.Fatalf("version %d, want 3", o.Version)
	}
	if s.Faults() != 1 {
		t.Fatalf("Faults() = %d, want 1", s.Faults())
	}
	if s.Spilled() != 0 {
		t.Fatal("object still counted as spilled after fault-in")
	}
	if _, err := os.Stat(sp.Path); !os.IsNotExist(err) {
		t.Fatal("spill file not consumed by fault-in")
	}
	// A second read must not fault again.
	s.Get(42)
	if s.Faults() != 1 {
		t.Fatal("second read faulted again")
	}
}

// Ensure faults in just like Get (the task read path uses Ensure).
func TestSpillEnsureFaultIn(t *testing.T) {
	fs := newTestSpillFS(t)
	data := []byte("spilled body")
	s := New()
	s.InstallSpilled(7, 1, 1, spillBytes(t, fs, data))
	if got := s.Ensure(7, 1).Data; !bytes.Equal(got, data) {
		t.Fatalf("Ensure data = %q, want %q", got, data)
	}
	if s.Faults() != 1 {
		t.Fatalf("Faults() = %d, want 1", s.Faults())
	}
}

// Install and Destroy over a never-read spilled body must remove the
// spill file — torn-down jobs cannot leak disk.
func TestSpillSupersedeAndDestroyCleanUp(t *testing.T) {
	fs := newTestSpillFS(t)
	s := New()

	sp1 := spillBytes(t, fs, []byte("one"))
	s.InstallSpilled(1, 1, 1, sp1)
	s.Install(1, 1, 2, []byte("fresh"))
	if _, err := os.Stat(sp1.Path); !os.IsNotExist(err) {
		t.Fatal("superseded spill file not removed")
	}

	sp2 := spillBytes(t, fs, []byte("two"))
	s.InstallSpilled(2, 2, 1, sp2)
	s.Destroy(2)
	if _, err := os.Stat(sp2.Path); !os.IsNotExist(err) {
		t.Fatal("destroyed object's spill file not removed")
	}

	sp3 := spillBytes(t, fs, []byte("three"))
	s.InstallSpilled(3, 3, 1, sp3)
	s.Clear()
	if _, err := os.Stat(sp3.Path); !os.IsNotExist(err) {
		t.Fatal("cleared store's spill file not removed")
	}
	if s.Faults() != 0 {
		t.Fatal("cleanup paths must not count as faults")
	}
}

// Snapshot must surface spilled bodies in Data (checkpointing reads it).
func TestSpillSnapshotFaultsIn(t *testing.T) {
	fs := newTestSpillFS(t)
	data := bytes.Repeat([]byte{9}, 500)
	s := New()
	s.InstallSpilled(9, 4, 2, spillBytes(t, fs, data))
	snap := s.Snapshot()
	if len(snap) != 1 || !bytes.Equal(snap[0].Data, data) {
		t.Fatal("snapshot did not fault spilled body in")
	}
}

// An aborted writer leaves nothing behind.
func TestSpillWriterAbort(t *testing.T) {
	fs := newTestSpillFS(t)
	sw, err := fs.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	sw.Abort()
	ents, err := os.ReadDir(fs.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Fatalf("abort left %s behind", filepath.Join(fs.Dir(), e.Name()))
	}
}

// Ensure takes the shard's read lock when the object exists in memory and
// the write lock to create it or fault it in. Run under -race: Ensure, Get,
// Install, InstallSpilled and Destroy race on one ID; Ensure must always
// return an object, no spill file may outlive the object it backed, and a
// body must never be faulted twice.
func TestEnsureRacesInstallDestroyAndSpillFault(t *testing.T) {
	fs := newTestSpillFS(t)
	s := New()
	const id, rounds = 9, 300
	bodies := make([]*Spilled, rounds)
	for i := range bodies {
		bodies[i] = spillBytes(t, fs, []byte("spilled body"))
	}
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		run(func(int) {
			if s.Ensure(id, 1) == nil {
				t.Error("Ensure returned nil")
			}
		})
	}
	run(func(int) { s.Get(id) })
	run(func(i int) { s.Install(id, 1, uint64(i), []byte{byte(i)}) })
	run(func(int) { s.Destroy(id) })
	run(func(i int) { s.InstallSpilled(id, 1, uint64(i), bodies[i]) })
	wg.Wait()
	if got := s.Faults(); got > rounds {
		t.Fatalf("Faults() = %d for %d spilled installs: a body was faulted twice", got, rounds)
	}
	if o := s.Ensure(id, 1); o == nil || o.spill != nil {
		t.Fatalf("Ensure after the race = %+v, want an in-memory object", o)
	}
	s.Destroy(id)
	left, err := os.ReadDir(fs.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d spill files left behind", len(left))
	}
}
