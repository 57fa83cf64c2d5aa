package cluster

import (
	"bytes"
	"hash/fnv"
	"testing"

	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/params"
)

// fnHashAll digests every grouped input partition with FNV-1a and writes
// the sum of the 32-bit digests (exact in a float64), so the test can
// verify every byte of every partition survived the shuffle bit-identical
// without hauling the partitions back through the driver.
const fnHashAll ids.FunctionID = fn.FirstAppFunc + 100

// TestShuffleLargePartitionsSpill is the data-plane acceptance test: a
// grouped stage pulls 1 MiB partitions — an order of magnitude larger
// than any other test object — across workers whose receive budget is a
// fraction of one partition. The transfers must stream chunked under
// credit flow control, spill to disk at the receiver, and reassemble
// bit-identically.
func TestShuffleLargePartitionsSpill(t *testing.T) {
	reg := testRegistry(t)
	reg.MustRegister(fnHashAll, "test/fnv-all", func(c *fn.Ctx) error {
		sum := 0.0
		for i := 0; i < c.NumReads(); i++ {
			h := fnv.New32a()
			h.Write(c.Read(i))
			sum += float64(h.Sum32())
		}
		c.SetWrite(0, params.NewEncoder(16).Floats([]float64{sum}).Blob())
		return nil
	})
	c := startTestCluster(t, Options{
		Workers:  2,
		Registry: reg,
		// 64 KiB chunks, and a receive budget a fraction of one partition:
		// every cross-worker transfer must spill at the receiver.
		ChunkSize:  64 << 10,
		RecvBudget: 128 << 10,
	})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const parts = 4
	const partBytes = 1 << 20
	x := d.MustVar("x", parts)
	h := d.MustVar("h", 1)
	want := 0.0
	partData := make([][]byte, parts)
	for p := 0; p < parts; p++ {
		data := make([]byte, partBytes)
		for i := range data {
			data[i] = byte((i*2654435761 + p*97) >> 7)
		}
		partData[p] = data
		hs := fnv.New32a()
		hs.Write(data)
		want += float64(hs.Sum32())
		if err := d.Put(x, p, data); err != nil {
			t.Fatalf("put partition %d: %v", p, err)
		}
	}

	// One grouped task reads all partitions: whichever worker runs it must
	// shuffle every remote partition over the streaming data plane.
	if err := d.Submit(fnHashAll, 1, nil, x.ReadGrouped(), h.WriteShared()); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetFloats(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("digest sum = %v, want [%v]: shuffled partitions corrupted", got, want)
	}

	// The transfers were chunked and the bounded receiver spilled.
	var chunksSent, chunksRecv, xfersRecv, spills, spilledBytes uint64
	for _, w := range c.Workers {
		chunksSent += w.Stats.ChunksSent.Load()
		chunksRecv += w.Stats.ChunksRecv.Load()
		xfersRecv += w.Stats.XfersRecv.Load()
		spills += w.Stats.Spills.Load()
		spilledBytes += w.Stats.SpilledBytes.Load()
	}
	if xfersRecv == 0 || chunksRecv == 0 {
		t.Fatalf("no chunked transfers crossed workers (xfers=%d chunks=%d) — partitions rode some other path", xfersRecv, chunksRecv)
	}
	if chunksSent < xfersRecv*2 {
		t.Errorf("ChunksSent = %d for %d transfers: 1 MiB partitions were not split into 64 KiB chunks", chunksSent, xfersRecv)
	}
	if spills == 0 {
		t.Errorf("receive budget of 128 KiB never spilled a 1 MiB transfer (SpilledBytes=%d)", spilledBytes)
	}

	// Fetching a partition back also rides the chunked path (worker →
	// controller → driver) and must round-trip bit-identically.
	back, err := d.Get(x, parts-1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, partData[parts-1]) {
		t.Fatalf("fetched partition differs from what was put (%d vs %d bytes)", len(back), len(partData[parts-1]))
	}
}
