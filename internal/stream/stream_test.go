package stream

import (
	"bytes"
	"errors"
	"testing"

	"nimbus/internal/proto"
)

func chunk(xfer uint64, seq uint32, last bool, total uint64, raw []byte) *proto.DataChunk {
	return &proto.DataChunk{Xfer: xfer, Seq: seq, Last: last, Total: total, Raw: raw}
}

func TestReassembleInOrder(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	ra := &Reassembler{Xfer: 7, Total: 1000, ChunkSize: 400}
	var got []byte
	for off := 0; off < len(data); off += 400 {
		end := off + 400
		if end > len(data) {
			end = len(data)
		}
		raw, err := ra.Accept(chunk(7, uint32(off/400), end == len(data), 1000, data[off:end]))
		if err != nil {
			t.Fatalf("chunk at %d: %v", off, err)
		}
		got = append(got, raw...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes differ from input")
	}
	if ra.Got() != 1000 {
		t.Fatalf("Got() = %d, want 1000", ra.Got())
	}
}

// Out-of-order Seq (a gap) must abort the transfer — on an ordered
// connection it can only mean sender or frame corruption.
func TestHostileChunkSeqGap(t *testing.T) {
	ra := &Reassembler{Xfer: 1, Total: 100, ChunkSize: 50}
	if _, err := ra.Accept(chunk(1, 1, false, 100, make([]byte, 50))); err == nil || errors.Is(err, ErrDup) {
		t.Fatalf("sequence gap not rejected: %v", err)
	}
}

// Duplicate Seq is dropped silently (ErrDup): a sender that redialed
// mid-transfer replays the prefix the receiver already landed.
func TestHostileChunkDupSeq(t *testing.T) {
	ra := &Reassembler{Xfer: 1, Total: 100, ChunkSize: 50}
	if _, err := ra.Accept(chunk(1, 0, false, 100, make([]byte, 50))); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	if _, err := ra.Accept(chunk(1, 0, false, 100, make([]byte, 50))); !errors.Is(err, ErrDup) {
		t.Fatalf("duplicate chunk: got %v, want ErrDup", err)
	}
	// The duplicate must not advance state: the true next chunk lands.
	if _, err := ra.Accept(chunk(1, 1, true, 100, make([]byte, 50))); err != nil {
		t.Fatalf("chunk after duplicate: %v", err)
	}
}

// Truncated Raw: a Last chunk that closes the transfer short of Total.
func TestHostileChunkTruncated(t *testing.T) {
	ra := &Reassembler{Xfer: 1, Total: 100, ChunkSize: 100}
	if _, err := ra.Accept(chunk(1, 0, true, 100, make([]byte, 40))); err == nil {
		t.Fatal("short final chunk not rejected")
	}
}

// A flag bit this build does not know — the retired compression bit 0, or
// anything above ChunkFetch — aborts the transfer rather than landing bytes
// whose meaning the receiver cannot know.
func TestHostileChunkUnknownFlags(t *testing.T) {
	for _, flags := range []uint8{1 << 0, 1 << 2, 1 << 7, proto.ChunkFetch | 1<<0} {
		ra := &Reassembler{Xfer: 1, Total: 100, ChunkSize: 100}
		c := chunk(1, 0, true, 100, make([]byte, 100))
		c.Flags = flags
		if _, err := ra.Accept(c); err == nil || errors.Is(err, ErrDup) {
			t.Fatalf("flags %#x not rejected: %v", flags, err)
		}
		if ra.Got() != 0 {
			t.Fatalf("flags %#x: rejected chunk advanced the reassembler to %d", flags, ra.Got())
		}
	}
	ra := &Reassembler{Xfer: 1, Total: 100, ChunkSize: 100}
	c := chunk(1, 0, true, 100, make([]byte, 100))
	c.Flags = proto.ChunkFetch
	raw, err := ra.Accept(c)
	if err != nil {
		t.Fatalf("ChunkFetch chunk rejected: %v", err)
	}
	if &raw[0] != &c.Raw[0] {
		t.Fatal("Accept returned a copy of c.Raw, not c.Raw")
	}
}

// Chunks overflowing the declared Total must abort.
func TestHostileChunkTotalOverflow(t *testing.T) {
	ra := &Reassembler{Xfer: 1, Total: 60, ChunkSize: 50}
	if _, err := ra.Accept(chunk(1, 0, false, 60, make([]byte, 50))); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	if _, err := ra.Accept(chunk(1, 1, false, 60, make([]byte, 50))); err == nil {
		t.Fatal("overflow past Total not rejected")
	}
}

// A mid-transfer change of the declared Total is a protocol violation.
func TestHostileChunkTotalFlip(t *testing.T) {
	ra := &Reassembler{Xfer: 1, Total: 100, ChunkSize: 50}
	if _, err := ra.Accept(chunk(1, 0, false, 100, make([]byte, 50))); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	if _, err := ra.Accept(chunk(1, 1, false, 999, make([]byte, 50))); err == nil {
		t.Fatal("total flip not rejected")
	}
}

// A chunk larger than the negotiated chunk size is refused
// (it would bypass the per-chunk memory bound credits account in).
func TestHostileChunkOversized(t *testing.T) {
	ra := &Reassembler{Xfer: 1, Total: 1 << 20, ChunkSize: 1 << 10}
	if _, err := ra.Accept(chunk(1, 0, false, 1<<20, make([]byte, 1<<16))); err == nil {
		t.Fatal("oversized chunk not rejected")
	}
}
