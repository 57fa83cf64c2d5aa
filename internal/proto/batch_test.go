package proto

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"nimbus/internal/bufpool"
	"nimbus/internal/ids"
	"nimbus/internal/wire"
)

// TestBatchRoundTrip coalesces one instance of every message kind into a
// single batch frame and verifies order and fidelity on decode.
func TestBatchRoundTrip(t *testing.T) {
	msgs := everyMessage()
	frame := AppendBatch(nil, msgs)
	if MsgKind(frame[0]) != KindBatch {
		t.Fatalf("frame kind = %d, want KindBatch", frame[0])
	}
	var got []Msg
	if err := ForEachMsg(frame, func(m Msg) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !reflect.DeepEqual(msgs[i], got[i]) {
			t.Errorf("message %d (%s) mismatch:\n got %#v\nwant %#v",
				i, msgs[i].Kind(), got[i], msgs[i])
		}
	}
}

// TestBatchSingleMessageIsBare verifies the one-message optimization: a
// batch of one is encoded as the bare message (no frame tax) and still
// decodes through ForEachMsg.
func TestBatchSingleMessageIsBare(t *testing.T) {
	m := &Heartbeat{Worker: 3, Pending: 1, Done: 42}
	frame := AppendBatch(nil, []Msg{m})
	if !reflect.DeepEqual(frame, Marshal(m)) {
		t.Fatalf("one-message batch = %x, want bare marshal %x", frame, Marshal(m))
	}
	n := 0
	if err := ForEachMsg(frame, func(got Msg) error {
		n++
		if !reflect.DeepEqual(got, m) {
			t.Errorf("got %#v, want %#v", got, m)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("decoded %d messages, want 1", n)
	}
}

// FrameRun is AppendBatch for a sender that marshals first and counts
// afterwards: same bytes, at one message (bare), at the count's one-byte
// limit and past it.
func TestFrameRunMatchesAppendBatch(t *testing.T) {
	for _, n := range []int{1, 2, 127, 128, 300} {
		msgs := make([]Msg, n)
		var run []byte
		for i := range msgs {
			msgs[i] = &DataPayload{Job: 1, DstCommand: ids.CommandID(1000 + i), Object: 7, Version: uint64(i), Data: []byte{byte(i)}}
			run = MarshalAppend(run, msgs[i])
		}
		if got, want := FrameRun(run, n), AppendBatch(nil, msgs); !bytes.Equal(got, want) {
			t.Fatalf("FrameRun of %d messages = %x, AppendBatch = %x", n, got, want)
		}
	}
}

// TestBatchTruncated decodes every truncation of a batch frame: each must
// return an error or a clean prefix, never panic, and never silently
// deliver a partial final message.
func TestBatchTruncated(t *testing.T) {
	msgs := []Msg{
		&InstallTemplate{Template: 1, Name: "blk"},
		&InstantiateTemplate{Template: 1, Instance: 2, Base: 1000, DoneWatermark: 900},
		&InstantiatePatch{Patch: 3, Base: 2000},
	}
	frame := AppendBatch(nil, msgs)
	for cut := 0; cut < len(frame); cut++ {
		err := ForEachMsg(frame[:cut], func(Msg) error { return nil })
		if err == nil {
			t.Errorf("truncation at %d/%d decoded cleanly", cut, len(frame))
		}
	}
}

// TestBatchHostileCounts feeds batch frames with oversized or corrupt
// counts: the count validation must reject them before any allocation
// proportional to the claimed count.
func TestBatchHostileCounts(t *testing.T) {
	var w wire.Writer
	w.Byte(byte(KindBatch))
	w.Uvarint(1 << 40) // claims a trillion messages, carries none
	if err := ForEachMsg(w.Buf, func(Msg) error { return nil }); err == nil {
		t.Fatal("oversized count decoded cleanly")
	}

	// Count larger than the actual message tail.
	w.Buf = w.Buf[:0]
	w.Byte(byte(KindBatch))
	w.Uvarint(3)
	w.Buf = MarshalAppend(w.Buf, &Barrier{Seq: 1})
	if err := ForEachMsg(w.Buf, func(Msg) error { return nil }); err == nil {
		t.Fatal("count exceeding payload decoded cleanly")
	}

	// Trailing garbage after the declared count.
	w.Buf = w.Buf[:0]
	w.Byte(byte(KindBatch))
	w.Uvarint(1)
	w.Buf = MarshalAppend(w.Buf, &Barrier{Seq: 1})
	w.Byte(0xEE)
	if err := ForEachMsg(w.Buf, func(Msg) error { return nil }); err == nil {
		t.Fatal("trailing bytes after batch decoded cleanly")
	}

	// A nested batch kind inside a batch is not a message.
	w.Buf = w.Buf[:0]
	w.Byte(byte(KindBatch))
	w.Uvarint(1)
	w.Byte(byte(KindBatch))
	if err := ForEachMsg(w.Buf, func(Msg) error { return nil }); err == nil {
		t.Fatal("nested batch decoded cleanly")
	}
}

// TestForEachMsgNeverPanics fuzzes the frame decoder the same way
// TestUnmarshalNeverPanics fuzzes the message decoder.
func TestForEachMsgNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", b, r)
			}
		}()
		_ = ForEachMsg(b, func(Msg) error { return nil })
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestBufPool exercises the Get/Put cycle and the oversize drop.
func TestBufPool(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("GetBuf returned %d bytes of content", len(b))
	}
	b = append(b, 1, 2, 3)
	PutBuf(b)
	// Oversized buffers must be dropped, not pooled.
	PutBuf(make([]byte, 0, bufpool.MaxCap+1))
	// Recycling a buffer we do not own again would corrupt the pool; the
	// API contract (not the implementation) prevents that, so just verify
	// a fresh Get is usable.
	c := GetBuf()
	c = MarshalAppend(c, &Barrier{Seq: 7})
	if _, err := Unmarshal(c); err != nil {
		t.Fatalf("pooled buffer round trip: %v", err)
	}
	PutBuf(c)
}

// TestMarshalSteadyStateZeroAlloc is the regression guard for the pooled
// fast path: re-encoding the steady-state instantiation message into a
// pooled buffer must not allocate.
func TestMarshalSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops puts; zero-alloc is unverifiable")
	}
	msg := steadyStateInstantiate()
	// Warm the buffer and header pools.
	for i := 0; i < 64; i++ {
		b := GetBuf()
		b = MarshalAppend(b, msg)
		PutBuf(b)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b := GetBuf()
		b = MarshalAppend(b, msg)
		PutBuf(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state marshal allocates %.1f times per op, want 0", allocs)
	}
}

// TestUnmarshalAllocCeiling bounds what decoding costs on the two paths that
// run per iteration: the steady-state instantiation is its message and
// nothing else (empty ParamArray and Edits decode as nil, the coder is
// pooled), a data payload is its message plus the copy of Data.
func TestUnmarshalAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops puts; the ceiling is unverifiable")
	}
	for _, tc := range []struct {
		m       Msg
		ceiling float64
	}{
		{steadyStateInstantiate(), 1},
		{&DataPayload{Job: 1, DstCommand: 1<<40 + 3, Object: 9, Logical: 4, Version: 77, Data: make([]byte, 13)}, 2},
	} {
		frame := Marshal(tc.m)
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := Unmarshal(frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.ceiling {
			t.Errorf("Unmarshal of a %s allocates %.1f times per op, want at most %.0f", tc.m.Kind(), allocs, tc.ceiling)
		}
	}
}

// TestMarshalSteadyStatePooledCorrectness is the race-safe companion to
// TestMarshalSteadyStateZeroAlloc: the alloc assertion above is meaningless
// under -race (sync.Pool randomly drops puts there), but the pooled
// GetBuf/MarshalAppend/PutBuf cycle itself must still produce faithful
// frames, including when buffers are recycled across goroutines. This
// variant runs everywhere, so the codec fast path is exercised under the
// race detector too.
func TestMarshalSteadyStatePooledCorrectness(t *testing.T) {
	want := steadyStateInstantiate()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref := Marshal(want)
			for i := 0; i < 500; i++ {
				b := GetBuf()
				b = MarshalAppend(b, want)
				if !reflect.DeepEqual(b, ref) {
					t.Errorf("pooled marshal produced %x, want %x", b, ref)
				} else if got, err := Unmarshal(b); err != nil {
					t.Errorf("pooled marshal round trip: %v", err)
				} else if got.(*InstantiateTemplate).Base != want.Base {
					t.Errorf("round trip Base = %d, want %d", got.(*InstantiateTemplate).Base, want.Base)
				}
				PutBuf(b)
			}
		}()
	}
	wg.Wait()
}

// steadyStateInstantiate is the message the controller sends each worker on
// every steady-state block instantiation (no edits, cached parameters).
func steadyStateInstantiate() *InstantiateTemplate {
	return &InstantiateTemplate{
		Template:      7,
		Instance:      941,
		Base:          1 << 40,
		DoneWatermark: 1<<40 - 8101,
	}
}
