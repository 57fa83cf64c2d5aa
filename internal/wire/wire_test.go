package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Byte(7)
	w.Uvarint(0)
	w.Uvarint(1<<63 + 5)
	w.Varint(-42)
	w.Uint32(0xdeadbeef)
	w.Uint64(1 << 60)
	w.Float64(math.Pi)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte("hello"))
	w.String("world")
	w.Float64s([]float64{0.5, -0.5})

	r := NewReader(w.Buf)
	if got := r.Byte(); got != 7 {
		t.Fatalf("byte = %d", got)
	}
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<63+5 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Varint(); got != -42 {
		t.Fatalf("varint = %d", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Fatalf("uint32 = %x", got)
	}
	if got := r.Uint64(); got != 1<<60 {
		t.Fatalf("uint64 = %x", got)
	}
	if got := r.Float64(); got != math.Pi {
		t.Fatalf("float = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatalf("bools wrong")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("bytes = %q", got)
	}
	if got := r.String(); got != "world" {
		t.Fatalf("string = %q", got)
	}
	f := r.Float64s()
	if len(f) != 2 || f[0] != 0.5 || f[1] != -0.5 {
		t.Fatalf("float64s = %v", f)
	}
	if r.Err != nil {
		t.Fatalf("reader error: %v", r.Err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestTruncation(t *testing.T) {
	var w Writer
	w.Bytes([]byte("payload"))
	for cut := 0; cut < w.Len(); cut++ {
		r := NewReader(w.Buf[:cut])
		r.Bytes()
		if r.Err == nil {
			t.Fatalf("no error at cut %d", cut)
		}
	}
}

func TestErrLatched(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uint64()
	if r.Err == nil {
		t.Fatal("expected error")
	}
	first := r.Err
	_ = r.Byte()
	_ = r.String()
	if r.Err != first {
		t.Fatalf("error replaced: %v", r.Err)
	}
}

// Property: any (uvarint, bytes, varint) triple round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, b []byte, i int64, s string) bool {
		var w Writer
		w.Uvarint(u)
		w.Bytes(b)
		w.Varint(i)
		w.String(s)
		r := NewReader(w.Buf)
		gu := r.Uvarint()
		gb := r.Bytes()
		gi := r.Varint()
		gs := r.String()
		return r.Err == nil && gu == u && bytes.Equal(gb, b) && gi == i && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesCopyIndependence(t *testing.T) {
	var w Writer
	w.Bytes([]byte{1, 2, 3})
	r := NewReader(w.Buf)
	got := r.BytesCopy()
	w.Buf[len(w.Buf)-1] = 99
	if got[2] != 3 {
		t.Fatalf("BytesCopy aliases the buffer")
	}
}

// TestHostileCounts verifies the allocation guards: length prefixes far
// larger than the remaining input must fail instead of sizing an
// allocation from attacker-controlled bytes.
func TestHostileCounts(t *testing.T) {
	huge := func() Writer {
		var w Writer
		w.Uvarint(1 << 50)
		return w
	}

	w := huge()
	r := NewReader(w.Buf)
	if r.Count(); r.Err == nil {
		t.Fatal("Count accepted a 2^50 prefix over an empty tail")
	}

	w = huge()
	r = NewReader(w.Buf)
	if got := r.Bytes(); got != nil || r.Err == nil {
		t.Fatalf("Bytes accepted a 2^50 prefix: %v, err %v", got, r.Err)
	}

	w = huge()
	r = NewReader(w.Buf)
	if got := r.BytesCopy(); got != nil || r.Err == nil {
		t.Fatalf("BytesCopy accepted a 2^50 prefix: %v, err %v", got, r.Err)
	}

	w = huge()
	r = NewReader(w.Buf)
	if got := r.Float64s(); got != nil || r.Err == nil {
		t.Fatalf("Float64s accepted a 2^50 prefix: %v, err %v", got, r.Err)
	}

	// A count that fits the remaining bytes but whose elements then run
	// out must fail on the element reads, not panic.
	var w2 Writer
	w2.Uvarint(3)
	w2.Uvarint(1) // only one element present
	r = NewReader(w2.Buf)
	n := r.Count()
	for i := 0; i < n; i++ {
		r.Uvarint()
	}
	if r.Err == nil {
		t.Fatal("expected error reading past the declared count")
	}
}

// TestFloat64sOverflowCount guards the n*8 length check against uvarint
// values whose multiplication by eight wraps uint64.
func TestFloat64sOverflowCount(t *testing.T) {
	var w Writer
	w.Uvarint(1<<61 + 1) // *8 wraps to 8
	w.Float64(1.0)
	r := NewReader(w.Buf)
	if got := r.Float64s(); got != nil || r.Err == nil {
		t.Fatalf("Float64s accepted an overflowing count: %v, err %v", got, r.Err)
	}
}

// TestTruncatedEveryPrimitive truncates a buffer holding one of each
// primitive at every byte offset; every read sequence must end in an error
// without panicking.
func TestTruncatedEveryPrimitive(t *testing.T) {
	var w Writer
	w.Byte(1)
	w.Uvarint(300)
	w.Varint(-300)
	w.Uint32(7)
	w.Uint64(9)
	w.Float64(2.5)
	w.Bool(true)
	w.Bytes([]byte("abc"))
	w.String("de")
	w.Float64s([]float64{3.5})
	for cut := 0; cut < w.Len(); cut++ {
		r := NewReader(w.Buf[:cut])
		r.Byte()
		r.Uvarint()
		r.Varint()
		r.Uint32()
		r.Uint64()
		r.Float64()
		r.Bool()
		r.Bytes()
		_ = r.String()
		r.Float64s()
		if r.Err == nil {
			t.Fatalf("no error with %d of %d bytes", cut, w.Len())
		}
	}
}
