// Package wire provides low-level binary encoding helpers shared by the
// control-plane codec (internal/proto) and the command model
// (internal/command).
//
// The control plane is the measured artifact in this reproduction, so its
// wire format is a hand-rolled, allocation-conscious binary encoding rather
// than gob or JSON: varint-coded integers, length-prefixed byte strings, and
// no reflection. Writers append to a caller-owned buffer; readers consume a
// slice and record the first error, letting call sites chain reads without
// checking errors at every step (the same style as encoding/binary's
// AppendUvarint and params.Decoder). A Coder (coder.go) pairs the two behind
// a direction flag, so a wire type states its format once, as a walk over
// its fields, instead of as an encoder and a decoder kept in step by hand.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is returned when a reader runs out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// Writer appends binary values to a buffer. The zero value is ready to use.
type Writer struct {
	Buf []byte
}

// Reset truncates the buffer, retaining capacity.
func (w *Writer) Reset() { w.Buf = w.Buf[:0] }

// Len returns the number of bytes written.
func (w *Writer) Len() int { return len(w.Buf) }

// Byte appends a single byte.
func (w *Writer) Byte(v byte) { w.Buf = append(w.Buf, v) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }

// Varint appends a signed varint.
func (w *Writer) Varint(v int64) { w.Buf = binary.AppendVarint(w.Buf, v) }

// Uint32 appends a fixed-width big-endian uint32.
func (w *Writer) Uint32(v uint32) { w.Buf = binary.BigEndian.AppendUint32(w.Buf, v) }

// Uint64 appends a fixed-width big-endian uint64.
func (w *Writer) Uint64(v uint64) { w.Buf = binary.BigEndian.AppendUint64(w.Buf, v) }

// Float64 appends a float64 as its IEEE-754 bits.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(v []byte) {
	w.Uvarint(uint64(len(v)))
	w.Buf = append(w.Buf, v...)
}

// String appends a length-prefixed string.
func (w *Writer) String(v string) {
	w.Uvarint(uint64(len(v)))
	w.Buf = append(w.Buf, v...)
}

// Float64s appends a length-prefixed slice of float64s.
func (w *Writer) Float64s(v []float64) {
	w.Uvarint(uint64(len(v)))
	for _, f := range v {
		w.Float64(f)
	}
}

// Reader consumes binary values from a byte slice. The first failure is
// latched in Err and all subsequent reads return zero values.
type Reader struct {
	Buf []byte
	Off int
	Err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{Buf: buf} }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.Buf) - r.Off }

func (r *Reader) fail(what string) {
	if r.Err == nil {
		r.Err = fmt.Errorf("%w: %s at offset %d", ErrTruncated, what, r.Off)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.Err != nil {
		return 0
	}
	if r.Off >= len(r.Buf) {
		r.fail("byte")
		return 0
	}
	v := r.Buf[r.Off]
	r.Off++
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Buf[r.Off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.Off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.Buf[r.Off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.Off += n
	return v
}

// Uint32 reads a fixed-width big-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.Err != nil {
		return 0
	}
	if r.Off+4 > len(r.Buf) {
		r.fail("uint32")
		return 0
	}
	v := binary.BigEndian.Uint32(r.Buf[r.Off:])
	r.Off += 4
	return v
}

// Uint64 reads a fixed-width big-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.Err != nil {
		return 0
	}
	if r.Off+8 > len(r.Buf) {
		r.fail("uint64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.Buf[r.Off:])
	r.Off += 8
	return v
}

// Float64 reads a float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Count reads a length prefix and validates it against the remaining
// bytes (every element of a length-prefixed sequence occupies at least
// one byte), so corrupted or hostile input cannot drive huge allocations.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.Err != nil {
		return 0
	}
	if n > uint64(r.Remaining()) {
		r.fail("count")
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string. The result aliases the
// reader's buffer; a zero-length string decodes as nil so encode/decode
// round trips preserve nil-ness.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.Err != nil || n == 0 {
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail("bytes body")
		return nil
	}
	v := r.Buf[r.Off : r.Off+int(n)]
	r.Off += int(n)
	return v
}

// BytesCopy reads a length-prefixed byte string into fresh storage (nil
// for a zero-length string).
func (r *Reader) BytesCopy() []byte {
	v := r.Bytes()
	if len(v) == 0 {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	return string(r.Bytes())
}

// Float64s reads a length-prefixed slice of float64s.
func (r *Reader) Float64s() []float64 {
	n := r.Uvarint()
	if r.Err != nil {
		return nil
	}
	// Divide instead of multiplying: n*8 can wrap uint64 on hostile input.
	if n > uint64(r.Remaining())/8 {
		r.fail("float64s body")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}
