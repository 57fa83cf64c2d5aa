package proto

import (
	"encoding/binary"
	"fmt"
	"sync"

	"nimbus/internal/bufpool"
	"nimbus/internal/wire"
)

// This file implements the control-plane fast path's two codec pieces
// (DESIGN.md §"Control-plane fast path"):
//
//   - pooled encode buffers (GetBuf/PutBuf over internal/bufpool) so
//     steady-state frame encoding allocates nothing, and
//   - the Batch frame: one KindBatch byte, a message count, and the
//     concatenated kind-prefixed messages. The controller's per-worker send
//     coalescer uses it to turn an InstantiateBlock fan-out into exactly
//     one transport frame per worker.
//
// Messages are self-delimiting (every decoder consumes exactly the bytes
// its encoder produced), so a batch needs no per-message length prefixes.

// coderPool recycles wire.Coders for every encode and decode entry point:
// fields is an interface method, so a stack-allocated Coder would escape and
// cost one allocation per message.
var coderPool = sync.Pool{New: func() any { return new(wire.Coder) }}

// encoder returns a coder whose walks append to buf.
func encoder(buf []byte) *wire.Coder {
	c := coderPool.Get().(*wire.Coder)
	c.W.Buf = buf
	return c
}

// decoder returns a coder whose walks read b; alias as in wire.Coder.
func decoder(b []byte, alias bool) *wire.Coder {
	c := coderPool.Get().(*wire.Coder)
	c.Decoding, c.Alias, c.R.Buf = true, alias, b
	return c
}

// putCoder recycles c, zeroed so that it pins neither buffer, and returns
// what it encoded.
func putCoder(c *wire.Coder) []byte {
	buf := c.W.Buf
	*c = wire.Coder{}
	coderPool.Put(c)
	return buf
}

// GetBuf returns an empty encode buffer from the shared frame-buffer pool
// (internal/bufpool, which the TCP transport's Recv also draws from). Pass
// it to MarshalAppend/AppendBatch and release it with PutBuf — or hand it to
// a transport via SendOwned, in which case the receiver releases it.
func GetBuf() []byte { return bufpool.Get() }

// PutBuf returns a buffer — an encode buffer, or a frame a Conn's Recv
// returned — to the pool. The caller must not use b after. Buffers outside
// the pool's capacity bounds are dropped.
func PutBuf(b []byte) { bufpool.Put(b) }

// AppendBatch encodes msgs as a single batch frame onto buf and returns
// the extended slice. A one-message batch is encoded as the bare message —
// the frame tax is only paid when there is something to coalesce. Decoders
// must therefore accept both forms; ForEachMsg does.
func AppendBatch(buf []byte, msgs []Msg) []byte {
	if len(msgs) == 1 {
		return MarshalAppend(buf, msgs[0])
	}
	c := encoder(buf)
	c.W.Byte(byte(KindBatch))
	c.W.Uvarint(uint64(len(msgs)))
	for _, m := range msgs {
		c.W.Byte(byte(m.Kind()))
		m.fields(c)
	}
	return putCoder(c)
}

// FrameRun turns msgs — n messages marshaled back to back by MarshalAppend —
// into the frame AppendBatch would have made of them, in place: the batch
// header is inserted in front, and a lone message stays bare. It is for a
// sender that collects a run message by message and learns its length only
// when the run leaves (the worker's peer writer).
func FrameRun(msgs []byte, n int) []byte {
	if n == 1 {
		return msgs
	}
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = byte(KindBatch)
	h := 1 + binary.PutUvarint(hdr[1:], uint64(n))
	msgs = append(msgs, hdr[:h]...)
	copy(msgs[h:], msgs)
	copy(msgs, hdr[:h])
	return msgs
}

// ForEachMsg decodes a received frame — either a single message or a batch
// — invoking fn for each message in order. Decoded messages do not alias b,
// so the caller may recycle b (PutBuf) once ForEachMsg returns. A decode
// error aborts the iteration; fn errors propagate unchanged.
func ForEachMsg(b []byte, fn func(Msg) error) error {
	return forEachMsg(b, false, fn)
}

// ForEachMsgAliasChunks is ForEachMsg with one exception to the no-alias
// rule: a DataChunk's Raw is a window into b, not a copy. It exists for the
// worker's data pump, which lands each chunk in its reassembly buffer inside
// fn, before b is recycled; fn must not keep Raw past its return.
func ForEachMsgAliasChunks(b []byte, fn func(Msg) error) error {
	return forEachMsg(b, true, fn)
}

func forEachMsg(b []byte, aliasChunks bool, fn func(Msg) error) error {
	c := decoder(b, aliasChunks)
	defer putCoder(c)
	r := &c.R
	kind := MsgKind(r.Byte())
	if r.Err != nil {
		return r.Err
	}
	if kind != KindBatch {
		m, err := unmarshalBody(kind, c)
		if err != nil {
			return err
		}
		return fn(m)
	}
	n := r.Count()
	if r.Err != nil {
		return fmt.Errorf("proto: batch count: %w", r.Err)
	}
	if n == 0 {
		// No sender coalesces zero messages (a one-message batch is the
		// bare message); an empty batch is a malformed frame, and
		// rejecting it keeps the invariant that every accepted frame
		// yields at least one message.
		return fmt.Errorf("proto: empty batch frame")
	}
	for i := 0; i < n; i++ {
		k := MsgKind(r.Byte())
		if r.Err != nil {
			return fmt.Errorf("proto: batch message %d/%d: %w", i, n, r.Err)
		}
		m, err := unmarshalBody(k, c)
		if err != nil {
			return fmt.Errorf("proto: batch message %d/%d: %w", i, n, err)
		}
		if err := fn(m); err != nil {
			return err
		}
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("proto: batch frame has %d trailing bytes", r.Remaining())
	}
	return nil
}

// unmarshalBody decodes one message body of the given kind from c's reader.
func unmarshalBody(kind MsgKind, c *wire.Coder) (Msg, error) {
	m := newMsg(kind)
	if m == nil {
		return nil, fmt.Errorf("proto: unknown message kind %d", kind)
	}
	if m.fields(c); c.R.Err != nil {
		return nil, fmt.Errorf("proto: decoding %s: %w", kind, c.R.Err)
	}
	return m, nil
}
