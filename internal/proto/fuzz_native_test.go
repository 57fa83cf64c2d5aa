package proto

import (
	"bytes"
	"math"
	"testing"

	"nimbus/internal/ids"
	"nimbus/internal/wire"
)

// Native Go fuzz targets for the two decoders that face the network:
// single-frame Unmarshal and the batch iterator ForEachMsg. Hostile frames
// must return errors, never panic and never hand a nil message to the
// caller. `go test` runs the seed corpus below as regular tests; CI runs
// exactly that as decode smoke, and `go test -fuzz=FuzzForEachMsg
// ./internal/proto/` explores from the seeds.

// hostileSeeds is the wire-level hostile-input corpus: the attack shapes
// wire's hostile-count tests guard against (length prefixes far larger
// than the remaining input), expressed as frames, plus malformed frame
// scaffolding.
func hostileSeeds() [][]byte {
	huge := func(prefix ...byte) []byte {
		var w wire.Writer
		w.Buf = append(w.Buf, prefix...)
		w.Uvarint(1 << 50) // hostile count over an empty tail
		return w.Buf
	}
	seeds := [][]byte{
		{},                    // empty frame
		{0xff},                // unknown kind
		{byte(KindBatch)},     // batch with no count
		huge(byte(KindBatch)), // batch claiming 2^50 messages
		append(huge(byte(KindBatch)), 0x01, 0x02, 0x03), // hostile count + junk tail
		{byte(KindBatch), 0x02, 0xff},                   // batch of 2 with an unknown kind inside
		{byte(KindBatch), 0x00, 0x00},                   // empty batch with trailing bytes
		huge(),                                          // hostile count as a bare kind stream
		// Replication/lease frames: hostile counts in the nested job shadow
		// (manifest, defs and oplog lists) and in the snapshot's rosters, a
		// ReplOp whose raw body claims more bytes than it carries, and a
		// bare lease renewal missing its TTL.
		huge(byte(KindReplSnapshot)),                     // snapshot claiming 2^50 workers
		huge(byte(KindReplSnapshot), 0x00, 0x00, 0x00),   // 2^50 jobs after empty rosters
		huge(byte(KindReplOp), 0x02, 0x01, 0x01, 0x01),   // raw-op length prefix over empty tail
		huge(byte(KindReplCkpt), 0x02, 0x01, 0x01, 0x01), // 2^50 manifest entries
		{byte(KindLeaseRenew), 0x01},                     // truncated lease renewal
		{byte(KindReattachAck), 0x02, 0x01, 0x02},        // truncated reattach ack
		// Gateway frames: an envelope whose inner-frame length prefix claims
		// more bytes than the tail carries, and a bare session close.
		huge(byte(KindMuxData), 0x05, 0x01), // envelope raw-length over empty tail
		{byte(KindSessionClose)},            // session close missing its id
		// Worker hellos: the one hello now leads with an optional prior
		// worker ID: a hello in the older layout (no ID), an overlong ID,
		// an ID with nothing after it and an address length over the tail.
		// The retired fleet-announce and fleet-admit frames, under their
		// old kind bytes, now land on renumbered kinds.
		{byte(KindRegisterWorker), 0x06, 'd', 'a', 't', 'a', '/', '1', 0x08},                                       // hello without the prior-ID field
		append([]byte{byte(KindRegisterWorker)}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // overlong prior ID
		huge(byte(KindRegisterWorker)),                             // prior ID 2^50, hello cut after it
		{byte(KindRegisterWorker), 0x02, 0x7f, 'd'},                // address length over the tail
		{0x37, 0x06, 'd', 'a', 't', 'a', '/', '9', 0x08},           // retired fleet-announce frame
		{0x38, 0x09, 0x02, 0x01, 0x01, 'a', 0x02, 0x01, 'b', 0x01}, // retired fleet-admit frame
	}
	// Every valid message, marshaled, plus a truncated and a corrupted
	// variant: the fuzzer mutates from realistic frames, not just noise.
	for _, m := range everyMessage() {
		raw := Marshal(m)
		seeds = append(seeds, raw)
		if len(raw) > 1 {
			seeds = append(seeds, raw[:len(raw)/2])
			mut := append([]byte(nil), raw...)
			mut[len(mut)-1] ^= 0x80
			seeds = append(seeds, mut)
		}
	}
	// A well-formed multi-message batch frame and truncations of it.
	msgs := everyMessage()
	batch := AppendBatch(nil, msgs[:len(msgs)/2])
	seeds = append(seeds, batch, batch[:len(batch)/2], batch[:1])
	// What a peer writer's run looks like on a data-plane link: a batch of
	// payloads, one with the last chunk of a transfer between them — and the
	// same frames gone wrong: a count larger than the body, and a batch
	// where a message should be.
	pay := func(cmd uint64, data string) Msg {
		return &DataPayload{Job: 1, DstCommand: ids.CommandID(cmd), Object: 7, Logical: 7, Version: 3, Data: []byte(data)}
	}
	run := AppendBatch(nil, []Msg{pay(40, ""), pay(41, "x"), pay(42, "")})
	mixed := AppendBatch(nil, []Msg{
		pay(40, ""),
		&DataChunk{Job: 1, Xfer: 9, Seq: 2, Last: true, DstCommand: 43, Object: 8, Total: 11, Raw: []byte("tail")},
		pay(41, "y"),
	})
	short := append([]byte(nil), run...)
	short[1] += 2 // the count is one byte: three payloads, five promised
	nested := append([]byte{byte(KindBatch), 0x02}, run...)
	nested = MarshalAppend(nested, pay(44, ""))
	seeds = append(seeds, run, mixed, short, nested)
	// A value that is not equal to itself: the decoders agree on it all the
	// same (what FuzzForEachMsg's oracle got wrong).
	seeds = append(seeds, Marshal(&LoopDone{Seq: 1, Iters: 2, LastValue: math.NaN()}))
	return seeds
}

// FuzzUnmarshal: single-frame decode must never panic and must return
// exactly one of (message, error).
func FuzzUnmarshal(f *testing.F) {
	for _, s := range hostileSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err == nil && m == nil {
			t.Fatalf("Unmarshal(%x) returned neither message nor error", b)
		}
	})
}

// FuzzForEachMsg: batch-frame iteration must never panic, never yield a
// nil message, and must error out instead of over-reading on hostile
// counts.
func FuzzForEachMsg(f *testing.F) {
	for _, s := range hostileSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		n := 0
		var msgs []Msg
		err := ForEachMsg(b, func(m Msg) error {
			if m == nil {
				t.Fatal("ForEachMsg yielded a nil message")
			}
			n++
			msgs = append(msgs, m)
			return nil
		})
		// The data pump's variant differs only in where a chunk's Raw
		// points: same messages, same verdict.
		var aliased []Msg
		aerr := ForEachMsgAliasChunks(b, func(m Msg) error {
			aliased = append(aliased, m)
			return nil
		})
		// Compared by what they marshal back to: a decoded NaN
		// (LoopDone.LastValue) is not equal to itself.
		if (err == nil) != (aerr == nil) || !bytes.Equal(AppendBatch(nil, msgs), AppendBatch(nil, aliased)) {
			t.Fatalf("ForEachMsgAliasChunks(%x) = %v, %v; ForEachMsg = %v, %v", b, aliased, aerr, msgs, err)
		}
		if err == nil && n == 0 {
			t.Fatalf("ForEachMsg(%x) yielded nothing and no error", b)
		}
		// Hostile counts must not turn into unbounded yields: a frame can
		// hold at most one message per remaining payload byte.
		if n > len(b) {
			t.Fatalf("ForEachMsg(%x) yielded %d messages from %d bytes", b, n, len(b))
		}
	})
}
