package proto

import (
	"bytes"
	"reflect"
	"testing"

	"nimbus/internal/ids"
)

func testChunk(raw []byte) *DataChunk {
	return &DataChunk{
		Job: 3, Xfer: 1 << 33, Seq: 200, Last: true, Flags: ChunkFetch,
		DstCommand: ids.CommandID(1<<40 + 7), Object: 9, Logical: 11, Version: 1 << 20,
		Fetch: 5, Total: 1 << 31, Raw: raw,
	}
}

// The header encoder and the payload, put side by side, are the message's
// encoding: the wire format did not change when senders stopped marshaling
// the payload.
func TestAppendChunkHeaderPlusRawIsMarshal(t *testing.T) {
	for _, raw := range [][]byte{nil, {}, {0xAB}, bytes.Repeat([]byte{1, 2, 3}, 100000)} {
		c := testChunk(raw)
		split := append(AppendChunkHeader(nil, c), c.Raw...)
		if want := Marshal(c); !bytes.Equal(split, want) {
			t.Fatalf("header‖raw (%d bytes) differs from Marshal (%d bytes) for a %d-byte payload", len(split), len(want), len(raw))
		}
		prefix := []byte("keep")
		if got := AppendChunkHeader(prefix, c); !bytes.HasPrefix(got, prefix) {
			t.Fatal("AppendChunkHeader clobbered the buffer it appends to")
		}
	}
}

// ForEachMsgAliasChunks aliases a DataChunk's Raw — bare or inside a batch —
// and nothing else; ForEachMsg aliases nothing.
func TestAliasDecodeIsChunkOnly(t *testing.T) {
	c := testChunk([]byte("chunk-payload"))
	p := &DataPayload{Job: 1, DstCommand: 2, Object: 3, Data: []byte("small-payload")}
	inFrame := func(frame, b []byte) bool {
		for i := range frame {
			if &frame[i] == &b[0] {
				return true
			}
		}
		return false
	}
	for _, frame := range [][]byte{Marshal(c), AppendBatch(nil, []Msg{p, c, p})} {
		for _, alias := range []bool{false, true} {
			each := ForEachMsg
			if alias {
				each = ForEachMsgAliasChunks
			}
			chunks := 0
			err := each(frame, func(m Msg) error {
				switch m := m.(type) {
				case *DataChunk:
					chunks++
					if !reflect.DeepEqual(m, c) {
						t.Errorf("alias=%v: chunk decoded as %+v", alias, m)
					}
					if inFrame(frame, m.Raw) != alias {
						t.Errorf("alias=%v: Raw aliases the frame = %v", alias, !alias)
					}
				case *DataPayload:
					if inFrame(frame, m.Data) {
						t.Errorf("alias=%v: a DataPayload aliases the frame", alias)
					}
				}
				return nil
			})
			if err != nil || chunks != 1 {
				t.Fatalf("alias=%v: err %v, %d chunks", alias, err, chunks)
			}
		}
	}
	// A truncated chunk fails the same way under both decoders.
	frame := Marshal(c)
	for _, each := range []func([]byte, func(Msg) error) error{ForEachMsg, ForEachMsgAliasChunks} {
		if err := each(frame[:len(frame)-3], func(Msg) error { return nil }); err == nil {
			t.Fatal("truncated chunk decoded without error")
		}
	}
}
