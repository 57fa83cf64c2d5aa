package proto_test

// This test lives in the external test package because it dials through
// internal/transport, which imports proto.

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// What the vectored TCP path puts on a socket is the length prefix plus
// exactly Marshal(chunk), read here raw off the accepting end.
func TestVectoredTCPBytesEqualMarshal(t *testing.T) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	conn, err := transport.TCP{}.Dial(nl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(transport.VecSender); !ok {
		t.Fatal("TCP conn lost its vectored send")
	}
	peer, err := nl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	c := &proto.DataChunk{
		Job: 3, Xfer: 1 << 33, Seq: 200, Last: true, Flags: proto.ChunkFetch,
		DstCommand: ids.CommandID(1<<40 + 7), Object: 9, Logical: 11, Version: 1 << 20,
		Fetch: 5, Total: 1 << 31, Raw: bytes.Repeat([]byte{7, 8, 9, 10}, 64<<10), // 256 KiB
	}
	want := proto.Marshal(c)
	sent := make(chan error, 1)
	go func() { sent <- transport.SendVec(conn, proto.AppendChunkHeader(proto.GetBuf(), c), c.Raw) }()
	got := make([]byte, 4+len(want))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if n := binary.BigEndian.Uint32(got); int(n) != len(want) {
		t.Fatalf("length prefix %d, want %d", n, len(want))
	}
	if !bytes.Equal(got[4:], want) {
		t.Fatal("bytes on the socket differ from Marshal(chunk)")
	}
}
