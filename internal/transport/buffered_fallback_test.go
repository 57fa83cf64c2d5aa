package transport_test

import (
	"bytes"
	"testing"

	"nimbus/internal/chaos"
	"nimbus/internal/transport"
)

// TestSendBufferedFallback: conns without a stage — Mem, the chaos wrapper,
// the Counting wrapper — get every SendBuffered as one frame of its own,
// delivered at once, and Flush has nothing to do. Frame counts on these
// paths are pinned elsewhere as exactly repeatable (the benchmark's traced
// counts, chaos frame ordinals), so the helper must not merge or defer.
// The Counting layer sits innermost and counts what reaches the wire.
func TestSendBufferedFallback(t *testing.T) {
	for _, tc := range []struct {
		name  string
		wrap  func(transport.Transport) transport.Transport
		owned bool // Mem's zero-copy hand-off survives the helper
	}{
		{"mem", func(tr transport.Transport) transport.Transport { return tr }, true},
		{"counting", func(tr transport.Transport) transport.Transport { return transport.NewCounting(tr) }, true},
		{"chaos", func(tr transport.Transport) transport.Transport { return chaos.New(tr, 7) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := transport.NewCounting(transport.NewMem(0))
			tr := tc.wrap(wire)
			lis, err := tr.Listen("peer")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			c, err := tr.Dial("peer")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			peer, err := lis.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			if _, ok := c.(transport.BufferedSender); ok {
				t.Fatal("conn implements BufferedSender; this test no longer covers the fallback")
			}
			for i := 1; i <= 5; i++ {
				frame := bytes.Repeat([]byte{byte(i)}, 13)
				owned, err := transport.SendBuffered(c, frame)
				if err != nil {
					t.Fatal(err)
				}
				if owned != tc.owned {
					t.Fatalf("send %d: owned = %v, want %v", i, owned, tc.owned)
				}
				if got := wire.Sends(); got != uint64(i) {
					t.Fatalf("after %d SendBuffered calls the wire carried %d frames", i, got)
				}
				// Already delivered: no Flush was needed to get it there.
				got, err := peer.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 13 || got[0] != byte(i) {
					t.Fatalf("send %d: received %v", i, got)
				}
			}
			if err := transport.Flush(c); err != nil {
				t.Fatal(err)
			}
			if got := wire.Sends(); got != 5 {
				t.Fatalf("Flush on a conn without a stage sent something: %d frames", got)
			}
		})
	}
}
