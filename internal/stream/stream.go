// Package stream implements the chunked data-plane transfer discipline
// shared by the worker↔worker push path and the worker→controller fetch
// path: slicing large objects into fixed-size chunks and strict in-order
// reassembly with hostile-input validation.
//
// The protocol is deliberately minimal. A transfer is a sender-allocated
// Xfer ID plus a run of DataChunk frames with consecutive Seq numbers; the
// final chunk carries Last. Chunks are sent in order on an ordered
// connection, so the receiver accepts exactly the next sequence number,
// drops duplicates silently (a sender that redialed mid-transfer restarts
// from zero), and treats a gap as corruption. Flow control (DataCredit)
// and spill policy live with the endpoints; this package only validates.
package stream

import (
	"errors"
	"fmt"

	"nimbus/internal/proto"
)

// DefaultChunkSize is the default transfer chunk size. A chunk frame — this
// many payload bytes plus a few dozen header bytes — fits the frame-buffer
// pool's largest pooled capacity (bufpool.MaxCap), so the buffer a receiver
// gets a chunk in, and the one a sender without vectored sends marshals it
// into, both come from and return to the pool.
const DefaultChunkSize = 256 << 10

// InitWindow is the number of chunks a sender may have in flight before
// the first DataCredit arrives: every transfer starts with this implicit
// grant, so short transfers never wait on a credit round trip.
const InitWindow = 8

// MaxWindow clamps a sender's accumulated credit. A hostile or buggy
// receiver granting absurd credit (uint32 overflow games) cannot open the
// window beyond this.
const MaxWindow = 1024

// ErrDup marks a chunk already landed (a redial replays a transfer's
// prefix); the receiver drops it silently.
var ErrDup = errors.New("stream: duplicate chunk")

// Reassembler validates one transfer's chunk run. It tracks ordering and
// size only; the caller owns accumulation (RAM buffer or spill file), so
// the same validation serves both the worker's budgeted receive path and
// the controller's fetch-reply path.
type Reassembler struct {
	Xfer  uint64
	Total uint64
	// ChunkSize bounds each chunk's payload (zero means DefaultChunkSize).
	ChunkSize int

	next uint32
	got  uint64
}

// Got reports the bytes landed so far.
func (ra *Reassembler) Got() uint64 { return ra.got }

// Accept validates chunk c and returns its payload (c.Raw) for the caller
// to land. A nil result with ErrDup means the chunk was already landed
// (drop silently); any other error is a protocol violation and the caller
// must abort the transfer.
func (ra *Reassembler) Accept(c *proto.DataChunk) ([]byte, error) {
	if c.Xfer != ra.Xfer {
		return nil, fmt.Errorf("stream: chunk for transfer %d on reassembler %d", c.Xfer, ra.Xfer)
	}
	if c.Seq < ra.next {
		return nil, ErrDup
	}
	if c.Seq > ra.next {
		return nil, fmt.Errorf("stream: sequence gap: got chunk %d, want %d", c.Seq, ra.next)
	}
	if c.Total != ra.Total {
		return nil, fmt.Errorf("stream: chunk total %d disagrees with transfer total %d", c.Total, ra.Total)
	}
	limit := ra.ChunkSize
	if limit <= 0 {
		limit = DefaultChunkSize
	}
	if unknown := c.Flags &^ proto.ChunkFetch; unknown != 0 {
		return nil, fmt.Errorf("stream: unknown chunk flags %#x", unknown)
	}
	raw := c.Raw
	if len(raw) > limit {
		return nil, fmt.Errorf("stream: chunk of %d bytes exceeds chunk size %d", len(raw), limit)
	}
	if ra.got+uint64(len(raw)) > ra.Total {
		return nil, fmt.Errorf("stream: transfer overflows declared total %d", ra.Total)
	}
	if c.Last && ra.got+uint64(len(raw)) != ra.Total {
		return nil, fmt.Errorf("stream: last chunk closes transfer at %d of %d bytes",
			ra.got+uint64(len(raw)), ra.Total)
	}
	ra.next++
	ra.got += uint64(len(raw))
	return raw, nil
}
