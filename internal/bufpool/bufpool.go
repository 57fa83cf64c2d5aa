// Package bufpool is the frame-buffer pool shared by the codec and the
// transports. It is a leaf package so both can import it: the codec draws
// encode buffers from it (proto.GetBuf/PutBuf are these functions under
// their historical names), the TCP transport draws receive buffers from it,
// and every receive loop returns what Recv handed it — so a frame's buffer
// makes a full circle instead of being allocated, zeroed and dropped.
//
// Buffers live in two classes split at largeMin. Control frames and encode
// buffers circulate in the small one; data-plane chunk frames in the large
// one, where every buffer GetLen makes has the full MaxCap so any chunk fits
// any of them. One mixed pool would hand a chunk-sized receive a 1 KiB
// encode buffer (a miss it has to allocate through) and park a 257 KiB
// buffer under a 6-byte credit frame.
package bufpool

import "sync"

const (
	// minCap is the capacity of a freshly made small buffer and the
	// smallest one Put accepts: an exact-length 6-byte frame recycled as an
	// encode buffer would only make the next marshal regrow it.
	minCap = 1 << 10
	// largeMin is the class boundary, by capacity on Put and by requested
	// length on GetLen.
	largeMin = 64 << 10
	// MaxCap caps the capacity of buffers accepted back into the pool.
	// Data-plane payloads can be megabytes; pinning them would trade
	// allocation rate for resident memory. The cap is one data-plane chunk
	// (stream.DefaultChunkSize, 256 KiB) plus headroom for its header, so
	// chunk frames — received, or marshaled for a transport without
	// vectored sends — still recycle.
	MaxCap = 1<<18 + 1024
)

// pooledBuf wraps a byte slice so pool round trips move only pointers.
// Spent headers (b == nil) park in hdrPool, so neither Get nor Put
// allocates once the pools are warm.
type pooledBuf struct{ b []byte }

var (
	small   = sync.Pool{New: func() any { return &pooledBuf{b: make([]byte, 0, minCap)} }}
	large   sync.Pool // no New: an empty class yields nil and GetLen allocates
	hdrPool = sync.Pool{New: func() any { return new(pooledBuf) }}
)

func take(p *sync.Pool) []byte {
	h, _ := p.Get().(*pooledBuf)
	if h == nil {
		return nil
	}
	b := h.b[:0]
	h.b = nil
	hdrPool.Put(h)
	return b
}

// Get returns an empty buffer from the small class. Release it with Put —
// or hand it to a transport via SendOwned, in which case the receiver
// releases it. A buffer that append grew past largeMin returns to the large
// class, so callers that know they need that much should use GetLen.
func Get() []byte { return take(&small) }

// GetLen returns a buffer of length n with unspecified contents, for
// callers that overwrite all of it (a transport reading a frame) or reslice
// it to [:0] and append at most n bytes. A pooled buffer that turns out too
// small is dropped, not put back: put back, it would be the first thing the
// pool offers the next caller too.
func GetLen(n int) []byte {
	if n < largeMin {
		if b := take(&small); cap(b) >= n {
			return b[:n]
		}
		return make([]byte, n, (n+minCap-1)/minCap*minCap)
	}
	if n > MaxCap {
		return make([]byte, n) // Put would not take it back
	}
	if b := take(&large); cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n, MaxCap)
}

// Put returns a buffer to the pool. The caller must not use b after.
// Oversized buffers are dropped so payload-sized frames do not pin memory;
// undersized ones so they do not displace buffers worth reusing.
func Put(b []byte) {
	p := &small
	switch c := cap(b); {
	case c < minCap || c > MaxCap:
		return
	case c >= largeMin:
		p = &large
	}
	h := hdrPool.Get().(*pooledBuf)
	h.b = b
	p.Put(h)
}
