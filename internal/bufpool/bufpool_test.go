package bufpool

import "testing"

func TestGetLenSizes(t *testing.T) {
	for _, n := range []int{0, 6, minCap, minCap + 1, largeMin - 1, largeMin, 256<<10 + 40, MaxCap, MaxCap + 1, 4 << 20} {
		b := GetLen(n)
		if len(b) != n {
			t.Fatalf("GetLen(%d) has length %d", n, len(b))
		}
		switch {
		case n > MaxCap:
			if cap(b) != n {
				t.Fatalf("GetLen(%d): cap %d; a buffer the pool will not take back should not be padded", n, cap(b))
			}
		case n >= largeMin:
			if cap(b) > MaxCap {
				t.Fatalf("GetLen(%d): cap %d is more than Put accepts", n, cap(b))
			}
		case cap(b) < minCap && n > 0:
			t.Fatalf("GetLen(%d): cap %d is below what Put accepts", n, cap(b))
		}
		Put(b)
	}
}

// The classes do not mix: however many chunk-sized buffers are returned,
// Get keeps handing out small ones, and an undersized or oversized Put is
// dropped rather than pooled.
func TestClassesDoNotMix(t *testing.T) {
	for i := 0; i < 64; i++ {
		Put(make([]byte, 0, MaxCap))
		Put(make([]byte, 0, minCap-1))
		Put(make([]byte, 0, MaxCap+1))
	}
	for i := 0; i < 256; i++ {
		if b := Get(); len(b) != 0 || cap(b) < minCap || cap(b) >= largeMin {
			t.Fatalf("Get returned len %d cap %d, want an empty small-class buffer", len(b), cap(b))
		}
	}
	for i := 0; i < 256; i++ {
		if b := GetLen(MaxCap); cap(b) != MaxCap {
			t.Fatalf("large-class GetLen returned cap %d, want %d", cap(b), MaxCap)
		}
	}
}
