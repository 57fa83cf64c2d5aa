package loop

import (
	"testing"
	"time"
)

// testCap is the bound of the mailboxes under test.
const testCap = 1024

// PutAll keeps its events' order, counts the bound in events — what does not
// fit waits for the loop's next take — and reports stopped, posting nothing
// more, once the mailbox has closed.
func TestMailboxPutAllOrderBoundAndStop(t *testing.T) {
	m := New[int](testCap)
	const over = 5
	evs := make([]int, testCap+over)
	for i := range evs {
		evs[i] = i
	}
	posted := make(chan bool, 1)
	go func() { posted <- m.PutAll(evs) }()
	next := 0
	for _, want := range []int{testCap, over} {
		run := m.Take(nil, true)
		if len(run) != want {
			t.Fatalf("took a run of %d, want %d", len(run), want)
		}
		for _, ev := range run {
			if ev != next {
				t.Fatalf("event %d taken where %d was due", ev, next)
			}
			next++
		}
	}
	if !<-posted {
		t.Fatal("PutAll reported stopped on an open mailbox")
	}

	if !m.PutAll(evs[:testCap]) {
		t.Fatal("PutAll failed below the bound")
	}
	go func() { posted <- m.PutAll(evs[testCap:]) }()
	awaitBlocked(t, m, 1)
	m.Close()
	if <-posted {
		t.Fatal("PutAll blocked at the bound reported its events posted after the mailbox closed")
	}
	if m.PutAll(evs[:1]) {
		t.Fatal("PutAll succeeded on a closed mailbox")
	}
}

// awaitBlocked waits until n producers are blocked on the full mailbox.
func awaitBlocked(t *testing.T, m *Mailbox[int], n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		m.mu.Lock()
		blocked := m.blocked
		m.mu.Unlock()
		if blocked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d producers blocked on a full mailbox", blocked, n)
		}
	}
}

// A full mailbox blocks its producers — the pumps' back-pressure — until the
// loop takes a run, and closing it turns every blocked and every later put
// into "stopped". What was posted before the close is still taken.
func TestMailboxFullBlocksThenStopUnblocks(t *testing.T) {
	m := New[int](testCap)
	const extra = 3
	fill := func() {
		for i := 0; i < testCap; i++ {
			if !m.Put(i) {
				t.Fatal("Put failed below the bound")
			}
		}
	}
	overflow := func() chan bool {
		results := make(chan bool, extra)
		for i := 0; i < extra; i++ {
			go func() { results <- m.Put(-1) }()
		}
		awaitBlocked(t, m, extra)
		return results
	}

	fill()
	results := overflow()
	if run := m.Take(nil, true); len(run) != testCap {
		t.Fatalf("took a run of %d from a full mailbox, want %d", len(run), testCap)
	}
	for i := 0; i < extra; i++ {
		if !<-results {
			t.Fatal("a producer unblocked by a take reported stopped")
		}
	}
	if run := m.Take(nil, true); len(run) != extra {
		t.Fatalf("the unblocked producers posted %d events, want %d", len(run), extra)
	}

	fill()
	results = overflow()
	m.Close()
	for i := 0; i < extra; i++ {
		if <-results {
			t.Fatal("a producer blocked at the close reported its event posted")
		}
	}
	if m.Put(-1) {
		t.Fatal("Put succeeded on a closed mailbox")
	}
	if run := m.Take(nil, true); len(run) != testCap {
		t.Fatalf("took %d events posted before the close, want %d", len(run), testCap)
	}
	if run := m.Take(nil, true); len(run) != 0 {
		t.Fatalf("a closed, drained mailbox returned a run of %d", len(run))
	}
}
