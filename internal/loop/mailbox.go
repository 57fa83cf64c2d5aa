// Package loop is the hand-off between an event loop and the goroutines
// that feed it, for the worker and the controller alike: a bounded,
// run-taking mailbox. Its rule is the peer writer's (DESIGN.md "Wakeup
// budget"): take all there is, wake only a sleeper. An event posted to an
// idle loop wakes it at once; a burst posted while the loop is busy costs
// one lock per post and no wakeup, and the loop handles it as one run.
// There is no timer and no batch size.
package loop

import "sync"

// Mailbox is a bounded multi-producer, single-consumer queue feeding one
// event loop. Producers block at the bound; that is their back-pressure. The
// loop never posts to its own mailbox, so the only goroutine that frees
// space never waits for space.
type Mailbox[E any] struct {
	mu      sync.Mutex
	wake    sync.Cond // the loop, on an empty mailbox
	space   sync.Cond // producers, on a full one
	buf     []E
	limit   int
	asleep  bool // the loop is in wake.Wait and nobody has signalled it yet
	blocked int  // producers in space.Wait
	closed  bool
}

// New returns a mailbox holding at most limit events.
func New[E any](limit int) *Mailbox[E] {
	m := &Mailbox[E]{limit: limit}
	m.wake.L = &m.mu
	m.space.L = &m.mu
	return m
}

// Put posts one event, blocking while the mailbox is full. It returns false
// once the mailbox is closed; the event is then dropped. Events of one
// producer are handled in the order it put them.
func (m *Mailbox[E]) Put(ev E) bool {
	one := [1]E{ev}
	return m.PutAll(one[:])
}

// PutAll posts evs in order under one lock — what a pump holding a whole
// frame's messages uses — waking the loop once. The bound counts events:
// while the mailbox is full it blocks, and it posts as many as fit each time
// there is room. It returns false once the mailbox is closed; events not yet
// posted are then dropped. evs is not retained.
func (m *Mailbox[E]) PutAll(evs []E) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(evs) > 0 {
		for len(m.buf) >= m.limit && !m.closed {
			m.blocked++
			m.space.Wait()
			m.blocked--
		}
		if m.closed {
			return false
		}
		n := min(len(evs), m.limit-len(m.buf))
		m.buf = append(m.buf, evs[:n]...)
		evs = evs[n:]
		if m.asleep {
			m.asleep = false
			m.wake.Signal()
		}
	}
	return !m.closed
}

// Take swaps the posted events out for spare (emptied, reused as the next
// buffer) and returns them as one run. With wait it sleeps until there is
// one; an empty run then means the mailbox closed and is drained. The caller
// zeroes each slot it has handled, so the slice it passes back pins no
// payload.
func (m *Mailbox[E]) Take(spare []E, wait bool) []E {
	m.mu.Lock()
	for wait && len(m.buf) == 0 && !m.closed {
		m.asleep = true
		m.wake.Wait()
	}
	run := m.buf
	m.buf = spare[:0]
	if m.blocked > 0 {
		m.space.Broadcast()
	}
	m.mu.Unlock()
	return run
}

// Close makes every current and future put return false and wakes a waiting
// Take. Events already posted stay takeable. Close is idempotent.
func (m *Mailbox[E]) Close() {
	m.mu.Lock()
	m.closed = true
	m.wake.Broadcast()
	m.space.Broadcast()
	m.mu.Unlock()
}
