package worker

import "sync"

// This file holds the two hand-off points between the event loop and
// everything else: the mailbox other goroutines post events to, and the work
// queue the loop feeds the persistent executors from. Both follow the rule
// the peer writer's flush follows (DESIGN.md "Wakeup budget"): take all there
// is, wake only a sleeper. An event posted to an idle loop wakes it at once;
// a burst posted while the loop is busy costs one lock per post — a pump
// posts a whole frame's events at once — and no wakeup, and the loop handles
// it as one run. There is no timer and no batch size:
// a run is whatever arrived while the loop was busy.

// mailboxCap bounds the events waiting for the loop. Producers block at the
// bound — that is the data pumps' back-pressure.
const mailboxCap = 1024

// mailbox is the bounded multi-producer, single-consumer queue feeding the
// event loop.
type mailbox struct {
	mu      sync.Mutex
	wake    sync.Cond // the loop, on an empty mailbox
	space   sync.Cond // producers, on a full one
	buf     []event
	asleep  bool // the loop is in wake.Wait and nobody has signalled it yet
	blocked int  // producers in space.Wait
	closed  bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.wake.L = &m.mu
	m.space.L = &m.mu
	return m
}

// put posts one event, blocking while the mailbox is full. It returns false
// once the worker has stopped; the event is then dropped. Events of one
// producer are handled in the order it put them.
//
// The loop never puts to its own mailbox — it calls the handler directly
// (handleDone, retryParked) instead. That is what makes a bounded mailbox
// deadlock-free: the only goroutine that frees space never waits for space.
func (m *mailbox) put(ev event) bool {
	one := [1]event{ev}
	return m.putAll(one[:])
}

// putAll posts evs in order under one lock — what a pump holding a whole
// frame's messages uses — waking the loop once. The bound counts events:
// while the mailbox is full it blocks, and it posts as many as fit each time
// there is room. It returns false once the worker has stopped; events not yet
// posted are then dropped. evs is not retained.
func (m *mailbox) putAll(evs []event) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(evs) > 0 {
		for len(m.buf) >= mailboxCap && !m.closed {
			m.blocked++
			m.space.Wait()
			m.blocked--
		}
		if m.closed {
			return false
		}
		n := min(len(evs), mailboxCap-len(m.buf))
		m.buf = append(m.buf, evs[:n]...)
		evs = evs[n:]
		if m.asleep {
			m.asleep = false
			m.wake.Signal()
		}
	}
	return !m.closed
}

// take swaps the posted events out for spare (emptied, reused as the next
// buffer) and returns them as one run. With wait it sleeps until there is
// one; an empty run then means the mailbox closed. The caller zeroes each
// slot it has handled, so the slice it passes back pins no payload.
func (m *mailbox) take(spare []event, wait bool) []event {
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

// close makes every current and future put return false and wakes a waiting
// take.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.wake.Broadcast()
	m.space.Broadcast()
	m.mu.Unlock()
}

// workQueue feeds runnable tasks from the event loop to the worker's
// persistent executors. The dispatcher has already claimed a slot for every
// task in it, so it never holds more than Slots tasks and needs no bound of
// its own.
type workQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	tasks  pcmdRing
	idle   int // executors in cond.Wait that nobody has signalled yet
	closed bool
}

func newWorkQueue() *workQueue {
	q := &workQueue{}
	q.cond.L = &q.mu
	return q
}

// push hands a loop turn's started tasks over under one lock, waking only as
// many idle executors as there are tasks; busy ones find the rest when they
// come back.
func (q *workQueue) push(tasks []*pcmd) {
	q.mu.Lock()
	for _, pc := range tasks {
		q.tasks.push(pc)
	}
	n := min(len(tasks), q.idle)
	q.idle -= n
	for ; n > 0; n-- {
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// pop blocks until there is a task; false means the worker stopped.
func (q *workQueue) pop() (*pcmd, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.tasks.n == 0 && !q.closed {
		q.idle++
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	return q.tasks.pop(), true
}

func (q *workQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
