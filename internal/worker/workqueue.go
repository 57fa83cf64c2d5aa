package worker

import "sync"

// workQueue feeds runnable tasks from the event loop to the worker's
// persistent executors, by the mailbox's rule (DESIGN.md "Wakeup budget"):
// take all there is, wake only a sleeper. The dispatcher has already claimed a slot for every
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
