// Package fn defines the application function interface and registry.
//
// Task commands name a FunctionID; workers resolve it through a Registry
// shared (by construction, at process start) between the application and
// every worker. Functions receive a Ctx exposing the task's read buffers,
// write buffers and parameter blob. The built-in Sim supports the scaling
// experiments: it occupies an executor slot for a parameterized duration,
// leaving the CPU free for all but the last 1.5ms of it (so a hundred
// simulated workers can share one machine), and Nop does nothing.
package fn

import (
	"fmt"
	"sync"
	"time"

	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/simclock"
)

// Ctx is the execution context handed to an application function.
type Ctx struct {
	// Worker identifies the executing worker.
	Worker ids.WorkerID
	// Params is the task's parameter blob.
	Params params.Blob

	reads  [][]byte
	writes [][]byte
	// wrote tracks which write buffers the function replaced.
	wrote []bool
}

// NewCtx builds a context; the worker runtime uses it.
func NewCtx(worker ids.WorkerID, p params.Blob, reads, writes [][]byte) *Ctx {
	c := &Ctx{}
	c.Reset(worker, p, reads, writes)
	return c
}

// Reset re-initializes a context in place, reusing its tracking storage,
// so worker runtimes can pool Ctx values across tasks. Functions must not
// retain the context (or its buffers) after returning.
func (c *Ctx) Reset(worker ids.WorkerID, p params.Blob, reads, writes [][]byte) {
	c.Worker = worker
	c.Params = p
	c.reads = reads
	c.writes = writes
	if n := len(writes); cap(c.wrote) < n {
		c.wrote = make([]bool, n)
	} else {
		c.wrote = c.wrote[:n]
		for i := range c.wrote {
			c.wrote[i] = false
		}
	}
}

// NumReads returns the number of read objects.
func (c *Ctx) NumReads() int { return len(c.reads) }

// Read returns read object i's contents. The buffer must not be mutated.
func (c *Ctx) Read(i int) []byte { return c.reads[i] }

// NumWrites returns the number of write objects.
func (c *Ctx) NumWrites() int { return len(c.writes) }

// WriteBuf returns write object i's current contents for in-place
// mutation (Nimbus objects are mutable, paper §3.3).
func (c *Ctx) WriteBuf(i int) []byte { return c.writes[i] }

// SetWrite replaces write object i's contents.
func (c *Ctx) SetWrite(i int, data []byte) {
	c.writes[i] = data
	c.wrote[i] = true
}

// Result returns write object i's final contents and whether it was
// replaced (as opposed to mutated in place).
func (c *Ctx) Result(i int) ([]byte, bool) { return c.writes[i], c.wrote[i] }

// Func is an application function.
type Func func(*Ctx) error

// Registry maps function IDs to implementations. Registration happens at
// process start; lookups are concurrent.
type Registry struct {
	mu     sync.RWMutex
	byID   map[ids.FunctionID]Func
	byName map[string]ids.FunctionID
	names  map[ids.FunctionID]string
}

// NewRegistry returns a registry preloaded with the built-in functions.
func NewRegistry() *Registry {
	r := &Registry{
		byID:   make(map[ids.FunctionID]Func),
		byName: make(map[string]ids.FunctionID),
		names:  make(map[ids.FunctionID]string),
	}
	r.MustRegister(FuncSim, "builtin/sim", Sim)
	r.MustRegister(FuncNop, "builtin/nop", func(*Ctx) error { return nil })
	return r
}

// Built-in function IDs. Application IDs start at FirstAppFunc.
const (
	FuncSim ids.FunctionID = iota + 1
	// ID 2 is reserved so FuncNop keeps its wire ID.
	_
	FuncNop
	// FirstAppFunc is the first ID available to applications.
	FirstAppFunc ids.FunctionID = 100
)

// Register adds a function under the given ID and name.
func (r *Registry) Register(id ids.FunctionID, name string, f Func) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; ok {
		return fmt.Errorf("fn: function %s already registered", id)
	}
	if _, ok := r.byName[name]; ok {
		return fmt.Errorf("fn: function name %q already registered", name)
	}
	r.byID[id] = f
	r.byName[name] = id
	r.names[id] = name
	return nil
}

// MustRegister is Register that panics on conflict (init-time use).
func (r *Registry) MustRegister(id ids.FunctionID, name string, f Func) {
	if err := r.Register(id, name, f); err != nil {
		panic(err)
	}
}

// Lookup returns the function for id, or nil.
func (r *Registry) Lookup(id ids.FunctionID) Func {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byID[id]
}

// Name returns the registered name of id.
func (r *Registry) Name(id ids.FunctionID) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names[id]
}

// ID returns the function ID registered under name, or 0.
func (r *Registry) ID(name string) ids.FunctionID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name]
}

// SimParams encodes a Sim task's duration.
func SimParams(d time.Duration) params.Blob {
	return params.NewEncoder(16).Duration(d).Blob()
}

// SimDuration decodes a Sim task's duration.
func SimDuration(p params.Blob) time.Duration {
	return params.NewDecoder(p).Duration()
}

// Sim models a computation of the parameterized duration through
// simclock.Wait: the executor slot stays occupied, and the CPU is free
// only for waits longer than 1.5ms (and then for all but their last
// 1.5ms), which lets many simulated workers share one machine. Scaling
// experiments calibrate the duration to the paper's workloads (≈5ms per
// LR task).
func Sim(c *Ctx) error {
	simclock.Wait(SimDuration(c.Params))
	return nil
}
