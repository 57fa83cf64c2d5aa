// Package dataflow implements the Naiad-style baseline ("Naiad-opt" in
// the paper's evaluation): a fully distributed control plane that installs
// a static data-flow graph on every worker once, after which workers
// generate and schedule their tasks locally and exchange data directly —
// zero per-iteration controller traffic.
//
// The trade-off the paper measures (§5.2, Table 3; §5.4, Figure 10) is
// that the schedule is static: *any* change — migrating one task, adding a
// worker — stops the job and reinstalls the full graph on every node.
// Install is a real, measured operation here: the graph is built with the
// same template builder as Nimbus, serialized with the production codec,
// and shipped over the transport. Data-dependent control flow is not
// supported (the paper's reason PhysBAM cannot run on static dataflow).
package dataflow

import (
	"fmt"
	"sync"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/core"
	"nimbus/internal/datastore"
	"nimbus/internal/flow"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// Config configures a dataflow runtime.
type Config struct {
	// Workers is the node count.
	Workers int
	// Slots is per-node execution concurrency.
	Slots int
	// Latency is the one-way message latency of the simulated network.
	Latency time.Duration
	// Registry resolves task functions.
	Registry *fn.Registry
}

// Runtime is a running set of dataflow nodes.
type Runtime struct {
	cfg   Config
	tr    *transport.Mem
	nodes []*node
	// installed is the current static graph.
	installed *core.Assignment
	iter      uint64
}

// New starts the nodes of a dataflow runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 8
	}
	if cfg.Registry == nil {
		cfg.Registry = fn.NewRegistry()
	}
	r := &Runtime{cfg: cfg, tr: transport.NewMem(cfg.Latency)}
	for i := 0; i < cfg.Workers; i++ {
		n, err := newNode(r, ids.WorkerID(i+1))
		if err != nil {
			r.Close()
			return nil, err
		}
		r.nodes = append(r.nodes, n)
	}
	return r, nil
}

// Close stops all nodes.
func (r *Runtime) Close() {
	for _, n := range r.nodes {
		n.close()
	}
}

// Install builds the static graph for the given stages and placement and
// ships it to every node, returning the measured install time. Calling
// Install again models Naiad's full reinstall on any schedule change.
func (r *Runtime) Install(stages []*proto.SubmitStage, place core.Placement, dir *flow.Directory) (time.Duration, error) {
	start := time.Now()
	b := core.NewBuilder(dir, place)
	for _, s := range stages {
		if err := b.AddStage(s); err != nil {
			return 0, fmt.Errorf("dataflow: %w", err)
		}
	}
	a := b.Finalize(1)
	var wg sync.WaitGroup
	for _, n := range r.nodes {
		msg := a.InstallMessage(n.id, "dataflow")
		raw := proto.Marshal(msg)
		wg.Add(1)
		go func(n *node, raw []byte) {
			defer wg.Done()
			n.install(raw)
		}(n, raw)
	}
	wg.Wait()
	r.installed = a
	return time.Since(start), nil
}

// RunIteration executes the installed graph once on every node and blocks
// until all complete, returning the measured iteration time.
func (r *Runtime) RunIteration() (time.Duration, error) {
	if r.installed == nil {
		return 0, fmt.Errorf("dataflow: no graph installed")
	}
	r.iter++
	base := ids.CommandID(r.iter * uint64(r.installed.MaxIndex()+1))
	start := time.Now()
	var wg sync.WaitGroup
	for _, n := range r.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.runIteration(base)
		}(n)
	}
	wg.Wait()
	return time.Since(start), nil
}

// node is one dataflow worker: installed entries, an object store, and a
// payload inbox fed by peers.
type node struct {
	r       *Runtime
	id      ids.WorkerID
	store   *datastore.Store
	entries []command.TemplateEntry

	lis transport.Listener

	mu       sync.Mutex
	cond     *sync.Cond
	payloads map[ids.CommandID]*proto.DataPayload
	closed   bool

	peerMu sync.Mutex
	peers  map[ids.WorkerID]transport.Conn
	// accepted holds inbound connections, closed at shutdown so pump
	// goroutines exit even when peers close later.
	accepted []transport.Conn

	wg sync.WaitGroup
}

func dataAddr(id ids.WorkerID) string { return fmt.Sprintf("dataflow/%d", id) }

func newNode(r *Runtime, id ids.WorkerID) (*node, error) {
	lis, err := r.tr.Listen(dataAddr(id))
	if err != nil {
		return nil, err
	}
	n := &node{
		r: r, id: id, store: datastore.New(), lis: lis,
		payloads: make(map[ids.CommandID]*proto.DataPayload),
		peers:    make(map[ids.WorkerID]transport.Conn),
	}
	n.cond = sync.NewCond(&n.mu)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

func (n *node) close() {
	n.mu.Lock()
	n.closed = true
	n.cond.Broadcast()
	n.mu.Unlock()
	n.lis.Close()
	n.peerMu.Lock()
	for _, c := range n.peers {
		c.Close()
	}
	for _, c := range n.accepted {
		c.Close()
	}
	n.peerMu.Unlock()
	n.wg.Wait()
}

func (n *node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.lis.Accept()
		if err != nil {
			return
		}
		n.peerMu.Lock()
		n.accepted = append(n.accepted, conn)
		n.peerMu.Unlock()
		n.wg.Add(1)
		go n.pump(conn)
	}
}

func (n *node) pump(conn transport.Conn) {
	defer n.wg.Done()
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		msg, err := proto.Unmarshal(raw)
		if err != nil {
			continue
		}
		if p, ok := msg.(*proto.DataPayload); ok {
			n.mu.Lock()
			n.payloads[p.DstCommand] = p
			n.cond.Broadcast()
			n.mu.Unlock()
		}
	}
}

// install decodes an InstallTemplate message (real codec round trip, so
// install cost includes serialization on both sides).
func (n *node) install(raw []byte) {
	msg, err := proto.Unmarshal(raw)
	if err != nil {
		return
	}
	if m, ok := msg.(*proto.InstallTemplate); ok {
		n.entries = m.Entries
	}
}

func (n *node) send(dst ids.WorkerID, p *proto.DataPayload) {
	if dst == n.id {
		n.mu.Lock()
		n.payloads[p.DstCommand] = p
		n.cond.Broadcast()
		n.mu.Unlock()
		return
	}
	n.peerMu.Lock()
	conn, ok := n.peers[dst]
	if !ok {
		var err error
		conn, err = n.r.tr.Dial(dataAddr(dst))
		if err != nil {
			n.peerMu.Unlock()
			return
		}
		n.peers[dst] = conn
	}
	n.peerMu.Unlock()
	_ = conn.Send(proto.Marshal(p))
}

// runIteration executes the node's slice of the graph once: local
// dependency resolution, slot-limited task execution, push-model data
// exchange — exactly what the installed static schedule prescribes.
func (n *node) runIteration(base ids.CommandID) {
	type state struct {
		entry   *command.TemplateEntry
		missing int
		waiters []int
	}
	states := make(map[int32]*state, len(n.entries))
	order := make([]int32, 0, len(n.entries))
	for i := range n.entries {
		e := &n.entries[i]
		states[e.Index] = &state{entry: e}
		order = append(order, e.Index)
	}
	// Local edges only: dependencies on entries of other workers are
	// carried by copies, not before sets.
	for _, idx := range order {
		st := states[idx]
		for _, dep := range st.entry.BeforeIdx {
			if ds, ok := states[dep]; ok {
				ds.waiters = append(ds.waiters, int(idx))
				st.missing++
			}
		}
	}

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	remaining := len(order)
	slots := make(chan struct{}, n.r.cfg.Slots)
	for i := 0; i < n.r.cfg.Slots; i++ {
		slots <- struct{}{}
	}

	var complete func(st *state)
	var launch func(st *state)

	complete = func(st *state) {
		mu.Lock()
		remaining--
		ready := make([]*state, 0, len(st.waiters))
		for _, w := range st.waiters {
			ws := states[int32(w)]
			ws.missing--
			if ws.missing == 0 {
				ready = append(ready, ws)
			}
		}
		mu.Unlock()
		cond.Broadcast()
		for _, ws := range ready {
			launch(ws)
		}
	}

	launch = func(st *state) {
		e := st.entry
		switch e.Kind {
		case command.Task:
			go func() {
				<-slots
				f := n.r.cfg.Registry.Lookup(e.Function)
				if f != nil {
					reads := make([][]byte, len(e.Reads))
					for i, o := range e.Reads {
						reads[i] = n.store.Ensure(o, ids.NoLogical).Data
					}
					writes := make([][]byte, len(e.Writes))
					objs := make([]*datastore.Object, len(e.Writes))
					for i, o := range e.Writes {
						objs[i] = n.store.Ensure(o, ids.NoLogical)
						writes[i] = objs[i].Data
					}
					ctx := fn.NewCtx(n.id, e.Fixed, reads, writes)
					_ = f(ctx)
					for i, o := range objs {
						data, _ := ctx.Result(i)
						o.Data = data
					}
				}
				slots <- struct{}{}
				complete(st)
			}()
		case command.CopySend:
			go func() {
				obj := n.store.Ensure(e.Reads[0], e.Logical)
				n.send(e.DstWorker, &proto.DataPayload{
					DstCommand: base + ids.CommandID(e.DstIdx),
					Object:     e.Reads[0],
					Logical:    e.Logical,
					Data:       obj.Data,
				})
				complete(st)
			}()
		case command.CopyRecv:
			go func() {
				id := base + ids.CommandID(e.Index)
				n.mu.Lock()
				for {
					if p, ok := n.payloads[id]; ok {
						delete(n.payloads, id)
						n.mu.Unlock()
						n.store.Install(e.Writes[0], e.Logical, p.Version, p.Data)
						complete(st)
						return
					}
					if n.closed {
						n.mu.Unlock()
						complete(st)
						return
					}
					n.cond.Wait()
				}
			}()
		default:
			complete(st)
		}
	}

	// Pick the initially ready set before launching any of it: a launched
	// command's completion decrements its waiters' missing counts (and
	// launches the ones it frees), so reading missing while launching
	// races with that and can launch a command twice.
	var ready []*state
	for _, idx := range order {
		if st := states[idx]; st.missing == 0 {
			ready = append(ready, st)
		}
	}
	for _, st := range ready {
		launch(st)
	}
	mu.Lock()
	for remaining > 0 {
		cond.Wait()
	}
	mu.Unlock()
}
