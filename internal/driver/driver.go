// Package driver is the application-facing Nimbus client library (API
// v2: asynchronous).
//
// A driver program declares partitioned variables, submits stages
// (parallel operations that expand into one task per partition), and marks
// basic blocks for execution templates: code between BeginTemplate and
// EndTemplate is recorded by the controller while it executes, and
// Instantiate re-executes the whole block with a single message
// (paper §2.2). Data-dependent control flow — while loops over error
// values — reads back reduced results with Get, which is a
// synchronization point (paper §2.4).
//
// The v2 surface removes the two round-trip taxes v1 paid for that
// control flow:
//
//   - Futures. Get, Barrier and Checkpoint have non-blocking variants
//     (GetAsync, BarrierAsync, CheckpointAsync) returning a Future[T]
//     backed by a seq-keyed pending-reply table, so many reads pipeline
//     in flight and resolve in whatever order the controller answers.
//     The blocking methods are thin wrappers (Async().Wait()).
//   - Controller-evaluated predicates. InstantiateWhile submits a whole
//     loop: the controller re-instantiates the template back-to-back,
//     evaluating a predicate over the reduced scalar after each
//     completion, and reports once — one round trip per loop instead of
//     one per iteration.
//
// The pseudocode of paper Figure 3 maps onto this API as:
//
//	for Get(error) > threshE {                            // outer loop
//	    d.InstantiateWhile("optimize",                    // inner loop:
//	        gradient.AtLeast(0, threshG), maxInner)       // one message
//	    d.Instantiate("estimate", modelParams)
//	}
//
// Drivers are single-goroutine clients: methods — including Future.Wait —
// must not be called concurrently.
package driver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// Driver is a connected driver session. Each session is one job on the
// controller: admission hands back a JobID, and every piece of
// control-plane state the session creates is scoped to it, isolated from
// other concurrent driver sessions sharing the same cluster.
type Driver struct {
	conn      transport.Conn
	job       ids.JobID
	seq       uint64
	nextVar   ids.VariableID
	nextStage ids.StageID
	// Failover state (failover.go): the transport and full endpoint list
	// (primary first) for reattach dials, the registration identity the
	// reattach re-presents, the journal of logged fire-and-forget ops
	// (marshaled copies, indexed by opsSent), and opsSent itself — the
	// count the controller's per-job applied counter mirrors.
	tr       transport.Transport
	addrs    []string
	name     string
	weight   int
	tenant   string
	priority uint8
	journal  []journalEntry
	opsSent  uint64
	// inbox holds messages decoded from a batch frame but not yet
	// consumed; inboxHead indexes the next message so consumption is O(1)
	// without shifting.
	inbox     []proto.Msg
	inboxHead int
	// pending is the seq-keyed reply table: every in-flight Get, Barrier,
	// Checkpoint and InstantiateWhile awaits its reply here.
	pending map[uint64]*pendingReply
	// dead is the sticky fatal session error (connection lost, controller
	// shutdown); once set, every pending and future request fails with it.
	dead error
}

// Var is a declared application variable.
type Var struct {
	ID         ids.VariableID
	Name       string
	Partitions int
}

// Ref is one variable access in a stage submission.
type Ref struct{ proto.VarRef }

// Read accesses partition t of the variable from task t.
func (v Var) Read() Ref {
	return Ref{proto.VarRef{Var: v.ID, Pattern: proto.OnePerTask}}
}

// Write writes partition t of the variable from task t.
func (v Var) Write() Ref {
	return Ref{proto.VarRef{Var: v.ID, Write: true, Pattern: proto.OnePerTask}}
}

// ReadShared reads partition 0 from every task (broadcast reads of
// scalars such as model parameters).
func (v Var) ReadShared() Ref {
	return Ref{proto.VarRef{Var: v.ID, Pattern: proto.Shared}}
}

// WriteShared writes partition 0 (single-writer scalars; use with
// one-task stages).
func (v Var) WriteShared() Ref {
	return Ref{proto.VarRef{Var: v.ID, Write: true, Pattern: proto.Shared}}
}

// ReadGrouped reads the contiguous group of partitions assigned to each
// task (reduction trees: a stage with T tasks over a variable with T*K
// partitions gives task t partitions [t*K, (t+1)*K)).
func (v Var) ReadGrouped() Ref {
	return Ref{proto.VarRef{Var: v.ID, Pattern: proto.Grouped}}
}

// ReadStencil reads partitions [t-1, t+1] (clamped) from task t — halo
// exchange for grid codes partitioned into strips.
func (v Var) ReadStencil() Ref {
	return Ref{proto.VarRef{Var: v.ID, Pattern: proto.Stencil, Fixed: 1}}
}

// ReadAt reads one fixed partition from every task.
func (v Var) ReadAt(p int) Ref {
	return Ref{proto.VarRef{Var: v.ID, Pattern: proto.FixedPartition, Fixed: p}}
}

// WriteAt writes one fixed partition (single-writer).
func (v Var) WriteAt(p int) Ref {
	return Ref{proto.VarRef{Var: v.ID, Write: true, Pattern: proto.FixedPartition, Fixed: p}}
}

// Pred is a controller-evaluated loop predicate: the first float64 of one
// partition's contents compared against a threshold. Construct one with
// Var.AtLeast/Above/AtMost/Below; the comparison is the loop's CONTINUE
// condition.
type Pred struct{ proto.Pred }

// AtLeast continues the loop while partition p's scalar is >= threshold.
func (v Var) AtLeast(p int, threshold float64) Pred {
	return Pred{proto.Pred{Var: v.ID, Partition: p, Op: proto.PredGE, Threshold: threshold}}
}

// Above continues the loop while partition p's scalar is > threshold.
func (v Var) Above(p int, threshold float64) Pred {
	return Pred{proto.Pred{Var: v.ID, Partition: p, Op: proto.PredGT, Threshold: threshold}}
}

// AtMost continues the loop while partition p's scalar is <= threshold.
func (v Var) AtMost(p int, threshold float64) Pred {
	return Pred{proto.Pred{Var: v.ID, Partition: p, Op: proto.PredLE, Threshold: threshold}}
}

// Below continues the loop while partition p's scalar is < threshold.
func (v Var) Below(p int, threshold float64) Pred {
	return Pred{proto.Pred{Var: v.ID, Partition: p, Op: proto.PredLT, Threshold: threshold}}
}

// Connect dials the controller and registers a driver session with the
// default fair-share weight. It blocks until the controller admits the
// job and returns its handle.
func Connect(tr transport.Transport, addr, name string) (*Driver, error) {
	return ConnectOpts(context.Background(), tr, addr, Opts{Name: name})
}

// Opts bundles the session parameters for ConnectOpts.
type Opts struct {
	// Name labels the session in controller logs and replication records.
	Name string
	// Weight is the fair-share weight among the tenant's jobs (<= 0 means
	// 1): within a tenant, a weight-2 job receives twice the executor
	// slots of a weight-1 job.
	Weight int
	// Tenant groups sessions for hierarchical fair share and per-tenant
	// admission rate limits; empty means the default tenant.
	Tenant string
	// Priority orders the controller's bounded admission queue when the
	// job cap is reached: higher admits first, FIFO within a band.
	Priority uint8
	// Failover lists additional controller endpoints to reattach through
	// when the controller at addr dies: a promoted standby re-binds addr
	// itself on shared-memory transports, but on TCP it listens on its own
	// address, which the driver must know in advance.
	Failover []string
}

// ErrAdmissionRejected is the sentinel matched (via errors.Is) by every
// typed admission rejection: queue full, job cap reached with no queue,
// per-tenant rate limit, controller shutting down. Callers never block
// forever on a saturated controller — they get this, usually wrapped in a
// *RejectError carrying the retry-after hint.
var ErrAdmissionRejected = errors.New("driver: admission rejected")

// RejectError is a typed admission rejection from the controller's
// bounded front door. It matches ErrAdmissionRejected under errors.Is.
type RejectError struct {
	// Code is the proto.Reject* reason.
	Code uint8
	// RetryAfter is the controller's backoff hint (zero when retrying is
	// pointless, e.g. shutdown).
	RetryAfter time.Duration
	// Reason is the controller's human-readable explanation.
	Reason string
}

func (e *RejectError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("driver: admission rejected: %s (retry after %v)", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("driver: admission rejected: %s", e.Reason)
}

// Is matches the ErrAdmissionRejected sentinel.
func (e *RejectError) Is(target error) bool { return target == ErrAdmissionRejected }

// ConnectOpts is the full-surface connect: a deadline over the whole
// connection handshake — dial plus admission — and the session parameters
// in o. Pass a *transport.Mux as tr to multiplex the session over a shared
// gateway connection pool instead of a dedicated connection.
//
// v1's Connect blocked forever when the controller accepted the
// connection but never acked admission; cancelling ctx closes the
// half-open connection and returns ctx's error. Transports' Dial is not
// context-aware: if ctx fires while the dial itself is still blocked,
// ConnectOpts returns immediately but the dialing goroutine lingers until
// the transport's own dial timeout (the OS's, for TCP) fires, at which
// point it closes any connection it made and exits.
func ConnectOpts(ctx context.Context, tr transport.Transport, addr string, o Opts) (*Driver, error) {
	if o.Weight <= 0 {
		o.Weight = 1
	}
	type result struct {
		d   *Driver
		err error
	}
	ch := make(chan result, 1)
	var mu sync.Mutex
	var conn transport.Conn
	var abandoned bool
	go func() {
		// The controller may not be listening yet; retry briefly with the
		// shared backoff helper, bailing out if ctx cancels the connect.
		c, err := transport.DialRetry(tr, addr, transport.Backoff{}, 0, 2*time.Second, ctx.Done())
		if err != nil {
			ch <- result{err: fmt.Errorf("driver: dial %s: %w", addr, err)}
			return
		}
		mu.Lock()
		if abandoned {
			mu.Unlock()
			c.Close()
			return
		}
		conn = c
		mu.Unlock()
		d := &Driver{
			conn: c, pending: make(map[uint64]*pendingReply),
			tr: tr, addrs: append([]string{addr}, o.Failover...),
			name: o.Name, weight: o.Weight,
			tenant: o.Tenant, priority: o.Priority,
		}
		if err := d.rawSend(&proto.RegisterDriver{
			Name: o.Name, Weight: o.Weight, Tenant: o.Tenant, Priority: o.Priority,
		}); err != nil {
			c.Close()
			ch <- result{err: err}
			return
		}
		job, err := d.awaitAdmission()
		if err != nil {
			c.Close()
			ch <- result{err: fmt.Errorf("driver: awaiting admission: %w", err)}
			return
		}
		d.job = job
		ch <- result{d: d}
	}()
	select {
	case r := <-ch:
		return r.d, r.err
	case <-ctx.Done():
		mu.Lock()
		abandoned = true
		c := conn
		mu.Unlock()
		if c != nil {
			c.Close() // unblocks the admission Recv; the goroutine exits
		}
		return nil, fmt.Errorf("driver: connect %s: %w", addr, ctx.Err())
	}
}

// awaitAdmission reads until the controller's RegisterDriverAck.
func (d *Driver) awaitAdmission() (ids.JobID, error) {
	for {
		m, err := d.recvMsg()
		if err != nil {
			return ids.NoJob, err
		}
		switch m := m.(type) {
		case *proto.RegisterDriverAck:
			return m.Job, nil
		case *proto.AdmissionReject:
			return ids.NoJob, &RejectError{
				Code:       m.Code,
				RetryAfter: time.Duration(m.RetryAfterMillis) * time.Millisecond,
				Reason:     m.Err,
			}
		case *proto.ErrorMsg:
			return ids.NoJob, fmt.Errorf("controller error: %s", m.Text)
		case *proto.Shutdown:
			return ids.NoJob, fmt.Errorf("controller shut down")
		}
	}
}

// Job returns the controller-assigned job handle for this session.
func (d *Driver) Job() ids.JobID { return d.job }

// rawSend marshals and sends one message on the current connection, with
// no journaling and no reattach on failure.
func (d *Driver) rawSend(m proto.Msg) error {
	buf := proto.MarshalAppend(proto.GetBuf(), m)
	owned, err := transport.SendOwned(d.conn, buf)
	if !owned {
		proto.PutBuf(buf)
	}
	return err
}

// send journals one logged fire-and-forget operation (the controller
// logs, counts and replicates exactly these) and sends it. On a
// connection failure the journal entry survives: reattach reconciliation
// (failover.go) resends every entry past the applied count the new
// controller reports, so the op is delivered exactly once whether or not
// the dead controller processed it.
func (d *Driver) send(m proto.Msg) error {
	if d.dead != nil {
		return d.dead
	}
	d.opsSent++
	d.journal = append(d.journal, journalEntry{index: d.opsSent, buf: proto.Marshal(m)})
	if err := d.rawSend(m); err != nil {
		return d.recover(err)
	}
	return nil
}

// OpsSent reports how many logged operations this session has issued; a
// controller that has applied the session's full history reports the same
// count. Failover tests assert the two match after a takeover.
func (d *Driver) OpsSent() uint64 { return d.opsSent }

// JournalLen reports how many logged operations the failover journal
// currently retains. Barrier and checkpoint commits trim it to the
// controller's safe applied count, so tests pin that a long checkpointed
// run keeps it bounded instead of growing one entry per op.
func (d *Driver) JournalLen() int { return len(d.journal) }

// recvMsg returns the next controller message, unpacking batch frames.
// Connection loss is fatal (the session fails); a corrupt frame is a
// transient error — its decoded prefix is dropped so a half-valid frame
// cannot desynchronize reply matching.
func (d *Driver) recvMsg() (proto.Msg, error) {
	for d.inboxHead >= len(d.inbox) {
		d.inbox = d.inbox[:0]
		d.inboxHead = 0
		raw, err := d.conn.Recv()
		if err != nil {
			// Reattach through the endpoint list; any messages decoded
			// during the handshake were spliced into the inbox.
			if rerr := d.recover(fmt.Errorf("driver: connection lost: %w", err)); rerr != nil {
				return nil, rerr
			}
			// Recovery can resolve pending entries locally (an interrupted
			// InstantiateWhile fails rather than restart), so hand control
			// back instead of blocking on the new connection: a waitFor
			// whose entry was just resolved must notice before reading a
			// message the controller may never owe it.
			return nil, errRecovered
		}
		err = proto.ForEachMsg(raw, func(m proto.Msg) error {
			d.inbox = append(d.inbox, m)
			return nil
		})
		proto.PutBuf(raw)
		if err != nil {
			d.inbox = d.inbox[:0]
			d.inboxHead = 0
			return nil, err
		}
	}
	m := d.inbox[d.inboxHead]
	d.inbox[d.inboxHead] = nil
	d.inboxHead++
	return m, nil
}

// DefineVariable declares a variable with the given partition count.
func (d *Driver) DefineVariable(name string, partitions int) (Var, error) {
	d.nextVar++
	v := Var{ID: d.nextVar, Name: name, Partitions: partitions}
	err := d.send(&proto.DefineVariable{Var: v.ID, Name: name, Partitions: partitions})
	return v, err
}

// MustVar is DefineVariable that panics on error (setup-time use).
func (d *Driver) MustVar(name string, partitions int) Var {
	v, err := d.DefineVariable(name, partitions)
	if err != nil {
		panic(err)
	}
	return v
}

// Put uploads one partition's initial contents. Puts are asynchronous;
// Barrier or Get forces completion.
func (d *Driver) Put(v Var, partition int, data []byte) error {
	return d.send(&proto.Put{Var: v.ID, Partition: partition, Data: data})
}

// PutFloats uploads a float64 slice via the params encoding.
func (d *Driver) PutFloats(v Var, partition int, vals []float64) error {
	return d.Put(v, partition, params.NewEncoder(8*len(vals)+8).Floats(vals).Blob())
}

// GetAsync requests one partition's current contents without blocking.
// The controller answers after all previously submitted work that writes
// the partition has completed; many GetAsyncs may be in flight at once
// and resolve out of order.
func (d *Driver) GetAsync(v Var, partition int) *Future[[]byte] {
	p := d.register()
	d.request(p, &proto.Get{Seq: p.seq, Var: v.ID, Partition: partition})
	return &Future[[]byte]{d: d, p: p, conv: func(p *pendingReply) ([]byte, error) {
		return p.data, nil
	}}
}

// Get reads one partition's current contents. It synchronizes: the result
// reflects all previously submitted work.
func (d *Driver) Get(v Var, partition int) ([]byte, error) {
	return d.GetAsync(v, partition).Wait()
}

// GetFloatsAsync is GetAsync decoding the result through the params
// encoding.
func (d *Driver) GetFloatsAsync(v Var, partition int) *Future[[]float64] {
	p := d.register()
	d.request(p, &proto.Get{Seq: p.seq, Var: v.ID, Partition: partition})
	return &Future[[]float64]{d: d, p: p, conv: func(p *pendingReply) ([]float64, error) {
		return params.DecodeFloats(p.data)
	}}
}

// GetFloats reads a float64 slice written via the params encoding.
func (d *Driver) GetFloats(v Var, partition int) ([]float64, error) {
	return d.GetFloatsAsync(v, partition).Wait()
}

// Submit submits one stage: fn runs as one task per partition with the
// given accesses and a shared parameter blob.
func (d *Driver) Submit(fnID ids.FunctionID, tasks int, p params.Blob, refs ...Ref) error {
	d.nextStage++
	spec := &proto.SubmitStage{
		Stage: d.nextStage, Fn: fnID, Tasks: tasks, Params: p,
		Refs: make([]proto.VarRef, len(refs)),
	}
	for i, r := range refs {
		spec.Refs[i] = r.VarRef
	}
	return d.send(spec)
}

// SubmitPerTask submits a stage whose tasks take distinct parameters
// (data-generation stages; not recordable into templates).
func (d *Driver) SubmitPerTask(fnID ids.FunctionID, tasks int, perTask []params.Blob, refs ...Ref) error {
	d.nextStage++
	spec := &proto.SubmitStage{
		Stage: d.nextStage, Fn: fnID, Tasks: tasks, PerTask: perTask,
		Refs: make([]proto.VarRef, len(refs)),
	}
	for i, r := range refs {
		spec.Refs[i] = r.VarRef
	}
	return d.send(spec)
}

// BeginTemplate marks the start of a basic block. The stages submitted
// until EndTemplate execute normally and are simultaneously recorded.
func (d *Driver) BeginTemplate(name string) error {
	return d.send(&proto.TemplateStart{Name: name})
}

// EndTemplate finishes recording; the controller builds and installs the
// controller and worker templates.
func (d *Driver) EndTemplate(name string) error {
	return d.send(&proto.TemplateEnd{Name: name})
}

// Instantiate re-executes a recorded basic block. paramArray supplies one
// blob per parameterized stage, in submission order; pass nothing to reuse
// the recorded parameters.
func (d *Driver) Instantiate(name string, paramArray ...params.Blob) error {
	return d.send(&proto.InstantiateBlock{Name: name, ParamArray: paramArray})
}

// LoopResult reports a finished controller-evaluated loop: how many
// template iterations ran and the scalar the final predicate evaluation
// saw.
type LoopResult struct {
	Iters     int
	LastValue float64
}

// InstantiateWhileAsync submits a whole data-dependent loop without
// blocking: the controller instantiates the named template back-to-back,
// re-evaluating pred against the reduced scalar after each completion,
// and answers once. The loop runs at least one and at most maxIters
// (>= 1) iterations, continuing while pred holds; paramArray is passed to
// every iteration.
func (d *Driver) InstantiateWhileAsync(name string, pred Pred, maxIters int, paramArray ...params.Blob) *Future[LoopResult] {
	p := d.register()
	d.request(p, &proto.InstantiateWhile{
		Seq: p.seq, Name: name, Pred: pred.Pred, MaxIters: maxIters, ParamArray: paramArray,
	})
	return &Future[LoopResult]{d: d, p: p, conv: func(p *pendingReply) (LoopResult, error) {
		res := LoopResult{Iters: p.iters, LastValue: p.lastValue}
		if p.loopErr != "" {
			return res, fmt.Errorf("driver: loop failed: %s", p.loopErr)
		}
		return res, nil
	}}
}

// InstantiateWhile submits a loop and blocks until it exits. Against the
// v1 pattern — Instantiate + Get per iteration — it costs one
// driver↔controller round trip for the whole loop instead of one per
// iteration.
func (d *Driver) InstantiateWhile(name string, pred Pred, maxIters int, paramArray ...params.Blob) (LoopResult, error) {
	return d.InstantiateWhileAsync(name, pred, maxIters, paramArray...).Wait()
}

// BarrierAsync asks for completion of all submitted work without blocking.
func (d *Driver) BarrierAsync() *Future[struct{}] {
	p := d.register()
	d.request(p, &proto.Barrier{Seq: p.seq})
	return &Future[struct{}]{d: d, p: p}
}

// Barrier blocks until all submitted work has completed.
func (d *Driver) Barrier() error {
	_, err := d.BarrierAsync().Wait()
	return err
}

// CheckpointAsync requests a checkpoint without blocking.
func (d *Driver) CheckpointAsync() *Future[struct{}] {
	p := d.register()
	d.request(p, &proto.CheckpointReq{Seq: p.seq})
	return &Future[struct{}]{d: d, p: p}
}

// Checkpoint requests a checkpoint and blocks until it commits.
func (d *Driver) Checkpoint() error {
	_, err := d.CheckpointAsync().Wait()
	return err
}

// Close ends the driver session and its job: the controller tears down
// the job's templates, outstanding builds, directory entries and
// worker-side namespaces. Other jobs sharing the cluster are unaffected,
// and Close does not shut the cluster down. The explicit JobEnd makes
// teardown deterministic, and its send error is propagated so callers
// learn when the goodbye never reached the controller — the connection
// drop still triggers the same teardown there.
func (d *Driver) Close() error {
	var sendErr error
	if d.dead == nil {
		sendErr = d.rawSend(&proto.JobEnd{Job: d.job})
	}
	closeErr := d.conn.Close()
	if sendErr != nil {
		return fmt.Errorf("driver: sending job end: %w", sendErr)
	}
	return closeErr
}

// Abort drops the connection without the graceful JobEnd, simulating a
// crashed driver. The controller detects the disconnect and tears the job
// down the same way (fault-injection and tests).
func (d *Driver) Abort() error {
	return d.conn.Close()
}
