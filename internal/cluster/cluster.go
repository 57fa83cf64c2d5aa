// Package cluster assembles in-process Nimbus clusters: one controller and
// N workers over the in-memory transport with a configurable latency
// model. It is the testbed substitute for the paper's EC2 deployment —
// every control-plane code path (encoding, queueing, dispatch, templates)
// is the production one; only the wires are in-memory.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"nimbus/internal/chaos"
	"nimbus/internal/controller"
	"nimbus/internal/driver"
	"nimbus/internal/durable"
	"nimbus/internal/fleet"
	"nimbus/internal/fn"
	"nimbus/internal/transport"
	"nimbus/internal/worker"
)

// ControlAddr is the controller's address on the cluster transport.
const ControlAddr = "nimbus/controller"

// Options configures a cluster.
type Options struct {
	// Workers is the number of worker nodes (default 4).
	Workers int
	// Slots is the per-worker executor concurrency (default 8, matching
	// the paper's c3.2xlarge workers).
	Slots int
	// Latency is the one-way message latency (default 0; the scaling
	// experiments use 100µs, an EC2 placement-group hop).
	Latency time.Duration
	// Mode selects the controller's scheduling regime.
	Mode controller.Mode
	// CentralPerTaskCost calibrates the central baseline's per-task
	// scheduling cost (paper: 166µs for Spark 2.0).
	CentralPerTaskCost time.Duration
	// Registry supplies application functions (default: built-ins only).
	Registry *fn.Registry
	// HeartbeatEvery / HeartbeatTimeout enable failure detection.
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// LeaseTTL is the controller leadership lease for failover (zero
	// defaults to one second; failover tests shrink it).
	LeaseTTL time.Duration
	// ReattachDeadline bounds how long a promoted controller keeps a
	// restored job whose driver never reattaches (zero = forever); see
	// controller.Config.ReattachDeadline.
	ReattachDeadline time.Duration
	// AutoStandby keeps a hot standby attached automatically: one is
	// started with the cluster, and AwaitPromotion starts a fresh one
	// against each promoted primary so failover capacity is restored
	// without operator action.
	AutoStandby bool
	// ChaosSeed/ChaosRules interpose a chaos.Transport between every node
	// (set either to enable it): deterministic seeded fault schedules on
	// the wires, plus runtime Partition/Heal/Sever via Cluster.Chaos.
	ChaosSeed  uint64
	ChaosRules []chaos.Rule
	// Durable overrides the cluster's checkpoint store (default: a fresh
	// durable.Mem); chaos tests pass a chaos.FaultStore.
	Durable durable.Store
	// BuildParallelism bounds the controller's template-build goroutine
	// pool (0 = GOMAXPROCS, 1 = serial; see controller.Config).
	BuildParallelism int
	// Hooks forwards controller test/fault-injection hooks.
	Hooks controller.Hooks
	// Front-door knobs, forwarded to the controller: live-job cap,
	// admission queue depth, per-tenant fair-share weights and rate
	// limits. Zeroes take the controller defaults (unbounded admission,
	// no queue, equal weights, no rate limit).
	MaxJobs       int
	AdmitQueue    int
	TenantWeights map[string]int
	TenantRate    float64
	TenantBurst   int
	// Data-plane knobs, forwarded to every worker: transfer chunk size,
	// per-peer sender queue bound, receive reassembly budget (past it
	// transfers spill to disk) and spill directory. Zeroes take the worker
	// defaults.
	ChunkSize      int
	PeerQueueBytes int64
	RecvBudget     int64
	SpillDir       string
	// Logf receives diagnostics from all nodes (default: discard).
	Logf func(format string, args ...any)
}

// Cluster is a running in-process Nimbus deployment.
type Cluster struct {
	Transport  *transport.Mem
	Controller *controller.Controller
	Workers    []*worker.Worker
	Durable    *durable.Mem
	Registry   *fn.Registry
	// Standby is the hot-standby controller, if StartStandby was called.
	Standby *controller.Standby
	// Chaos is the fault-injection layer when Options enabled it (nil
	// otherwise); tests drive partitions and severs through it.
	Chaos *chaos.Transport

	opts    Options
	nextIdx int
	// net is the transport every node actually uses: the chaos wrapper
	// when enabled, the raw Mem otherwise. Transport stays the concrete
	// Mem for tests that reach into it.
	net transport.Transport
	// store is the durable store workers write checkpoints to: the
	// Options override when set, the cluster's own Mem otherwise.
	store durable.Store
}

// Start builds and starts a cluster.
func Start(opts Options) (*Cluster, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Slots <= 0 {
		opts.Slots = 8
	}
	if opts.Registry == nil {
		opts.Registry = fn.NewRegistry()
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	c := &Cluster{
		Transport: transport.NewMem(opts.Latency),
		Durable:   durable.NewMem(),
		Registry:  opts.Registry,
		opts:      opts,
	}
	c.net = c.Transport
	if opts.ChaosSeed != 0 || len(opts.ChaosRules) > 0 {
		c.Chaos = chaos.New(c.Transport, opts.ChaosSeed, opts.ChaosRules...)
		c.net = c.Chaos
	}
	c.store = durable.Store(c.Durable)
	if opts.Durable != nil {
		c.store = opts.Durable
	}
	c.Controller = controller.New(c.controllerConfig())
	if err := c.Controller.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		if _, err := c.AddWorker(); err != nil {
			c.Stop()
			return nil, err
		}
	}
	if opts.AutoStandby {
		if _, err := c.StartStandby(); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// controllerConfig builds the controller Config shared by the primary and
// any standby (a promoted standby re-binds the same address).
func (c *Cluster) controllerConfig() controller.Config {
	return controller.Config{
		ControlAddr:        ControlAddr,
		Transport:          c.net,
		Mode:               c.opts.Mode,
		CentralPerTaskCost: c.opts.CentralPerTaskCost,
		HeartbeatTimeout:   c.opts.HeartbeatTimeout,
		BuildParallelism:   c.opts.BuildParallelism,
		LeaseTTL:           c.opts.LeaseTTL,
		ReattachDeadline:   c.opts.ReattachDeadline,
		MaxJobs:            c.opts.MaxJobs,
		AdmitQueue:         c.opts.AdmitQueue,
		TenantWeights:      c.opts.TenantWeights,
		TenantRate:         c.opts.TenantRate,
		TenantBurst:        c.opts.TenantBurst,
		Hooks:              c.opts.Hooks,
		Logf:               c.opts.Logf,
	}
}

// workerConfig builds the Config of the cluster's next worker.
func (c *Cluster) workerConfig() worker.Config {
	c.nextIdx++
	return worker.Config{
		ControlAddr:    ControlAddr,
		DataAddr:       fmt.Sprintf("nimbus/data/%d", c.nextIdx),
		Transport:      c.net,
		Slots:          c.opts.Slots,
		Registry:       c.Registry,
		Durable:        c.store,
		HeartbeatEvery: c.opts.HeartbeatEvery,
		ChunkSize:      c.opts.ChunkSize,
		PeerQueueBytes: c.opts.PeerQueueBytes,
		RecvBudget:     c.opts.RecvBudget,
		SpillDir:       c.opts.SpillDir,
		Logf:           c.opts.Logf,
	}
}

// AddWorker starts one more worker, tracks it in the cluster and returns
// once it is active: at once, unless a live job warms it first (every
// active template installed and compiled before it takes traffic).
func (c *Cluster) AddWorker() (*worker.Worker, error) {
	w, err := c.startWorker()
	if err != nil {
		return nil, err
	}
	select {
	case <-w.Ready():
		return w, nil
	case <-w.Stopped():
		return nil, fmt.Errorf("cluster: worker %s stopped before it became active", w.ID())
	}
}

// startWorker starts one more worker and tracks it in the cluster. It
// returns once the controller has admitted the worker; its Ready channel
// closes once it is active.
func (c *Cluster) startWorker() (*worker.Worker, error) {
	w := worker.New(c.workerConfig())
	if err := w.Start(); err != nil {
		return nil, err
	}
	c.Workers = append(c.Workers, w)
	return w, nil
}

// FleetSample adapts the controller's load snapshot to the autoscaler's
// sample type (internal/fleet stays import-free of the control plane).
func (c *Cluster) FleetSample() fleet.Sample {
	s := c.Controller.FleetSample()
	return fleet.Sample{
		Workers:  s.Workers,
		Warming:  s.Warming,
		Draining: s.Draining,
		Jobs:     s.Jobs,
		Slots:    s.Slots,
		Pending:  s.Pending,
	}
}

// prov implements fleet.Provisioner over the in-process cluster: Launch
// starts fleet-joining workers on the Mem transport, Drain retires the
// newest ones through the controller's graceful drain.
type prov struct {
	mu sync.Mutex
	c  *Cluster
}

func (p *prov) Launch(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < n; i++ {
		if _, err := p.c.startWorker(); err != nil {
			return err
		}
	}
	return nil
}

func (p *prov) Drain(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ctrl := p.c.Controller
	ctrl.Do(func() { ctrl.DrainWorkers(n) })
	return nil
}

// Provisioner returns a fleet.Provisioner backed by this cluster.
func (c *Cluster) Provisioner() fleet.Provisioner { return &prov{c: c} }

// Autoscaler builds a fleet autoscaler wired to this cluster: load
// samples come from the controller, scaling actions launch or drain
// in-process workers. The caller supplies policy and damping via cfg and
// owns Start/Stop.
func (c *Cluster) Autoscaler(cfg fleet.Config) *fleet.Autoscaler {
	cfg.Sample = c.FleetSample
	cfg.Prov = c.Provisioner()
	if cfg.Logf == nil {
		cfg.Logf = c.opts.Logf
	}
	return fleet.New(cfg)
}

// Driver opens a driver session against the cluster.
func (c *Cluster) Driver(name string) (*driver.Driver, error) {
	return driver.Connect(c.net, ControlAddr, name)
}

// Gateway builds a session multiplexer over the cluster transport: driver
// sessions opened through it share at most conns connections to the
// controller (0 = transport.DefaultMaxConns). Callers pass it as the
// transport to driver.ConnectOpts.
func (c *Cluster) Gateway(conns int) *transport.Mux {
	return transport.NewMux(c.net, conns)
}

// KillWorker abruptly stops worker i (0-based), simulating a failure the
// controller must recover from.
func (c *Cluster) KillWorker(i int) {
	if i < 0 || i >= len(c.Workers) {
		return
	}
	c.Workers[i].Stop()
}

// StartStandby attaches a hot-standby controller to the running primary.
// The standby mirrors the primary's replicated state and promotes itself
// if the primary's leadership lease expires.
func (c *Cluster) StartStandby() (*controller.Standby, error) {
	// Standby-of-standby is not a topology: replication is strictly
	// primary→standby and a standby never re-streams. While an earlier
	// standby is attached and unpromoted, a second attach would chain
	// behind whatever promotes, so reject it outright.
	if s := c.Standby; s != nil {
		select {
		case <-s.Promoted():
		case <-s.Done():
		default:
			return nil, controller.ErrStandbyChain
		}
	}
	s := controller.NewStandby(c.controllerConfig())
	if err := s.Start(); err != nil {
		return nil, err
	}
	c.Standby = s
	return s, nil
}

// KillController terminates the primary abruptly — no Shutdown handshake,
// every connection drops — as a crashed controller process appears to its
// workers, drivers and standby.
func (c *Cluster) KillController() {
	c.Controller.Kill()
}

// AwaitPromotion blocks until the standby has taken over, then adopts the
// promoted controller as the cluster's controller and returns it. With
// Options.AutoStandby a fresh standby is started against the promoted
// primary — its attach dial retries while the takeover binds the control
// address — so the cluster survives a second failover too.
func (c *Cluster) AwaitPromotion(timeout time.Duration) (*controller.Controller, error) {
	if c.Standby == nil {
		return nil, fmt.Errorf("cluster: no standby attached")
	}
	select {
	case <-c.Standby.Promoted():
		c.Controller = c.Standby.Controller()
		if c.opts.AutoStandby {
			if _, err := c.StartStandby(); err != nil {
				return nil, fmt.Errorf("cluster: auto-standby: %w", err)
			}
		}
		return c.Controller, nil
	case <-c.Standby.Done():
		// Done closes after Promoted on a successful takeover; reaching it
		// with no controller means the standby stood down instead.
		if pc := c.Standby.Controller(); pc != nil {
			c.Controller = pc
			return pc, nil
		}
		return nil, fmt.Errorf("cluster: standby stood down: %v", c.Standby.Err())
	case <-time.After(timeout):
		return nil, fmt.Errorf("cluster: standby not promoted within %v", timeout)
	}
}

// Stop shuts the whole cluster down, including a standby and the
// controller it may have promoted.
func (c *Cluster) Stop() {
	c.Controller.Stop()
	if c.Standby != nil {
		c.Standby.Stop()
		if pc := c.Standby.Controller(); pc != nil && pc != c.Controller {
			pc.Stop()
		}
	}
	for _, w := range c.Workers {
		w.Stop()
	}
}
