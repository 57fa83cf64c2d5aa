package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"

	"nimbus/internal/controller"
	"nimbus/internal/driver"
	"nimbus/internal/durable"
	"nimbus/internal/fn"
	"nimbus/internal/transport"
	"nimbus/internal/worker"
)

// Cluster shape, the same on every workload: the paper's 8-slot workers,
// four of them so that three quarters of all grouped reads cross a link.
const (
	numWorkers = 4
	numSlots   = 8
)

// testbed is driver + controller + workers in this process. It is built
// from controller.New / worker.New / driver.Connect directly because
// cluster.Options can only name the Mem transport.
type testbed struct {
	ctrl    *controller.Controller
	workers []*worker.Worker
	drv     *driver.Driver
}

// startTestbed starts the nodes over Mem or loopback TCP. With a tracer
// every node's transport is wrapped by it; without one the nodes get the
// bare transport. scratch is a directory inside the checkout for the
// workers' spill files (never used at the default receive budget, but
// worker.Start creates it, and the default would be the system temp
// directory).
func startTestbed(tcp bool, tr *tracer, reg *fn.Registry, scratch string) (*testbed, error) {
	var bare transport.Transport = transport.NewMem(0)
	ctlAddr := "bench/controller"
	dataAddr := func(i int) string { return fmt.Sprintf("bench/data/%d", i) }
	if tcp {
		// Workers announce Config.DataAddr verbatim to their peers, so an
		// ":0" listen address cannot be used: pick the ports beforehand.
		ports, err := freePorts(1 + numWorkers)
		if err != nil {
			return nil, err
		}
		bare = transport.TCP{}
		ctlAddr = ports[0]
		dataAddr = func(i int) string { return ports[1+i] }
	}
	node := func(r role) transport.Transport {
		if tr == nil {
			return bare
		}
		return &tracedTransport{t: tr, role: r, inner: bare}
	}
	if tr != nil {
		tr.ctlAddr = ctlAddr
	}
	tb := &testbed{}
	tb.ctrl = controller.New(controller.Config{ControlAddr: ctlAddr, Transport: node(roleController), Logf: quiet})
	if err := tb.ctrl.Start(); err != nil {
		return nil, err
	}
	store := durable.NewMem()
	for i := 0; i < numWorkers; i++ {
		w := worker.New(worker.Config{
			ControlAddr: ctlAddr, DataAddr: dataAddr(i), Transport: node(roleWorker),
			Slots: numSlots, Registry: reg, Durable: store,
			SpillDir: filepath.Join(scratch, fmt.Sprintf("spill-%d", i)), Logf: quiet,
		})
		if err := w.Start(); err != nil {
			tb.stop()
			return nil, err
		}
		tb.workers = append(tb.workers, w)
	}
	d, err := driver.Connect(node(roleDriver), ctlAddr, "bench")
	if err != nil {
		tb.stop()
		return nil, err
	}
	tb.drv = d
	return tb, nil
}

// quiet drops the nodes' diagnostics; their default is log.Printf.
func quiet(string, ...any) {}

// stop shuts every node down and waits for its goroutines.
func (tb *testbed) stop() {
	if tb.drv != nil {
		_ = tb.drv.Close() // the controller is stopping anyway
	}
	tb.ctrl.Stop()
	for _, w := range tb.workers {
		w.Stop()
	}
}

// freePorts returns n loopback addresses that were free a moment ago.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("picking a free port: %w", err)
		}
		held = append(held, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// scratchDir creates a per-process scratch directory under the benchmark's
// own output directory; the caller removes it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir(), "run-")
}
