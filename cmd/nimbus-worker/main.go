// Command nimbus-worker runs a standalone Nimbus worker over TCP.
//
//	nimbus-worker -controller host:7000 -data :7101 -slots 8
//
// The worker registers the built-in functions plus the bundled
// applications (lr, kmeans, water), so driver programs built from this
// repository can run against it directly. A worker that joins while a job
// is live is warmed (every live job's active templates installed and
// compiled) before it takes traffic, and a controller-initiated drain lets
// it retire without failing a command (DESIGN.md "Elastic fleet").
package main

import (
	"flag"
	"log"
	"time"

	"nimbus/internal/app/kmeans"
	"nimbus/internal/app/lr"
	"nimbus/internal/app/water"
	"nimbus/internal/durable"
	"nimbus/internal/fn"
	"nimbus/internal/transport"
	"nimbus/internal/worker"
)

func main() {
	ctrl := flag.String("controller", "localhost:7000", "controller address")
	data := flag.String("data", ":7100", "data-plane listen address (must be reachable by peers)")
	slots := flag.Int("slots", 8, "executor slots")
	ckptDir := flag.String("checkpoint-dir", "nimbus-checkpoints", "durable storage directory")
	hb := flag.Duration("heartbeat", time.Second, "heartbeat period")
	flag.Parse()

	reg := fn.NewRegistry()
	lr.Register(reg)
	kmeans.Register(reg)
	water.Register(reg)

	w := worker.New(worker.Config{
		ControlAddr:    *ctrl,
		DataAddr:       *data,
		Transport:      transport.TCP{},
		Slots:          *slots,
		Registry:       reg,
		Durable:        durable.NewFS(*ckptDir),
		HeartbeatEvery: *hb,
		Logf:           log.Printf,
	})
	if err := w.Start(); err != nil {
		log.Fatalf("starting worker: %v", err)
	}
	log.Printf("nimbus worker %s admitted by %s (data plane %s, %d slots)",
		w.ID(), *ctrl, *data, *slots)
	select {
	case <-w.Ready():
		log.Printf("nimbus worker %s active", w.ID())
	case <-w.Stopped():
	}
	if err := w.Wait(); err != nil {
		log.Printf("worker stopped: %v", err)
	}
}
