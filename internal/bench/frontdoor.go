package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nimbus/internal/cluster"
	"nimbus/internal/driver"
	"nimbus/internal/fn"
	"nimbus/internal/transport"
)

// FrontDoor measures the driver front door: a thundering herd of
// lightweight sessions multiplexed over at most 16 shared connections to
// one controller. Each row reports, for one herd size, how long full
// admission took, the controller's admission-latency quantiles (stamped
// from frame decode to ack, so event-loop queueing counts), the
// loop-iteration p99 of a predicate loop running concurrently with the
// herd, and the session fan-in per shared connection.
func FrontDoor(s Scale) (*Table, error) {
	t := &Table{
		ID:    "frontdoor",
		Title: "Driver front door: session multiplexing and bounded admission",
		Columns: []string{
			"sessions", "conns", "sess/conn", "admit-all(ms)",
			"adm p50(us)", "adm p99(us)", "loop p99(us)", "failed",
		},
		Notes: []string{
			"each session registers through the shared-connection gateway, runs one put+submit+barrier, and closes",
			"a predicate loop on a dedicated connection runs across the herd; its p99 shows control-loop interference",
			fmt.Sprintf("gateway capped at %d shared connections; 4 workers", transport.DefaultMaxConns),
		},
	}
	for _, n := range s.FrontDoorSessions {
		row, err := s.runFrontDoor(n)
		if err != nil {
			return nil, fmt.Errorf("frontdoor %d sessions: %w", n, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (s Scale) runFrontDoor(n int) ([]string, error) {
	c, err := cluster.Start(cluster.Options{
		Workers: 4, Slots: s.Slots, Registry: fn.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	gw := c.Gateway(transport.DefaultMaxConns)
	defer gw.Close()

	// The interference probe: a controller-evaluated predicate loop over a
	// templated nop block, on its own dedicated connection. probe is never
	// written, so the predicate holds until the iteration bound.
	ld, err := c.Driver("frontdoor-loop")
	if err != nil {
		return nil, err
	}
	defer ld.Close()
	probe, err := ld.DefineVariable("probe", 1)
	if err != nil {
		return nil, err
	}
	lx, err := ld.DefineVariable("lx", 1)
	if err != nil {
		return nil, err
	}
	if err := ld.PutFloats(probe, 0, []float64{1}); err != nil {
		return nil, err
	}
	if err := ld.BeginTemplate("fd-loop"); err != nil {
		return nil, err
	}
	if err := ld.Submit(fn.FuncNop, 1, nil, lx.Read(), lx.Write()); err != nil {
		return nil, err
	}
	if err := ld.EndTemplate("fd-loop"); err != nil {
		return nil, err
	}
	loopRes := ld.InstantiateWhileAsync("fd-loop", probe.AtLeast(0, 0.5), s.FrontDoorLoopIters)

	var failed atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now()
	admitted := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			d, err := driver.ConnectOpts(context.Background(), gw, cluster.ControlAddr, driver.Opts{
				Name:   fmt.Sprintf("fd-%d", i),
				Tenant: fmt.Sprintf("t%d", i%4),
			})
			if err != nil {
				failed.Add(1)
				admitted <- struct{}{}
				return
			}
			admitted <- struct{}{}
			x, err := d.DefineVariable("x", 1)
			if err == nil {
				err = d.PutFloats(x, 0, []float64{float64(i)})
			}
			if err == nil {
				err = d.Submit(fn.FuncNop, 1, nil, x.Read(), x.Write())
			}
			if err == nil {
				err = d.Barrier()
			}
			if err != nil {
				failed.Add(1)
			}
			if d.Close() != nil {
				failed.Add(1)
			}
		}(i)
	}
	// admit-all is registration-to-ack for the whole herd, not job runtime.
	for i := 0; i < n; i++ {
		<-admitted
	}
	admitAll := time.Since(start)
	wg.Wait()
	if res, err := loopRes.Wait(); err != nil {
		return nil, fmt.Errorf("predicate loop: %w", err)
	} else if res.Iters != s.FrontDoorLoopIters {
		return nil, fmt.Errorf("predicate loop ran %d iterations, want %d", res.Iters, s.FrontDoorLoopIters)
	}

	fs := c.Controller.FrontDoorStats()
	conns := gw.Conns()
	if conns < 1 {
		conns = 1
	}
	return []string{
		fmt.Sprint(n),
		fmt.Sprint(conns),
		fmt.Sprintf("%.0f", float64(n)/float64(conns)),
		ms(admitAll),
		us(fs.AdmissionP50),
		us(fs.AdmissionP99),
		us(fs.LoopIterP99),
		fmt.Sprint(failed.Load()),
	}, nil
}
