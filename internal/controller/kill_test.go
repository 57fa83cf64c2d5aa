package controller

import (
	"testing"
	"time"

	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// TestKillSeversConnOfPumpThatQuit: Kill closes c.stopped and the mailbox
// before it collects the connection registry, and a connection reader
// whose post fails in that window quits without closing its connection.
// Kill must still sever it, or the worker on the other end never learns
// the controller died and a promoted standby waits for it forever.
func TestKillSeversConnOfPumpThatQuit(t *testing.T) {
	mem := transport.NewMem(0)
	c := New(Config{ControlAddr: "ctl", Transport: mem, Logf: func(string, ...any) {}})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := mem.Dial("ctl")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(proto.Marshal(&proto.RegisterWorker{DataAddr: "data/1", Slots: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatalf("registration ack: %v", err)
	}

	// Hold the window open: stop the node, then hand the reader a frame
	// it cannot post.
	c.stopOnce.Do(func() { close(c.stopped) })
	c.mbox.Close()
	beats := make([]proto.Msg, 64)
	for i := range beats {
		beats[i] = &proto.Heartbeat{Worker: 1}
	}
	if err := conn.Send(proto.AppendBatch(nil, beats)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	c.Kill()

	severed := make(chan struct{})
	go func() {
		defer close(severed)
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	select {
	case <-severed:
	case <-time.After(time.Second):
		t.Fatal("Kill left the worker's connection open")
	}
}
