package transport

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"nimbus/internal/proto"
)

// TestBackoffDelayCappedAndJittered pins the delay envelope: exponential
// growth from Base, capped at Max, with at most Jitter fraction shaved
// off — never zero, never above the cap.
func TestBackoffDelayCappedAndJittered(t *testing.T) {
	b := Backoff{Base: 4 * time.Millisecond, Max: 32 * time.Millisecond, Factor: 2, Jitter: 0.5}
	rng := rand.New(rand.NewSource(7))
	for attempt := 0; attempt < 12; attempt++ {
		full := 4 * time.Millisecond << uint(attempt)
		if full > 32*time.Millisecond {
			full = 32 * time.Millisecond
		}
		for trial := 0; trial < 50; trial++ {
			d := b.Delay(attempt, rng)
			if d > full {
				t.Fatalf("attempt %d: delay %v above cap %v", attempt, d, full)
			}
			if d < full/2 {
				t.Fatalf("attempt %d: delay %v below jitter floor %v", attempt, d, full/2)
			}
		}
	}
}

// TestDialRetryWaitsForListener starts the dial before any listener
// exists: the retry loop must connect once the listener appears.
func TestDialRetryWaitsForListener(t *testing.T) {
	m := NewMem(0)
	done := make(chan error, 1)
	go func() {
		conn, err := DialRetry(m, "late", Backoff{Base: time.Millisecond}, 0, 2*time.Second, nil)
		if conn != nil {
			conn.Close()
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	lis, err := m.Listen("late")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	if err := <-done; err != nil {
		t.Fatalf("dial retry: %v", err)
	}
}

// TestDialRetryAttemptLimit fails deterministically after the attempt
// budget, wrapping the last dial error.
func TestDialRetryAttemptLimit(t *testing.T) {
	m := NewMem(0)
	_, err := DialRetry(m, "nowhere", Backoff{Base: time.Microsecond}, 3, 0, nil)
	if err == nil {
		t.Fatal("dial to nowhere succeeded")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error %q does not name the attempt budget", err)
	}
}

// TestDialRetryCancel unblocks promptly when the cancel channel closes.
func TestDialRetryCancel(t *testing.T) {
	m := NewMem(0)
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := DialRetry(m, "nowhere", Backoff{Base: time.Hour}, 0, 0, cancel)
		done <- err
	}()
	close(cancel)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled dial reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled dial did not return")
	}
}

// TestListenRetryWaitsForRelease mirrors a takeover: the old listener
// holds the address, the new controller's ListenRetry binds as soon as it
// is released.
func TestListenRetryWaitsForRelease(t *testing.T) {
	m := NewMem(0)
	old, err := m.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		old.Close()
	}()
	lis, err := ListenRetry(m, "ctrl", Backoff{Base: time.Millisecond}, 2*time.Second, nil)
	if err != nil {
		t.Fatalf("listen retry: %v", err)
	}
	lis.Close()
}

// TestExchangeEnds: an exchange returns the reply frame's messages; one
// the peer never answers ends at its deadline or when cancel closes, and
// either way the connection is closed, so the peer sees it go.
func TestExchangeEnds(t *testing.T) {
	hello := &proto.RegisterWorker{DataAddr: "data/1", Slots: 1}
	a, b := Pipe(0)
	go func() {
		if _, err := b.Recv(); err == nil {
			b.Send(proto.AppendBatch(nil, []proto.Msg{&proto.RegisterWorkerAck{Worker: 3}, &proto.Heartbeat{Worker: 3}}))
		}
	}()
	reply, err := Exchange(a, hello, time.Second, nil)
	if err != nil || len(reply) != 2 || reply[0].Kind() != proto.KindRegisterWorkerAck {
		t.Fatalf("answered exchange = %v, %v; want the ack and the heartbeat", reply, err)
	}

	cancel := make(chan struct{})
	for _, tc := range []struct {
		name     string
		deadline time.Duration
		end      func()
	}{
		{"deadline", 20 * time.Millisecond, func() {}},
		{"cancel", 0, func() { close(cancel) }},
	} {
		a, b := Pipe(0)
		end := tc.end
		go func() {
			time.Sleep(20 * time.Millisecond)
			end()
		}()
		if _, err := Exchange(a, hello, tc.deadline, cancel); err == nil {
			t.Fatalf("%s: an unanswered exchange succeeded", tc.name)
		}
		b.Recv() // the hello
		if _, err := b.Recv(); err == nil {
			t.Fatalf("%s: the peer got a frame after the hello", tc.name)
		}
	}
}
