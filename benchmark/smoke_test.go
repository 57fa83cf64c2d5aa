package main

import (
	"math"
	"path/filepath"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/transport"
)

// smokeScale divides every frozen count: the protocol, not the numbers, is
// under test.
const smokeScale = 100

func smokeRun(t *testing.T, w *workload, seed int64, traced bool) *result {
	t.Helper()
	var progress atomic.Int64
	res, err := run(runConfig{
		w: w, blk: w.block(seed), seed: seed, warmup: w.warmup / smokeScale, iters: w.measured / smokeScale,
		traced: traced, spans: filepath.Join(t.TempDir(), "spans.jsonl"), started: time.Now(), scratch: t.TempDir(),
		probeTrips: 200, probeBytes: 16 << 20,
	}, &progress)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d iterations failed: %s", w.name, res.Failed, res.Attempted, res.note)
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkEmitted verifies res holds exactly the manifest's metrics, with
// the manifest's units, under well-formed names.
func checkEmitted(t *testing.T, what string, res *result, want []manifestMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s of BENCHMARK.json not emitted", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s is %v", what, m.Name, got.Value)
		}
		if !nameRE.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q is malformed", m.Name)
		}
	}
}

func TestEveryWorkloadEndToEnd(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	if man.RunSeconds != refSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the counts are sized for %d", man.RunSeconds, refSeconds)
	}
	for i := range workloads {
		w := &workloads[i]
		if man.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d is %q here, %q in BENCHMARK.json", i, w.name, man.Workloads[i].Name)
		}
		res := smokeRun(t, w, 1, false)
		checkEmitted(t, w.name, res, man.EndToEnd)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, name, m.Value)
			}
		}
	}
}

// The counts a later change may claim on must repeat exactly, whatever the
// seed; and a traced run must emit every per-layer metric.
func TestTracedCountsRepeat(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	w := workloadByName("steady_mem")
	a, b := smokeRun(t, w, 1, true), smokeRun(t, w, 2, true)
	checkEmitted(t, "steady_mem traced", a, man.PerLayer)
	for _, name := range []string{
		"transport.drv_ctl.frames_per_iter", "transport.ctl_wkr.frames_per_iter", "transport.wkr_wkr.frames_per_iter",
		"controller.frames_per_iter", "worker.tasks_run_per_iter",
	} {
		if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
			t.Errorf("%s is %v with seed 1 and %v with seed 2", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	checkEmitted(t, "shuffle_tcp traced", smokeRun(t, workloadByName("shuffle_tcp"), 1, true), man.PerLayer)
}

// The wrapper must hand a Mem connection's owned buffer through uncopied,
// and must not claim ownership on TCP, which has none to take.
func TestWrapperForwardsOwnedSender(t *testing.T) {
	tr := &tracer{}
	mem := &tracedTransport{t: tr, role: roleWorker, inner: transport.NewMem(0)}
	lis, err := mem.Listen("data")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	cli, err := mem.Dial("data")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	tr.on.Store(true)
	for _, c := range []transport.Conn{cli, srv} {
		if _, ok := c.(transport.OwnedSender); !ok {
			t.Fatalf("wrapped Mem conn %T does not implement OwnedSender", c)
		}
	}
	buf := []byte("owned")
	if owned, err := transport.SendOwned(cli, buf); err != nil || !owned {
		t.Fatalf("SendOwned over wrapped Mem: owned=%v err=%v", owned, err)
	}
	got, err := srv.Recv()
	if err != nil || &got[0] != &buf[0] {
		t.Fatalf("receiver got a copy (err=%v): tracing reintroduced the copy SendOwned removed", err)
	}
	if f, b, _ := tr.total(wkrWkr); f != 1 || b != int64(len(buf)) {
		t.Errorf("wrapper counted %d frames, %d bytes; want 1, %d", f, b, len(buf))
	}

	ports, err := freePorts(1)
	if err != nil {
		t.Fatal(err)
	}
	tcp := &tracedTransport{t: tr, role: roleWorker, inner: transport.TCP{}}
	tl, err := tcp.Listen(ports[0])
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	tc, err := tcp.Dial(ports[0])
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	if _, ok := tc.(transport.OwnedSender); ok {
		t.Errorf("wrapped TCP conn claims OwnedSender; callers would stop recycling their buffers")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
