package cluster

import (
	"testing"
	"time"

	"nimbus/internal/controller"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/params"
)

// Test functions: double every element of the input partition, and sum
// grouped partitions into a scalar.
const (
	fnDouble ids.FunctionID = fn.FirstAppFunc + iota
	fnSumAll
)

// double writes twice its first read.
func double(c *fn.Ctx) error {
	in := params.NewDecoder(params.Blob(c.Read(0))).Floats()
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = 2 * v
	}
	c.SetWrite(0, params.NewEncoder(8*len(out)+8).Floats(out).Blob())
	return nil
}

func testRegistry(t testing.TB) *fn.Registry {
	t.Helper()
	reg := fn.NewRegistry()
	reg.MustRegister(fnDouble, "test/double", double)
	reg.MustRegister(fnSumAll, "test/sum-all", func(c *fn.Ctx) error {
		sum := 0.0
		for i := 0; i < c.NumReads(); i++ {
			for _, v := range params.NewDecoder(params.Blob(c.Read(i))).Floats() {
				sum += v
			}
		}
		c.SetWrite(0, params.NewEncoder(16).Floats([]float64{sum}).Blob())
		return nil
	})
	return reg
}

func startTestCluster(t testing.TB, opts Options) *Cluster {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = testRegistry(t)
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c, err := Start(opts)
	if err != nil {
		t.Fatalf("starting cluster: %v", err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestPutComputeGet(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 4})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	const parts = 8
	x := d.MustVar("x", parts)
	y := d.MustVar("y", parts)
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{float64(p), float64(p)}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.Submit(fnDouble, parts, nil, x.Read(), y.Write()); err != nil {
		t.Fatalf("submit double: %v", err)
	}
	if err := d.Submit(fnSumAll, 1, nil, y.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatalf("submit sum: %v", err)
	}
	got, err := d.GetFloats(sum, 0)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	// sum over p of 2*(p+p) = 4 * (0+1+...+7) = 112.
	if len(got) != 1 || got[0] != 112 {
		t.Fatalf("sum = %v, want [112]", got)
	}
}

func TestTemplateInstantiation(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 4})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	const parts = 8
	x := d.MustVar("x", parts)
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{1}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}

	// Record the basic block: double x in place, reduce into sum.
	if err := d.BeginTemplate("blk"); err != nil {
		t.Fatalf("begin template: %v", err)
	}
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := d.EndTemplate("blk"); err != nil {
		t.Fatalf("end template: %v", err)
	}
	got, err := d.GetFloats(sum, 0)
	if err != nil {
		t.Fatalf("get after recording: %v", err)
	}
	if len(got) != 1 || got[0] != 2*parts {
		t.Fatalf("after recording sum = %v, want [%d]", got, 2*parts)
	}

	// Each instantiation doubles again: 4x, 8x, 16x.
	want := float64(2 * parts)
	for i := 0; i < 3; i++ {
		if err := d.Instantiate("blk"); err != nil {
			t.Fatalf("instantiate %d: %v", i, err)
		}
		want *= 2
		got, err := d.GetFloats(sum, 0)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("instantiation %d: sum = %v, want [%v]", i, got, want)
		}
	}

	var auto, installs uint64
	c.Controller.Do(func() {
		auto = c.Controller.Stats.AutoValidations.Load()
		installs = c.Controller.Stats.TemplatesBuilt.Load()
	})
	if installs != 1 {
		t.Errorf("templates built = %d, want 1", installs)
	}
	if auto == 0 {
		t.Errorf("expected auto-validations on repeated instantiation, got 0")
	}

	// The workers must have served the repeated instantiations from the
	// compiled fast path: commands materialized through compiled arenas,
	// one compilation per install (never per instance), and pooled arenas
	// after the first instance.
	var cmds, compiles, reused, insts uint64
	for _, w := range c.Workers {
		cmds += w.Stats.InstantiateCmds.Load()
		compiles += w.Stats.TemplateCompiles.Load()
		reused += w.Stats.UnitsReused.Load()
		insts += w.Stats.Instantiations.Load()
	}
	if cmds == 0 {
		t.Errorf("no commands materialized through the compiled path")
	}
	if compiles > uint64(len(c.Workers)) {
		t.Errorf("templates recompiled per instantiation: %d compiles for %d workers", compiles, len(c.Workers))
	}
	if insts > uint64(len(c.Workers)) && reused == 0 {
		t.Errorf("no arena reuse across %d instantiations", insts)
	}
}

func TestCentralMode(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 3, Mode: controller.ModeCentral})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	const parts = 6
	x := d.MustVar("x", parts)
	sum := d.MustVar("sum", 1)
	for p := 0; p < parts; p++ {
		if err := d.PutFloats(x, p, []float64{3}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.Submit(fnDouble, parts, nil, x.Read(), x.Write()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	got, err := d.GetFloats(sum, 0)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if len(got) != 1 || got[0] != 36 {
		t.Fatalf("sum = %v, want [36]", got)
	}
}

// TestRegisterWhileJobLive adds a fixed-fleet worker while a driver job is
// admitted. The controller coalesces the registration ack and the job's
// slot quota into one batch frame; the worker must take the whole frame,
// enter the active set with the job's quota, and serve a partition placed
// on it.
func TestRegisterWhileJobLive(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 2, Slots: 2})
	d, err := c.Driver("register-live")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	w, err := c.AddWorker()
	if err != nil {
		t.Fatalf("add worker with a live job: %v", err)
	}
	var workers int
	c.Controller.Do(func() { workers = c.Controller.WorkerCount() })
	if workers != 3 {
		t.Fatalf("active workers = %d, want 3", workers)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.QuotaOf(d.Job()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("new worker never received the live job's quota")
		}
		time.Sleep(time.Millisecond)
	}

	// Placement is round-robin over the sorted active set, so partition 2
	// of a variable defined now lands on the new worker.
	x := d.MustVar("x", 3)
	if err := d.PutFloats(x, 2, []float64{4, 2}); err != nil {
		t.Fatalf("put: %v", err)
	}
	type result struct {
		vals []float64
		err  error
	}
	got := make(chan result, 1)
	go func() {
		vals, err := d.GetFloats(x, 2)
		got <- result{vals, err}
	}()
	select {
	case r := <-got:
		if r.err != nil || len(r.vals) != 2 || r.vals[0] != 4 || r.vals[1] != 2 {
			t.Fatalf("get = %v (err %v), want [4 2]", r.vals, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("get of a partition on the new worker never resolved")
	}
	if w.StoreOf(d.Job()).Len() == 0 {
		t.Fatal("partition 2 was not placed on the new worker")
	}
}

func TestLatencyTransportStillCorrect(t *testing.T) {
	c := startTestCluster(t, Options{Workers: 3, Latency: 200 * time.Microsecond})
	d, err := c.Driver("test")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()

	x := d.MustVar("x", 3)
	sum := d.MustVar("sum", 1)
	for p := 0; p < 3; p++ {
		if err := d.PutFloats(x, p, []float64{1, 2}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := d.Submit(fnSumAll, 1, nil, x.ReadGrouped(), sum.WriteShared()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	got, err := d.GetFloats(sum, 0)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("sum = %v, want [9]", got)
	}
}
