package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"nimbus/internal/driver"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/proto"
)

// refSeconds is BENCHMARK.json's run_seconds: the measured phase the frozen
// iteration counts below are sized for on the 2-core reference box. The
// load is fixed work, not fixed time, so that runs of two commits do the
// same thing; -seconds scales all counts by seconds/refSeconds.
const refSeconds = 20

// workload is one set of inputs. Counts are frozen: changing one changes
// what every later PR is compared against.
type workload struct {
	name string
	tcp  bool
	// warmup iterations end the set-up; they are sized so that setup_s is
	// at least 2 s, which is what makes it repeatable.
	warmup int
	// measured iterations at -seconds = refSeconds.
	measured int
	churn    bool
	block    func(seed int64) *block
}

// The LR counts are ISSUE 13's 30000, 15000 and 20000 times 0.6, the one
// common factor that fits the driver's 92 runs into its hour; shuffle_tcp's
// is the issue's 5000 times 0.6 times 4, for a block a quarter of the issue's
// size (see shuffleBlock). Why each workload was chosen is in BENCHMARK.json
// and README.md.
var workloads = []workload{
	{name: "steady_mem", warmup: 3000, measured: 18000, block: lrBlock},
	{name: "steady_tcp", tcp: true, warmup: 1400, measured: 9000, block: lrBlock},
	{name: "churn_mem", warmup: 3200, measured: 12000, churn: true, block: lrBlock},
	{name: "shuffle_tcp", tcp: true, warmup: 1500, measured: 12000, block: shuffleBlock},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Task functions the benchmark registers next to the built-ins.
const (
	fnCount ids.FunctionID = fn.FirstAppFunc + iota
	fnFill
	fnSum
)

func newRegistry() *fn.Registry {
	reg := fn.NewRegistry()
	reg.MustRegister(fnCount, "bench/count", countTask)
	reg.MustRegister(fnFill, "bench/fill", fillTask)
	reg.MustRegister(fnSum, "bench/sum", sumTask)
	return reg
}

// countTask is the last task of every iteration: it adds 1 to the counter
// object, its last write. The final value proves every iteration ran to
// its end exactly once.
func countTask(c *fn.Ctx) error {
	i := c.NumWrites() - 1
	vals, err := params.DecodeFloats(c.WriteBuf(i))
	if err != nil || len(vals) != 1 {
		return fmt.Errorf("bench/count: bad counter object: %v", err)
	}
	c.SetWrite(i, encodeCount(vals[0]+1))
	return nil
}

func encodeCount(v float64) []byte {
	return params.NewEncoder(16).Floats([]float64{v}).Blob()
}

// fillTask bumps the first byte of its block in place, so every iteration
// produces a new version whose contents differ and must move.
func fillTask(c *fn.Ctx) error {
	b := c.WriteBuf(0)
	if len(b) == 0 {
		return fmt.Errorf("bench/fill: empty block")
	}
	b[0]++
	return nil
}

// sumTask writes the checksum of the blocks it read.
func sumTask(c *fn.Ctx) error {
	var sum uint64
	for i := 0; i < c.NumReads(); i++ {
		sum += blockSum(c.Read(i))
	}
	c.SetWrite(0, binary.LittleEndian.AppendUint64(nil, sum))
	return nil
}

// blockSum hashes a block's length and one word per 4 KiB. The first word
// holds the per-iteration byte and every 256 KiB chunk holds 64 samples,
// so a stale, truncated or misassembled block changes it; hashing every
// byte would make the reducers, not the data plane, the workload.
func blockSum(b []byte) uint64 {
	const prime = 1099511628211
	h := uint64(len(b))
	for off := 0; off+8 <= len(b); off += 4096 {
		h = h*prime ^ binary.LittleEndian.Uint64(b[off:])
	}
	return h
}

// varSpec and block describe a basic block once, for both the driver
// (DefineVariable / Submit) and the core probes (StaticPlacement /
// BuildAssignment). Variable i has ID i+1, which is what a fresh driver
// session assigns.
type varSpec struct {
	name  string
	parts int
	// init returns partition p's initial contents (nil: never Put, the
	// block writes it before reading it).
	init func(p int) []byte
}

type block struct {
	name   string
	vars   []varSpec
	stages []*proto.SubmitStage
	// migrate lists the variables whose partitions churn_mem moves.
	migrate []ids.VariableID
	// check verifies the block's outputs after iters executions.
	check func(d *driver.Driver, iters int) error
}

func (b *block) tasksPerIter() int {
	n := 0
	for _, s := range b.stages {
		n += s.Tasks
	}
	return n
}

func ref(v ids.VariableID, pat proto.AccessPattern, write bool) proto.VarRef {
	return proto.VarRef{Var: v, Pattern: pat, Write: write}
}

// checkCount reads the counter back: one Get after everything else.
func checkCount(d *driver.Driver, v ids.VariableID, iters int) error {
	got, err := d.GetFloats(driver.Var{ID: v, Partitions: 1}, 0)
	if err != nil {
		return fmt.Errorf("reading counter: %w", err)
	}
	if len(got) != 1 || got[0] != float64(iters) {
		return fmt.Errorf("counter is %v, want %d", got, iters)
	}
	return nil
}

// LR-shaped block: 512 gradient tasks, a fan-8 reduction, one update.
const (
	lrParts = 512
	lrFan   = 8
)

func lrBlock(int64) *block {
	const (
		vData ids.VariableID = 1 + iota
		vCoeff
		vGrad
		vGSum
		vCount
	)
	empty := func(int) []byte { return params.NewEncoder(8).Floats(nil).Blob() }
	return &block{
		name: "bench/lr",
		vars: []varSpec{
			{"data", lrParts, empty},
			{"coeff", 1, empty},
			{"grad", lrParts, nil},
			{"gsum", lrParts / lrFan, nil},
			{"count", 1, func(int) []byte { return encodeCount(0) }},
		},
		stages: []*proto.SubmitStage{
			{Stage: 1, Fn: fn.FuncNop, Tasks: lrParts, Refs: []proto.VarRef{
				ref(vData, proto.OnePerTask, false), ref(vCoeff, proto.Shared, false), ref(vGrad, proto.OnePerTask, true)}},
			{Stage: 2, Fn: fn.FuncNop, Tasks: lrParts / lrFan, Refs: []proto.VarRef{
				ref(vGrad, proto.Grouped, false), ref(vGSum, proto.OnePerTask, true)}},
			{Stage: 3, Fn: fnCount, Tasks: 1, Refs: []proto.VarRef{
				ref(vGSum, proto.Grouped, false),
				ref(vCoeff, proto.Shared, false), ref(vCoeff, proto.Shared, true),
				ref(vCount, proto.Shared, false), ref(vCount, proto.Shared, true)}},
		},
		migrate: []ids.VariableID{vData, vGrad},
		check: func(d *driver.Driver, iters int) error {
			return checkCount(d, vCount, iters)
		},
	}
}

// Shuffle block: 8 producers of 512 KiB, 4 grouped reducers. DEPARTS FROM
// ISSUE 13, which specifies 32 producers (16 MiB per iteration, 3000
// iterations at the common factor): a run moves the same 48 GB, but in
// 12000 iterations of 4 MiB. At 16 MiB per iteration the working set lives
// in DRAM and the workload follows the neighbours' memory traffic: ten runs
// of the same code spread 5-16% (1.5-2% at this size, interleaved with them
// in the same minutes), past every bound the issue allows. Block size, chunks
// per transfer, reducers and the share of blocks that cross a link (3/4) are
// the issue's. NOISE.md has the measurements.
const (
	shufProducers = 8
	shufReducers  = 4
	shufBlockSize = 512 << 10
)

func shuffleBlock(seed int64) *block {
	const (
		vBlocks ids.VariableID = 1 + iota
		vSums
		vCount
	)
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, shufProducers)
	for p := range data {
		data[p] = make([]byte, shufBlockSize)
		rng.Read(data[p])
	}
	return &block{
		name: "bench/shuffle",
		vars: []varSpec{
			{"blocks", shufProducers, func(p int) []byte { return data[p] }},
			{"sums", shufReducers, nil},
			{"count", 1, func(int) []byte { return encodeCount(0) }},
		},
		stages: []*proto.SubmitStage{
			{Stage: 1, Fn: fnFill, Tasks: shufProducers, Refs: []proto.VarRef{
				ref(vBlocks, proto.OnePerTask, false), ref(vBlocks, proto.OnePerTask, true)}},
			{Stage: 2, Fn: fnSum, Tasks: shufReducers, Refs: []proto.VarRef{
				ref(vBlocks, proto.Grouped, false), ref(vSums, proto.OnePerTask, true)}},
			{Stage: 3, Fn: fnCount, Tasks: 1, Refs: []proto.VarRef{
				ref(vSums, proto.Grouped, false),
				ref(vCount, proto.Shared, false), ref(vCount, proto.Shared, true)}},
		},
		check: func(d *driver.Driver, iters int) error {
			if err := checkCount(d, vCount, iters); err != nil {
				return err
			}
			// Reference: the seed's blocks with the first byte advanced
			// once per execution, summed per reducer group.
			group := shufProducers / shufReducers
			for r := 0; r < shufReducers; r++ {
				var want uint64
				for p := r * group; p < (r+1)*group; p++ {
					data[p][0] += byte(iters)
					want += blockSum(data[p])
					data[p][0] -= byte(iters)
				}
				raw, err := d.Get(driver.Var{ID: vSums, Partitions: shufReducers}, r)
				if err != nil {
					return fmt.Errorf("reading checksum %d: %w", r, err)
				}
				if len(raw) != 8 || binary.LittleEndian.Uint64(raw) != want {
					return fmt.Errorf("reducer %d checksum is %x, want %016x", r, raw, want)
				}
			}
			return nil
		},
	}
}

// install defines the block's variables, fills them, and records the
// block as a template (which executes it once).
func (b *block) install(d *driver.Driver) error {
	for i, vs := range b.vars {
		v, err := d.DefineVariable("bench/"+vs.name, vs.parts)
		if err != nil {
			return err
		}
		if v.ID != ids.VariableID(i+1) {
			return fmt.Errorf("variable %q got %s, the block spec assumes var:%d", vs.name, v.ID, i+1)
		}
		if vs.init == nil {
			continue
		}
		for p := 0; p < vs.parts; p++ {
			if err := d.Put(v, p, vs.init(p)); err != nil {
				return err
			}
		}
	}
	if err := d.BeginTemplate(b.name); err != nil {
		return err
	}
	for _, s := range b.stages {
		refs := make([]driver.Ref, len(s.Refs))
		for i, r := range s.Refs {
			refs[i] = driver.Ref{VarRef: r}
		}
		if err := d.Submit(s.Fn, s.Tasks, s.Params, refs...); err != nil {
			return err
		}
	}
	if err := d.EndTemplate(b.name); err != nil {
		return err
	}
	return d.Barrier()
}

// churn_mem's schedule of controller calls.
const (
	migrateEvery  = 5
	resizeEvery   = 200
	migrateParts  = (lrParts + 19) / 20 // 5%, 26 partitions
	shrunkWorkers = numWorkers - 1
)
