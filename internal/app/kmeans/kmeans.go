// Package kmeans implements the paper's second evaluation workload:
// k-means clustering with an assign step over point partitions, a
// two-level application-level reduction tree, and a centroid update
// (paper §5.1, Figure 7b).
//
// Like package lr it offers a real-math profile (examples, correctness
// tests) and a calibrated simulated profile (scaling experiments).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"nimbus/internal/driver"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/params"
)

// Function IDs.
const (
	FnGenPoints ids.FunctionID = 130 + iota
	FnAssign
	FnReduceSums
	FnUpdateCentroids
)

// Config describes a k-means job.
type Config struct {
	// Partitions is the number of point partitions (= assign tasks).
	Partitions int
	// K is the number of clusters.
	K int
	// Dims is the point dimensionality.
	Dims int
	// PointsPerPart is the number of points per partition.
	PointsPerPart int
	// ReduceFan is the first-level reduction fan-in.
	ReduceFan int
	// Seed makes data generation deterministic.
	Seed int64
	// Simulated switches task bodies to calibrated waits (fn.Sim).
	// K-means tasks are slightly heavier than LR's (Figure 7b iterations
	// run ~45% longer), so the default simulated duration is 7ms.
	Simulated bool
	// TaskDuration is the simulated assign task time.
	TaskDuration time.Duration
	// ReduceDuration is the simulated reduction task time.
	ReduceDuration time.Duration
}

func (c Config) withDefaults() Config {
	if c.Partitions == 0 {
		c.Partitions = 8
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.Dims == 0 {
		c.Dims = 2
	}
	if c.PointsPerPart == 0 {
		c.PointsPerPart = 128
	}
	if c.ReduceFan == 0 {
		c.ReduceFan = fanFor(c.Partitions)
	}
	if c.TaskDuration == 0 {
		c.TaskDuration = 7 * time.Millisecond
	}
	if c.ReduceDuration == 0 {
		c.ReduceDuration = time.Millisecond
	}
	return c
}

func fanFor(p int) int {
	best := 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			best = f
		}
	}
	return best
}

// Var aliases driver.Var.
type Var = driver.Var

// Job is a set-up k-means job.
type Job struct {
	Cfg Config
	D   *driver.Driver

	Points    Var // point partitions
	Centroids Var // scalar: K*Dims centroids
	PSums     Var // per-partition [k: count, sum...] accumulators
	L1Sums    Var // level-one reduced sums
	Shift     Var // scalar: centroid movement of the last update
}

// Register installs the k-means functions.
func Register(reg *fn.Registry) {
	reg.MustRegister(FnGenPoints, "kmeans/gen-points", genPoints)
	reg.MustRegister(FnAssign, "kmeans/assign", assign)
	reg.MustRegister(FnReduceSums, "kmeans/reduce-sums", reduceSums)
	reg.MustRegister(FnUpdateCentroids, "kmeans/update-centroids", updateCentroids)
}

// Setup declares variables and generates points on the workers.
func Setup(d *driver.Driver, cfg Config) (*Job, error) {
	cfg = cfg.withDefaults()
	if cfg.Partitions%cfg.ReduceFan != 0 {
		return nil, fmt.Errorf("kmeans: partitions %d not divisible by fan %d",
			cfg.Partitions, cfg.ReduceFan)
	}
	j := &Job{Cfg: cfg, D: d}
	var err error
	define := func(name string, parts int) Var {
		if err != nil {
			return Var{}
		}
		var v Var
		v, err = d.DefineVariable("kmeans/"+name, parts)
		return v
	}
	j.Points = define("points", cfg.Partitions)
	j.Centroids = define("centroids", 1)
	j.PSums = define("psums", cfg.Partitions)
	j.L1Sums = define("l1sums", cfg.Partitions/cfg.ReduceFan)
	j.Shift = define("shift", 1)
	if err != nil {
		return nil, err
	}

	// Initial centroids: deterministic spread.
	init := make([]float64, cfg.K*cfg.Dims)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for i := range init {
		init[i] = rng.NormFloat64() * 2
	}
	if err := d.PutFloats(j.Centroids, 0, init); err != nil {
		return nil, err
	}
	if cfg.Simulated {
		for p := 0; p < cfg.Partitions; p++ {
			if err := d.PutFloats(j.Points, p, nil); err != nil {
				return nil, err
			}
		}
		return j, d.Barrier()
	}
	perTask := make([]params.Blob, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		perTask[p] = params.NewEncoder(40).
			Int(cfg.Seed + int64(p)).
			Int(int64(cfg.PointsPerPart)).
			Int(int64(cfg.Dims)).
			Int(int64(cfg.K)).
			Blob()
	}
	if err := d.SubmitPerTask(FnGenPoints, cfg.Partitions, perTask, j.Points.Write()); err != nil {
		return nil, err
	}
	return j, d.Barrier()
}

func (j *Job) taskParams(d time.Duration) params.Blob {
	if j.Cfg.Simulated {
		return fn.SimParams(d)
	}
	return params.NewEncoder(24).Int(int64(j.Cfg.K)).Int(int64(j.Cfg.Dims)).Blob()
}

func (j *Job) fnOr(real ids.FunctionID) ids.FunctionID {
	if j.Cfg.Simulated {
		return fn.FuncSim
	}
	return real
}

// IterateBlock is the template name of one clustering iteration.
const IterateBlock = "kmeans/iterate"

// SubmitIterationStages submits one iteration: assign, reduce, update.
func (j *Job) SubmitIterationStages() error {
	cfg := j.Cfg
	l1 := cfg.Partitions / cfg.ReduceFan
	if err := j.D.Submit(j.fnOr(FnAssign), cfg.Partitions, j.taskParams(cfg.TaskDuration),
		j.Points.Read(), j.Centroids.ReadShared(), j.PSums.Write()); err != nil {
		return err
	}
	if err := j.D.Submit(j.fnOr(FnReduceSums), l1, j.taskParams(cfg.ReduceDuration),
		j.PSums.ReadGrouped(), j.L1Sums.Write()); err != nil {
		return err
	}
	return j.D.Submit(j.fnOr(FnUpdateCentroids), 1, j.taskParams(cfg.ReduceDuration),
		j.L1Sums.ReadGrouped(), j.Centroids.ReadShared(),
		j.Centroids.WriteShared(), j.Shift.WriteShared())
}

// InstallTemplate records the iteration block (running it once).
func (j *Job) InstallTemplate() error {
	if err := j.D.BeginTemplate(IterateBlock); err != nil {
		return err
	}
	if err := j.SubmitIterationStages(); err != nil {
		return err
	}
	return j.D.EndTemplate(IterateBlock)
}

// Iterate instantiates one clustering iteration.
func (j *Job) Iterate() error { return j.D.Instantiate(IterateBlock) }

// ShiftValue reads back the last centroid movement (synchronizing).
func (j *Job) ShiftValue() (float64, error) {
	vals, err := j.D.GetFloats(j.Shift, 0)
	if err != nil {
		return 0, err
	}
	if len(vals) == 0 {
		return 0, fmt.Errorf("kmeans: shift is empty")
	}
	return vals[0], nil
}

// CentroidValues reads back the centroids.
func (j *Job) CentroidValues() ([]float64, error) {
	return j.D.GetFloats(j.Centroids, 0)
}

// Cluster runs until the centroid shift falls below threshold (a
// data-dependent loop) or maxIters is hit; it returns the iteration
// count. The whole loop is submitted to the controller (driver API v2
// InstantiateWhile): the predicate "shift >= threshold" is evaluated
// controller-side after each instantiation, so the loop costs one
// driver↔controller round trip regardless of how many iterations run.
func (j *Job) Cluster(threshold float64, maxIters int) (int, error) {
	if err := j.InstallTemplate(); err != nil {
		return 0, err
	}
	res, err := j.D.InstantiateWhile(IterateBlock, j.Shift.AtLeast(0, threshold), maxIters)
	return res.Iters, err
}

// ClusterExplicit is the v1 form of the same loop — one Get round trip
// per iteration — kept as the reference Cluster is tested against: both
// must run the same iterations and land on the same centroids.
func (j *Job) ClusterExplicit(threshold float64, maxIters int) (int, error) {
	if err := j.InstallTemplate(); err != nil {
		return 0, err
	}
	for i := 1; ; i++ {
		if err := j.Iterate(); err != nil {
			return i, err
		}
		shift, err := j.ShiftValue()
		if err != nil {
			return i, err
		}
		if shift < threshold || i >= maxIters {
			return i, nil
		}
	}
}

// ---------------------------------------------------------------------------
// Task bodies (real profile)

// genPoints writes one partition of points drawn from K well-separated
// Gaussian blobs: [n, dims, x...].
func genPoints(c *fn.Ctx) error {
	dec := params.NewDecoder(c.Params)
	seed := dec.Int()
	n := int(dec.Int())
	dims := int(dec.Int())
	k := int(dec.Int())
	if err := dec.Err(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, 0, 2+n*dims)
	out = append(out, float64(n), float64(dims))
	for i := 0; i < n; i++ {
		blob := rng.Intn(k)
		for d := 0; d < dims; d++ {
			center := 6 * math.Cos(2*math.Pi*(float64(blob)/float64(k))+float64(d))
			out = append(out, center+rng.NormFloat64()*0.5)
		}
	}
	c.SetWrite(0, params.NewEncoder(8*len(out)+8).Floats(out).Blob())
	return nil
}

// assign computes per-cluster [count, sum...] accumulators for one
// partition. Output layout: k rows of (1+dims) values.
func assign(c *fn.Ctx) error {
	dec := params.NewDecoder(c.Params)
	k := int(dec.Int())
	dims := int(dec.Int())
	pts := params.NewDecoder(params.Blob(c.Read(0))).Floats()
	cents := params.NewDecoder(params.Blob(c.Read(1))).Floats()
	acc := make([]float64, k*(1+dims))
	if len(pts) >= 2 {
		n := int(pts[0])
		data := pts[2:]
		for i := 0; i < n; i++ {
			p := data[i*dims : (i+1)*dims]
			best, bestD := 0, math.Inf(1)
			for ci := 0; ci < k && (ci+1)*dims <= len(cents); ci++ {
				d := 0.0
				for di := 0; di < dims; di++ {
					diff := p[di] - cents[ci*dims+di]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = ci, d
				}
			}
			row := acc[best*(1+dims):]
			row[0]++
			for di := 0; di < dims; di++ {
				row[1+di] += p[di]
			}
		}
	}
	c.SetWrite(0, params.NewEncoder(8*len(acc)+8).Floats(acc).Blob())
	return nil
}

// reduceSums sums accumulator vectors element-wise.
func reduceSums(c *fn.Ctx) error {
	var acc []float64
	for i := 0; i < c.NumReads(); i++ {
		v := params.NewDecoder(params.Blob(c.Read(i))).Floats()
		if acc == nil {
			acc = append(acc, v...)
			continue
		}
		for j := 0; j < len(v) && j < len(acc); j++ {
			acc[j] += v[j]
		}
	}
	c.SetWrite(0, params.NewEncoder(8*len(acc)+8).Floats(acc).Blob())
	return nil
}

// updateCentroids recomputes centroids from the reduced sums and writes
// the total movement.
func updateCentroids(c *fn.Ctx) error {
	dec := params.NewDecoder(c.Params)
	k := int(dec.Int())
	dims := int(dec.Int())
	var acc []float64
	for i := 0; i < c.NumReads()-1; i++ {
		v := params.NewDecoder(params.Blob(c.Read(i))).Floats()
		if acc == nil {
			acc = append(acc, v...)
			continue
		}
		for j := 0; j < len(v) && j < len(acc); j++ {
			acc[j] += v[j]
		}
	}
	old := params.NewDecoder(params.Blob(c.Read(c.NumReads() - 1))).Floats()
	next := append([]float64(nil), old...)
	shift := 0.0
	for ci := 0; ci < k && ci*(1+dims) < len(acc); ci++ {
		row := acc[ci*(1+dims):]
		if row[0] == 0 {
			continue
		}
		for di := 0; di < dims && ci*dims+di < len(next); di++ {
			nv := row[1+di] / row[0]
			d := nv - next[ci*dims+di]
			shift += d * d
			next[ci*dims+di] = nv
		}
	}
	c.SetWrite(0, params.NewEncoder(8*len(next)+8).Floats(next).Blob())
	c.SetWrite(1, params.NewEncoder(16).Floats([]float64{math.Sqrt(shift)}).Blob())
	return nil
}
