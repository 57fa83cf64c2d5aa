// Package lr implements the paper's running example (Figure 3): training
// logistic regression with a nested loop — an inner loop optimizing the
// coefficients by gradient descent and an outer loop updating model
// parameters from a held-out estimation error.
//
// The stage structure matches the paper's evaluation workload: a parallel
// Gradient stage over the training partitions, a two-level reduction tree
// (application-level, as in the Naiad and Nimbus implementations of §5.1),
// a coefficient update, and an Estimate stage over held-out data with its
// own reduction.
//
// Two profiles are provided:
//
//   - Real: tasks compute actual logistic gradients over synthetic data;
//     used by the examples and correctness tests.
//   - Simulated: tasks occupy executor slots for a calibrated duration
//     (fn.Sim) without burning CPU; used by the scaling experiments where
//     hundreds of simulated workers share one machine.
package lr

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

// Function IDs (stable across controller and workers).
const (
	FnGenData ids.FunctionID = 110 + iota
	FnGradient
	FnReduceGrad
	FnApplyGrad
	FnEstimate
	FnReduceErr
	FnUpdateModel
)

// Config describes an LR job.
type Config struct {
	// Partitions is the number of training partitions (= gradient tasks).
	Partitions int
	// Features is the model dimensionality.
	Features int
	// RowsPerPart is the number of training rows per partition.
	RowsPerPart int
	// ReduceFan is the first-level reduction fan-in: Partitions must be
	// divisible by it. The reduction tree has Partitions/ReduceFan
	// level-one tasks and one root task.
	ReduceFan int
	// LearningRate scales gradient steps.
	LearningRate float64
	// Seed makes data generation deterministic.
	Seed int64
	// Simulated switches task bodies to calibrated waits (fn.Sim).
	Simulated bool
	// TaskDuration is the simulated Gradient/Estimate task time
	// (paper-calibrated default: 5ms — 100GB over 8000 tasks on
	// c3.2xlarge cores).
	TaskDuration time.Duration
	// ReduceDuration is the simulated reduction task time (default 1ms).
	ReduceDuration time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Partitions == 0 {
		c.Partitions = 8
	}
	if c.Features == 0 {
		c.Features = 8
	}
	if c.RowsPerPart == 0 {
		c.RowsPerPart = 64
	}
	if c.ReduceFan == 0 {
		c.ReduceFan = reduceFanFor(c.Partitions)
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.5
	}
	if c.TaskDuration == 0 {
		c.TaskDuration = 5 * time.Millisecond
	}
	if c.ReduceDuration == 0 {
		c.ReduceDuration = time.Millisecond
	}
	return c
}

// reduceFanFor picks a first-level fan-in that divides p, near sqrt(p).
func reduceFanFor(p int) int {
	best := 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			best = f
		}
	}
	if best < 1 {
		best = 1
	}
	return best
}

// Job is a set-up LR job bound to a driver session.
type Job struct {
	Cfg Config
	D   *driver.Driver

	TData Var // training data, Partitions
	EData Var // estimation data, Partitions
	Coeff Var // coefficients, scalar
	Param Var // model parameters (outer loop), scalar
	Grad  Var // per-partition gradients
	GSum  Var // level-one gradient sums (Partitions/ReduceFan)
	GNorm Var // gradient norm, scalar
	Errs  Var // per-partition errors
	ESum  Var // level-one error sums
	Error Var // scalar error
}

// Var aliases driver.Var for brevity.
type Var = driver.Var

// Register installs the LR functions into a registry.
func Register(reg *fn.Registry) {
	reg.MustRegister(FnGenData, "lr/gen-data", genData)
	reg.MustRegister(FnGradient, "lr/gradient", gradient)
	reg.MustRegister(FnReduceGrad, "lr/reduce-grad", reduceVecs)
	reg.MustRegister(FnApplyGrad, "lr/apply-grad", applyGrad)
	reg.MustRegister(FnEstimate, "lr/estimate", estimate)
	reg.MustRegister(FnReduceErr, "lr/reduce-err", reduceVecs)
	reg.MustRegister(FnUpdateModel, "lr/update-model", updateModel)
}

// Setup declares the job's variables and generates its data on the
// workers (generation runs as per-task parameterized stages, outside any
// template).
func Setup(d *driver.Driver, cfg Config) (*Job, error) {
	cfg = cfg.withDefaults()
	if cfg.Partitions%cfg.ReduceFan != 0 {
		return nil, fmt.Errorf("lr: partitions %d not divisible by reduce fan %d",
			cfg.Partitions, cfg.ReduceFan)
	}
	j := &Job{Cfg: cfg, D: d}
	var err error
	define := func(name string, parts int) Var {
		if err != nil {
			return Var{}
		}
		var v Var
		v, err = d.DefineVariable("lr/"+name, parts)
		return v
	}
	l1 := cfg.Partitions / cfg.ReduceFan
	j.TData = define("tdata", cfg.Partitions)
	j.EData = define("edata", cfg.Partitions)
	j.Coeff = define("coeff", 1)
	j.Param = define("param", 1)
	j.Grad = define("grad", cfg.Partitions)
	j.GSum = define("gsum", l1)
	j.GNorm = define("gnorm", 1)
	j.Errs = define("errs", cfg.Partitions)
	j.ESum = define("esum", l1)
	j.Error = define("error", 1)
	if err != nil {
		return nil, err
	}

	if err := d.PutFloats(j.Coeff, 0, make([]float64, cfg.Features)); err != nil {
		return nil, err
	}
	if err := d.PutFloats(j.Param, 0, []float64{cfg.LearningRate}); err != nil {
		return nil, err
	}
	if cfg.Simulated {
		// Simulated data partitions are empty placeholders.
		for p := 0; p < cfg.Partitions; p++ {
			if err := d.PutFloats(j.TData, p, nil); err != nil {
				return nil, err
			}
			if err := d.PutFloats(j.EData, p, nil); err != nil {
				return nil, err
			}
		}
		return j, d.Barrier()
	}
	genParams := func(base int64) []params.Blob {
		out := make([]params.Blob, cfg.Partitions)
		for p := 0; p < cfg.Partitions; p++ {
			out[p] = params.NewEncoder(32).
				Int(base + int64(p)).
				Int(int64(cfg.RowsPerPart)).
				Int(int64(cfg.Features)).
				Blob()
		}
		return out
	}
	if err := d.SubmitPerTask(FnGenData, cfg.Partitions, genParams(cfg.Seed), j.TData.Write()); err != nil {
		return nil, err
	}
	if err := d.SubmitPerTask(FnGenData, cfg.Partitions, genParams(cfg.Seed+1<<20), j.EData.Write()); err != nil {
		return nil, err
	}
	return j, d.Barrier()
}

// stageParams returns the parameter blob for compute stages under the
// job's profile.
func (j *Job) taskParams(d time.Duration) params.Blob {
	if j.Cfg.Simulated {
		return fn.SimParams(d)
	}
	return params.NewEncoder(16).Float(j.Cfg.LearningRate).Blob()
}

func (j *Job) fnOr(real ids.FunctionID) ids.FunctionID {
	if j.Cfg.Simulated {
		return fn.FuncSim
	}
	return real
}

// SubmitOptimizeStages submits one inner-loop iteration's stages (the
// "optimization code block" of Figure 3a): gradient, two-level reduction,
// coefficient update.
func (j *Job) SubmitOptimizeStages() error {
	cfg := j.Cfg
	l1 := cfg.Partitions / cfg.ReduceFan
	if err := j.D.Submit(j.fnOr(FnGradient), cfg.Partitions, j.taskParams(cfg.TaskDuration),
		j.TData.Read(), j.Coeff.ReadShared(), j.Grad.Write()); err != nil {
		return err
	}
	if err := j.D.Submit(j.fnOr(FnReduceGrad), l1, j.taskParams(cfg.ReduceDuration),
		j.Grad.ReadGrouped(), j.GSum.Write()); err != nil {
		return err
	}
	// Coeff is declared both read and written: the update mutates it in
	// place, so the read both orders the task and registers the template
	// precondition that the latest coefficients are local.
	return j.D.Submit(j.fnOr(FnApplyGrad), 1, j.taskParams(cfg.ReduceDuration),
		j.GSum.ReadGrouped(), j.Coeff.ReadShared(), j.Coeff.WriteShared(), j.GNorm.WriteShared())
}

// SubmitEstimateStages submits one outer-loop iteration's stages (the
// "estimation code block"): estimate, reduction, model update.
func (j *Job) SubmitEstimateStages() error {
	cfg := j.Cfg
	l1 := cfg.Partitions / cfg.ReduceFan
	if err := j.D.Submit(j.fnOr(FnEstimate), cfg.Partitions, j.taskParams(cfg.TaskDuration),
		j.EData.Read(), j.Coeff.ReadShared(), j.Errs.Write()); err != nil {
		return err
	}
	if err := j.D.Submit(j.fnOr(FnReduceErr), l1, j.taskParams(cfg.ReduceDuration),
		j.Errs.ReadGrouped(), j.ESum.Write()); err != nil {
		return err
	}
	return j.D.Submit(j.fnOr(FnUpdateModel), 1, j.taskParams(cfg.ReduceDuration),
		j.ESum.ReadGrouped(), j.Param.ReadShared(), j.Param.WriteShared(), j.Error.WriteShared())
}

// Template names.
const (
	OptimizeBlock = "lr/optimize"
	EstimateBlock = "lr/estimate"
)

// InstallTemplates records both basic blocks (each executes once during
// recording).
func (j *Job) InstallTemplates() error {
	if err := j.D.BeginTemplate(OptimizeBlock); err != nil {
		return err
	}
	if err := j.SubmitOptimizeStages(); err != nil {
		return err
	}
	if err := j.D.EndTemplate(OptimizeBlock); err != nil {
		return err
	}
	if err := j.D.BeginTemplate(EstimateBlock); err != nil {
		return err
	}
	if err := j.SubmitEstimateStages(); err != nil {
		return err
	}
	return j.D.EndTemplate(EstimateBlock)
}

// Optimize instantiates the inner-loop block.
func (j *Job) Optimize() error { return j.D.Instantiate(OptimizeBlock) }

// Estimate instantiates the outer-loop block.
func (j *Job) Estimate() error { return j.D.Instantiate(EstimateBlock) }

// GradNorm reads back the gradient norm (a synchronization point).
func (j *Job) GradNorm() (float64, error) { return j.scalar(j.GNorm) }

// ErrorValue reads back the estimation error (a synchronization point).
func (j *Job) ErrorValue() (float64, error) { return j.scalar(j.Error) }

// CoeffValue reads back the coefficients.
func (j *Job) CoeffValue() ([]float64, error) { return j.D.GetFloats(j.Coeff, 0) }

func (j *Job) scalar(v Var) (float64, error) {
	vals, err := j.D.GetFloats(v, 0)
	if err != nil {
		return 0, err
	}
	if len(vals) == 0 {
		return 0, fmt.Errorf("lr: %s is empty", v.Name)
	}
	return vals[0], nil
}

// OptimizeUntil submits the whole inner loop of Figure 3a to the
// controller (driver API v2): optimize until the gradient norm drops
// below gradThreshold or maxInner iterations ran, with the predicate
// evaluated controller-side after each instantiation. One
// driver↔controller round trip covers the entire loop. It returns the
// iteration count and the last gradient norm.
func (j *Job) OptimizeUntil(gradThreshold float64, maxInner int) (int, float64, error) {
	res, err := j.D.InstantiateWhile(OptimizeBlock, j.GNorm.AtLeast(0, gradThreshold), maxInner)
	return res.Iters, res.LastValue, err
}

// Train runs the full nested loop of Figure 3a with data-dependent exit
// conditions, using templates. The inner loop is a controller-evaluated
// predicate loop (OptimizeUntil); the outer loop stays driver-side
// because its body spans two templates. It returns (outer, inner)
// iteration counts.
func (j *Job) Train(gradThreshold, errThreshold float64, maxOuter, maxInner int) (int, int, error) {
	if err := j.InstallTemplates(); err != nil {
		return 0, 0, err
	}
	totalInner := 0
	for outer := 1; ; outer++ {
		inner, _, err := j.OptimizeUntil(gradThreshold, maxInner)
		totalInner += inner
		if err != nil {
			return outer, totalInner, err
		}
		if err := j.Estimate(); err != nil {
			return outer, totalInner, err
		}
		e, err := j.ErrorValue()
		if err != nil {
			return outer, totalInner, err
		}
		if e < errThreshold || outer >= maxOuter {
			return outer, totalInner, nil
		}
	}
}

// TrainExplicit is the v1 form of Train — every inner iteration gated on
// a GradNorm round trip — kept as the reference Train is tested against:
// both must run the same iterations and learn the same coefficients.
func (j *Job) TrainExplicit(gradThreshold, errThreshold float64, maxOuter, maxInner int) (int, int, error) {
	if err := j.InstallTemplates(); err != nil {
		return 0, 0, err
	}
	totalInner := 0
	for outer := 1; ; outer++ {
		for inner := 0; inner < maxInner; inner++ {
			if err := j.Optimize(); err != nil {
				return outer, totalInner, err
			}
			totalInner++
			g, err := j.GradNorm()
			if err != nil {
				return outer, totalInner, err
			}
			if g < gradThreshold {
				break
			}
		}
		if err := j.Estimate(); err != nil {
			return outer, totalInner, err
		}
		e, err := j.ErrorValue()
		if err != nil {
			return outer, totalInner, err
		}
		if e < errThreshold || outer >= maxOuter {
			return outer, totalInner, nil
		}
	}
}

// ---------------------------------------------------------------------------
// Task bodies (real profile)

// trueWeights is the synthetic ground truth the generator labels with.
func trueWeights(features int) []float64 {
	w := make([]float64, features)
	for i := range w {
		w[i] = math.Sin(float64(i + 1))
	}
	return w
}

// genData writes one training partition: rows of [x0..xf-1, y].
func genData(c *fn.Ctx) error {
	dec := params.NewDecoder(c.Params)
	seed := dec.Int()
	rows := int(dec.Int())
	features := int(dec.Int())
	if err := dec.Err(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	w := trueWeights(features)
	out := make([]float64, 0, 2+rows*(features+1))
	out = append(out, float64(rows), float64(features))
	for r := 0; r < rows; r++ {
		dot := 0.0
		for f := 0; f < features; f++ {
			x := rng.NormFloat64()
			out = append(out, x)
			dot += x * w[f]
		}
		y := 0.0
		if sigmoid(dot) > rng.Float64() {
			y = 1.0
		}
		out = append(out, y)
	}
	c.SetWrite(0, params.NewEncoder(8*len(out)+8).Floats(out).Blob())
	return nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// decodePartition splits an encoded data partition into rows/features and
// the flat payload.
func decodePartition(raw []byte) (rows, features int, data []float64) {
	vals := params.NewDecoder(params.Blob(raw)).Floats()
	if len(vals) < 2 {
		return 0, 0, nil
	}
	return int(vals[0]), int(vals[1]), vals[2:]
}

// gradient computes a partial logistic-loss gradient over one partition.
// Output layout: [count, g0..gf-1].
func gradient(c *fn.Ctx) error {
	rows, features, data := decodePartition(c.Read(0))
	coeff := params.NewDecoder(params.Blob(c.Read(1))).Floats()
	g := make([]float64, features+1)
	g[0] = float64(rows)
	stride := features + 1
	for r := 0; r < rows; r++ {
		row := data[r*stride : (r+1)*stride]
		dot := 0.0
		for f := 0; f < features && f < len(coeff); f++ {
			dot += row[f] * coeff[f]
		}
		diff := sigmoid(dot) - row[features]
		for f := 0; f < features; f++ {
			g[1+f] += diff * row[f]
		}
	}
	c.SetWrite(0, params.NewEncoder(8*len(g)+8).Floats(g).Blob())
	return nil
}

// reduceVecs sums [count, v...] vectors element-wise.
func reduceVecs(c *fn.Ctx) error {
	var acc []float64
	for i := 0; i < c.NumReads(); i++ {
		v := params.NewDecoder(params.Blob(c.Read(i))).Floats()
		if acc == nil {
			acc = append(acc, v...)
			continue
		}
		for k := 0; k < len(v) && k < len(acc); k++ {
			acc[k] += v[k]
		}
	}
	c.SetWrite(0, params.NewEncoder(8*len(acc)+8).Floats(acc).Blob())
	return nil
}

// applyGrad sums the level-one gradients, steps the coefficients, and
// writes the gradient norm.
func applyGrad(c *fn.Ctx) error {
	lrate := params.NewDecoder(c.Params).Float()
	var acc []float64
	for i := 0; i < c.NumReads()-1; i++ {
		v := params.NewDecoder(params.Blob(c.Read(i))).Floats()
		if acc == nil {
			acc = append(acc, v...)
			continue
		}
		for k := 0; k < len(v) && k < len(acc); k++ {
			acc[k] += v[k]
		}
	}
	coeff := append([]float64(nil),
		params.NewDecoder(params.Blob(c.Read(c.NumReads()-1))).Floats()...)
	if len(acc) < 1 {
		return fmt.Errorf("lr: empty gradient reduction")
	}
	count := acc[0]
	if count == 0 {
		count = 1
	}
	norm := 0.0
	for f := 0; f < len(coeff) && 1+f < len(acc); f++ {
		step := acc[1+f] / count
		coeff[f] -= lrate * step
		norm += step * step
	}
	c.SetWrite(0, params.NewEncoder(8*len(coeff)+8).Floats(coeff).Blob())
	c.SetWrite(1, params.NewEncoder(16).Floats([]float64{math.Sqrt(norm)}).Blob())
	return nil
}

// estimate computes [count, misclassified] over one estimation partition.
func estimate(c *fn.Ctx) error {
	rows, features, data := decodePartition(c.Read(0))
	coeff := params.NewDecoder(params.Blob(c.Read(1))).Floats()
	wrong := 0.0
	stride := features + 1
	for r := 0; r < rows; r++ {
		row := data[r*stride : (r+1)*stride]
		dot := 0.0
		for f := 0; f < features && f < len(coeff); f++ {
			dot += row[f] * coeff[f]
		}
		pred := 0.0
		if dot > 0 {
			pred = 1.0
		}
		if pred != row[features] {
			wrong++
		}
	}
	out := []float64{float64(rows), wrong}
	c.SetWrite(0, params.NewEncoder(8*len(out)+8).Floats(out).Blob())
	return nil
}

// updateModel folds the error reduction into the model parameters
// (learning-rate decay) and exposes the error rate.
func updateModel(c *fn.Ctx) error {
	var acc []float64
	for i := 0; i < c.NumReads()-1; i++ {
		v := params.NewDecoder(params.Blob(c.Read(i))).Floats()
		if acc == nil {
			acc = append(acc, v...)
			continue
		}
		for k := 0; k < len(v) && k < len(acc); k++ {
			acc[k] += v[k]
		}
	}
	param := append([]float64(nil),
		params.NewDecoder(params.Blob(c.Read(c.NumReads()-1))).Floats()...)
	rate := 0.0
	if len(acc) >= 2 && acc[0] > 0 {
		rate = acc[1] / acc[0]
	}
	if len(param) > 0 {
		param[0] *= 0.9 // decay the learning rate each outer iteration
	}
	c.SetWrite(0, params.NewEncoder(8*len(param)+8).Floats(param).Blob())
	c.SetWrite(1, params.NewEncoder(16).Floats([]float64{rate}).Blob())
	return nil
}
