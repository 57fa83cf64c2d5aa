package water

import (
	"fmt"
	"time"

	"nimbus/internal/driver"
	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/params"
)

// Config describes a water-simulation job.
type Config struct {
	// Rows, Cols is the global grid size; Partitions divides Rows.
	Rows, Cols, Partitions int
	// CFL, DtMax and FrameDt control the time stepping. Substep counts
	// per frame are data-dependent (the middle loop).
	CFL, DtMax, FrameDt float64
	// ReinitTol / PressTol are the inner loops' residual thresholds
	// (data-dependent termination); MaxReinit / MaxJacobi bound them.
	ReinitTol, PressTol  float64
	MaxReinit, MaxJacobi int
	// MaxSubsteps bounds the middle loop per frame.
	MaxSubsteps int
	// Simulated switches kernels to calibrated waits (fn.Sim); the loops
	// then run fixed trip counts (SimReinit/SimJacobi/SimSubsteps).
	Simulated                         bool
	SimReinit, SimJacobi, SimSubsteps int
	// GridTaskDuration / ReduceTaskDuration calibrate simulated stages.
	// The paper's benchmark has a wide mix (median 13ms, 10% under 3ms,
	// tasks down to 100µs).
	GridTaskDuration   time.Duration
	ReduceTaskDuration time.Duration
}

func (c Config) withDefaults() Config {
	if c.Rows == 0 {
		c.Rows = 64
	}
	if c.Cols == 0 {
		c.Cols = 32
	}
	if c.Partitions == 0 {
		c.Partitions = 8
	}
	if c.CFL == 0 {
		c.CFL = 0.9
	}
	if c.DtMax == 0 {
		c.DtMax = 0.05
	}
	if c.FrameDt == 0 {
		c.FrameDt = 0.1
	}
	if c.ReinitTol == 0 {
		c.ReinitTol = 0.02
	}
	if c.PressTol == 0 {
		c.PressTol = 0.5
	}
	if c.MaxReinit == 0 {
		c.MaxReinit = 10
	}
	if c.MaxJacobi == 0 {
		c.MaxJacobi = 30
	}
	if c.MaxSubsteps == 0 {
		c.MaxSubsteps = 20
	}
	if c.SimReinit == 0 {
		c.SimReinit = 4
	}
	if c.SimJacobi == 0 {
		c.SimJacobi = 8
	}
	if c.SimSubsteps == 0 {
		c.SimSubsteps = 3
	}
	if c.GridTaskDuration == 0 {
		c.GridTaskDuration = 2 * time.Millisecond
	}
	if c.ReduceTaskDuration == 0 {
		c.ReduceTaskDuration = 100 * time.Microsecond
	}
	return c
}

// Var aliases driver.Var.
type Var = driver.Var

// Job is a set-up water simulation. It holds the 23 partitioned fields
// and 8 scalars of the benchmark.
type Job struct {
	Cfg Config
	D   *driver.Driver

	// Partitioned fields (strips).
	U, V, UStar, VStar, UForce, VForce     Var
	Phi, PhiTmp, PhiNext, Press, PressNext Var
	Div, RHS, Particles, PTmp, PCount      Var
	Speed, MaxSpd, Resid, Presid           Var
	Energy, Mass, Vort                     Var
	// Scalars.
	Dt, CflNum, ResidSum, PresidSum      Var
	EnergySum, MassSum, VortSum, SimTime Var
}

// SubstepStats reports one substep's data-dependent behavior.
type SubstepStats struct {
	Dt          float64
	ReinitIters int
	JacobiIters int
}

// Template (basic block) names: the five blocks of the substep, matching
// the paper's description of basic blocks separated by data-dependent
// branches.
const (
	BlockPre    = "water/pre"    // speed, dt, forces, advection, levelset transport
	BlockReinit = "water/reinit" // one redistancing iteration (inner loop 1)
	BlockMid    = "water/mid"    // extrapolation, divergence, Poisson RHS
	BlockJacobi = "water/jacobi" // one projection iteration (inner loop 2)
	BlockPost   = "water/post"   // projection apply, particles, diagnostics
)

// Setup declares the variables and initializes the fields on the workers.
func Setup(d *driver.Driver, cfg Config) (*Job, error) {
	cfg = cfg.withDefaults()
	if cfg.Rows%cfg.Partitions != 0 {
		return nil, fmt.Errorf("water: rows %d not divisible by %d partitions",
			cfg.Rows, cfg.Partitions)
	}
	j := &Job{Cfg: cfg, D: d}
	var err error
	grid := func(name string) Var {
		if err != nil {
			return Var{}
		}
		var v Var
		v, err = d.DefineVariable("water/"+name, cfg.Partitions)
		return v
	}
	scalarVar := func(name string) Var {
		if err != nil {
			return Var{}
		}
		var v Var
		v, err = d.DefineVariable("water/"+name, 1)
		return v
	}
	j.U, j.V = grid("u"), grid("v")
	j.UStar, j.VStar = grid("ustar"), grid("vstar")
	j.UForce, j.VForce = grid("uforce"), grid("vforce")
	j.Phi, j.PhiTmp, j.PhiNext = grid("phi"), grid("phitmp"), grid("phinext")
	j.Press, j.PressNext = grid("press"), grid("pressnext")
	j.Div, j.RHS = grid("div"), grid("rhs")
	j.Particles, j.PTmp, j.PCount = grid("particles"), grid("ptmp"), grid("pcount")
	j.Speed, j.MaxSpd = grid("speed"), grid("maxspd")
	j.Resid, j.Presid = grid("resid"), grid("presid")
	j.Energy, j.Mass, j.Vort = grid("energy"), grid("mass"), grid("vort")
	j.Dt, j.CflNum = scalarVar("dt"), scalarVar("cflnum")
	j.ResidSum, j.PresidSum = scalarVar("residsum"), scalarVar("presidsum")
	j.EnergySum, j.MassSum = scalarVar("energysum"), scalarVar("masssum")
	j.VortSum, j.SimTime = scalarVar("vortsum"), scalarVar("simtime")
	if err != nil {
		return nil, err
	}

	// Scalars start at zero.
	for _, v := range []Var{j.Dt, j.CflNum, j.ResidSum, j.PresidSum,
		j.EnergySum, j.MassSum, j.VortSum, j.SimTime} {
		if err := d.PutFloats(v, 0, []float64{0}); err != nil {
			return nil, err
		}
	}

	// Initialize every strip field with its geometry (kind 0), the
	// levelset with the pour scene (kind 1), particles empty (kind 2).
	initStage := func(v Var, kind uint64) error {
		perTask := make([]params.Blob, cfg.Partitions)
		rows := cfg.Rows / cfg.Partitions
		for p := 0; p < cfg.Partitions; p++ {
			perTask[p] = params.NewEncoder(48).
				Uint(kind).
				Int(int64(p * rows)).
				Int(int64(rows)).
				Int(int64(cfg.Cols)).
				Int(int64(cfg.Rows)).
				Blob()
		}
		return d.SubmitPerTask(FnInitField, cfg.Partitions, perTask, v.Write())
	}
	zeroFields := []Var{j.U, j.V, j.UStar, j.VStar, j.UForce, j.VForce,
		j.PhiNext, j.Press, j.PressNext, j.Div, j.RHS, j.Speed}
	for _, v := range zeroFields {
		if err := initStage(v, 0); err != nil {
			return nil, err
		}
	}
	if err := initStage(j.Phi, 1); err != nil {
		return nil, err
	}
	if err := initStage(j.PhiTmp, 1); err != nil {
		return nil, err
	}
	for _, v := range []Var{j.Particles, j.PTmp} {
		if err := initStage(v, 2); err != nil {
			return nil, err
		}
	}
	return j, d.Barrier()
}

func (j *Job) fnOr(real ids.FunctionID) ids.FunctionID {
	if j.Cfg.Simulated {
		return fn.FuncSim
	}
	return real
}

func (j *Job) gridParams(real params.Blob) params.Blob {
	if j.Cfg.Simulated {
		return fn.SimParams(j.Cfg.GridTaskDuration)
	}
	return real
}

func (j *Job) reduceParams(real params.Blob) params.Blob {
	if j.Cfg.Simulated {
		return fn.SimParams(j.Cfg.ReduceTaskDuration)
	}
	return real
}

// SubmitPreStages submits the pre block (stages 1-8): CFL timestep,
// forces, velocity and levelset advection.
func (j *Job) SubmitPreStages() error {
	cfg := j.Cfg
	P := cfg.Partitions
	d := j.D
	steps := []func() error{
		func() error {
			return d.Submit(j.fnOr(FnComputeSpeed), P, j.gridParams(nil),
				j.U.Read(), j.V.Read(), j.Speed.Write(), j.MaxSpd.Write())
		},
		func() error {
			p := params.NewEncoder(32).Float(cfg.CFL).Float(1).Float(cfg.DtMax).Blob()
			return d.Submit(j.fnOr(FnReduceMaxSpeed), 1, j.reduceParams(p),
				j.MaxSpd.ReadGrouped(), j.Dt.WriteShared(), j.CflNum.WriteShared())
		},
		func() error {
			return d.Submit(j.fnOr(FnBodyForce), P, j.gridParams(nil),
				j.U.Read(), j.V.Read(), j.Dt.ReadShared(),
				j.UForce.Write(), j.VForce.Write())
		},
		func() error {
			return d.Submit(j.fnOr(FnAdvectU), P, j.gridParams(nil),
				j.UForce.ReadStencil(), j.VForce.ReadStencil(), j.Dt.ReadShared(),
				j.UStar.Write())
		},
		func() error {
			return d.Submit(j.fnOr(FnAdvectV), P, j.gridParams(nil),
				j.UForce.ReadStencil(), j.VForce.ReadStencil(), j.Dt.ReadShared(),
				j.VStar.Write())
		},
		func() error {
			p := params.NewEncoder(16).Int(int64(cfg.Rows)).Blob()
			return d.Submit(j.fnOr(FnVelocityBC), P, j.gridParams(p),
				j.UStar.Read(), j.VStar.Read(), j.UStar.Write(), j.VStar.Write())
		},
		func() error {
			return d.Submit(j.fnOr(FnAdvectPhi), P, j.gridParams(nil),
				j.Phi.ReadStencil(), j.U.Read(), j.V.Read(), j.Dt.ReadShared(),
				j.PhiTmp.Write())
		},
		func() error {
			return d.Submit(j.fnOr(FnPhiBC), P, j.gridParams(nil),
				j.PhiTmp.Read(), j.PhiTmp.Write())
		},
	}
	for _, s := range steps {
		if err := s(); err != nil {
			return err
		}
	}
	return nil
}

// SubmitReinitStages submits one redistancing iteration (stages 9-11).
func (j *Job) SubmitReinitStages() error {
	cfg := j.Cfg
	d := j.D
	if err := d.Submit(j.fnOr(FnReinitStep), cfg.Partitions, j.gridParams(nil),
		j.PhiTmp.ReadStencil(), j.PhiNext.Write(), j.Resid.Write()); err != nil {
		return err
	}
	if err := d.Submit(j.fnOr(FnReinitCopy), cfg.Partitions, j.gridParams(nil),
		j.PhiNext.Read(), j.PhiTmp.Write()); err != nil {
		return err
	}
	return d.Submit(j.fnOr(FnReduceResid), 1, j.reduceParams(nil),
		j.Resid.ReadGrouped(), j.ResidSum.WriteShared())
}

// SubmitMidStages submits the mid block (stages 12-14).
func (j *Job) SubmitMidStages() error {
	cfg := j.Cfg
	d := j.D
	if err := d.Submit(j.fnOr(FnExtrapolate), cfg.Partitions, j.gridParams(nil),
		j.PhiTmp.Read(), j.UStar.Read(), j.VStar.Read(),
		j.UStar.Write(), j.VStar.Write()); err != nil {
		return err
	}
	if err := d.Submit(j.fnOr(FnComputeDiv), cfg.Partitions, j.gridParams(nil),
		j.UStar.ReadStencil(), j.VStar.ReadStencil(), j.Div.Write()); err != nil {
		return err
	}
	return d.Submit(j.fnOr(FnBuildRHS), cfg.Partitions, j.gridParams(nil),
		j.Div.Read(), j.Dt.ReadShared(), j.RHS.Write())
}

// SubmitJacobiStages submits one projection iteration (stages 15-17).
func (j *Job) SubmitJacobiStages() error {
	cfg := j.Cfg
	d := j.D
	if err := d.Submit(j.fnOr(FnJacobiStep), cfg.Partitions, j.gridParams(nil),
		j.Press.ReadStencil(), j.RHS.Read(), j.PressNext.Write(), j.Presid.Write()); err != nil {
		return err
	}
	if err := d.Submit(j.fnOr(FnJacobiCopy), cfg.Partitions, j.gridParams(nil),
		j.PressNext.Read(), j.Press.Write()); err != nil {
		return err
	}
	return d.Submit(j.fnOr(FnReducePresid), 1, j.reduceParams(nil),
		j.Presid.ReadGrouped(), j.PresidSum.WriteShared())
}

// SubmitPostStages submits the post block (stages 18-23).
func (j *Job) SubmitPostStages() error {
	cfg := j.Cfg
	P := cfg.Partitions
	d := j.D
	if err := d.Submit(j.fnOr(FnApplyPressure), P, j.gridParams(nil),
		j.Press.ReadStencil(), j.UStar.Read(), j.VStar.Read(), j.Dt.ReadShared(),
		j.U.Write(), j.V.Write()); err != nil {
		return err
	}
	if err := d.Submit(j.fnOr(FnAdvectParticles), P, j.gridParams(nil),
		j.Particles.ReadStencil(), j.U.Read(), j.V.Read(), j.Dt.ReadShared(),
		j.PTmp.Write(), j.PCount.Write()); err != nil {
		return err
	}
	if err := d.Submit(j.fnOr(FnParticleCorrect), P, j.gridParams(nil),
		j.PTmp.Read(), j.PhiTmp.Read(), j.Phi.Write()); err != nil {
		return err
	}
	if err := d.Submit(j.fnOr(FnReseedParticles), P, j.gridParams(nil),
		j.Phi.Read(), j.Particles.Write()); err != nil {
		return err
	}
	if err := d.Submit(j.fnOr(FnDiagnostics), P, j.gridParams(nil),
		j.U.Read(), j.V.Read(), j.Phi.Read(),
		j.Energy.Write(), j.Mass.Write(), j.Vort.Write()); err != nil {
		return err
	}
	return d.Submit(j.fnOr(FnReduceDiag), 1, j.reduceParams(nil),
		j.Energy.ReadGrouped(), j.Mass.ReadGrouped(), j.Vort.ReadGrouped(),
		j.Dt.ReadShared(), j.SimTime.ReadShared(),
		j.EnergySum.WriteShared(), j.MassSum.WriteShared(),
		j.VortSum.WriteShared(), j.SimTime.WriteShared())
}

// InstallTemplates records all five basic blocks, executing one substep
// (with one iteration of each inner solver) in the process.
func (j *Job) InstallTemplates() error {
	record := func(name string, submit func() error) error {
		if err := j.D.BeginTemplate(name); err != nil {
			return err
		}
		if err := submit(); err != nil {
			return err
		}
		return j.D.EndTemplate(name)
	}
	if err := record(BlockPre, j.SubmitPreStages); err != nil {
		return err
	}
	if err := record(BlockReinit, j.SubmitReinitStages); err != nil {
		return err
	}
	if err := record(BlockMid, j.SubmitMidStages); err != nil {
		return err
	}
	if err := record(BlockJacobi, j.SubmitJacobiStages); err != nil {
		return err
	}
	return record(BlockPost, j.SubmitPostStages)
}

func (j *Job) scalarValue(v Var) (float64, error) {
	vals, err := j.D.GetFloats(v, 0)
	if err != nil {
		return 0, err
	}
	if len(vals) == 0 {
		return 0, nil
	}
	return vals[0], nil
}

// RunSubstep executes one CFL substep with data-dependent solver loops
// (or fixed trip counts in the simulated profile). Templates must be
// installed.
//
// The solver loops deliberately stay on the v1 explicit Get-per-iteration
// surface, as the counter-example to kmeans/lr's InstantiateWhile: the
// simulated profile's trip counts are not predicate-driven at all, and
// the real profile's exits mix a residual threshold with per-loop
// iteration statistics the driver wants to observe — control flow a
// single controller-evaluated predicate cannot express.
func (j *Job) RunSubstep() (SubstepStats, error) {
	var st SubstepStats
	cfg := j.Cfg
	if err := j.D.Instantiate(BlockPre); err != nil {
		return st, err
	}
	// Inner loop 1: redistancing until the residual settles.
	for {
		if err := j.D.Instantiate(BlockReinit); err != nil {
			return st, err
		}
		st.ReinitIters++
		if cfg.Simulated {
			if st.ReinitIters >= cfg.SimReinit {
				break
			}
			continue
		}
		r, err := j.scalarValue(j.ResidSum)
		if err != nil {
			return st, err
		}
		if r < cfg.ReinitTol || st.ReinitIters >= cfg.MaxReinit {
			break
		}
	}
	if err := j.D.Instantiate(BlockMid); err != nil {
		return st, err
	}
	// Inner loop 2: Jacobi projection until the residual settles.
	for {
		if err := j.D.Instantiate(BlockJacobi); err != nil {
			return st, err
		}
		st.JacobiIters++
		if cfg.Simulated {
			if st.JacobiIters >= cfg.SimJacobi {
				break
			}
			continue
		}
		r, err := j.scalarValue(j.PresidSum)
		if err != nil {
			return st, err
		}
		if r < cfg.PressTol || st.JacobiIters >= cfg.MaxJacobi {
			break
		}
	}
	if err := j.D.Instantiate(BlockPost); err != nil {
		return st, err
	}
	if !cfg.Simulated {
		dt, err := j.scalarValue(j.Dt)
		if err != nil {
			return st, err
		}
		st.Dt = dt
	}
	return st, nil
}

// FrameStats aggregates a frame's substeps.
type FrameStats struct {
	Substeps    int
	ReinitIters int
	JacobiIters int
	EndTime     float64
}

// RunFrame advances simulated time to the next frame boundary — the
// middle loop, whose trip count depends on the CFL timesteps the data
// produced.
func (j *Job) RunFrame(frame int) (FrameStats, error) {
	var fs FrameStats
	cfg := j.Cfg
	target := float64(frame) * cfg.FrameDt
	for {
		if cfg.Simulated {
			if fs.Substeps >= cfg.SimSubsteps {
				return fs, nil
			}
		} else {
			t, err := j.scalarValue(j.SimTime)
			if err != nil {
				return fs, err
			}
			fs.EndTime = t
			if t >= target || fs.Substeps >= cfg.MaxSubsteps {
				return fs, nil
			}
		}
		st, err := j.RunSubstep()
		if err != nil {
			return fs, err
		}
		fs.Substeps++
		fs.ReinitIters += st.ReinitIters
		fs.JacobiIters += st.JacobiIters
	}
}
