package mpi

import (
	"time"

	"nimbus/internal/simclock"
)

// WaterProfile describes the MPI water-simulation run for the Figure 11
// comparison: the same 23-stage substep pipeline as app/water, executed
// rank-locally with halo exchanges and allreduces in place of control
// messages. Task compute is the calibrated simulated duration, so the
// three systems in Figure 11 run identical work and differ only in
// coordination cost.
type WaterProfile struct {
	// StripsPerRank is the number of grid strips each rank owns.
	StripsPerRank int
	// Slots is per-rank execution concurrency.
	Slots int
	// GridTaskDuration / ReduceTaskDuration calibrate stage compute.
	GridTaskDuration   time.Duration
	ReduceTaskDuration time.Duration
	// Substeps / ReinitIters / JacobiIters are the loop trip counts,
	// matched to the Nimbus run so the compared work is equal.
	Substeps    int
	ReinitIters int
	JacobiIters int
}

// waterStage describes one pipeline stage's coordination shape.
type waterStage struct {
	halo   bool // stencil stage: exchange ghost rows first
	reduce bool // ends in an allreduce
}

// substepStages is the fixed (non-loop) part of the pipeline: the pre
// block (8 stages), the mid block (3), and the post block (6). The two
// solver loops add 3 stages per iteration each.
var (
	preStages = []waterStage{
		{},             // compute-speed
		{reduce: true}, // reduce-max-speed -> dt
		{},             // body-force
		{halo: true},   // advect-u
		{halo: true},   // advect-v
		{},             // velocity-bc
		{halo: true},   // advect-phi
		{},             // phi-bc
	}
	midStages = []waterStage{
		{},           // extrapolate
		{halo: true}, // compute-div
		{},           // build-rhs
	}
	postStages = []waterStage{
		{halo: true},   // apply-pressure
		{halo: true},   // advect-particles
		{},             // particle-correct
		{},             // reseed-particles
		{},             // diagnostics
		{reduce: true}, // reduce-diag
	}
	solverStages = []waterStage{
		{halo: true},   // reinit-step / jacobi-step
		{},             // copy-back
		{reduce: true}, // residual allreduce
	}
)

// RunWaterSubsteps executes the water pipeline for the configured number
// of substeps on every rank and returns the wall-clock time.
func RunWaterSubsteps(c *Comm, p WaterProfile) (time.Duration, error) {
	if p.Slots <= 0 {
		p.Slots = 8
	}
	start := time.Now()
	err := c.Run(func(r *Rank) error {
		tag := 0
		gridCompute := func() {
			// StripsPerRank tasks over Slots executors.
			waves := (p.StripsPerRank + p.Slots - 1) / p.Slots
			if waves < 1 {
				waves = 1
			}
			simclock.Wait(time.Duration(waves) * p.GridTaskDuration)
		}
		runStage := func(s waterStage) error {
			if s.halo {
				tag += 2
				if err := r.HaloExchange(tag, []float64{0}); err != nil {
					return err
				}
			}
			if s.reduce {
				simclock.Wait(p.ReduceTaskDuration)
				tag += 2
				_, err := r.AllReduce(tag, 0, "sum")
				return err
			}
			gridCompute()
			return nil
		}
		for step := 0; step < p.Substeps; step++ {
			for _, s := range preStages {
				if err := runStage(s); err != nil {
					return err
				}
			}
			for it := 0; it < p.ReinitIters; it++ {
				for _, s := range solverStages {
					if err := runStage(s); err != nil {
						return err
					}
				}
			}
			for _, s := range midStages {
				if err := runStage(s); err != nil {
					return err
				}
			}
			for it := 0; it < p.JacobiIters; it++ {
				for _, s := range solverStages {
					if err := runStage(s); err != nil {
						return err
					}
				}
			}
			for _, s := range postStages {
				if err := runStage(s); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return time.Since(start), err
}
