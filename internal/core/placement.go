// Package core implements execution templates, the paper's primary
// contribution: parameterizable cached task graphs that let a centralized
// controller schedule hundreds of thousands of tasks per second while
// retaining per-task scheduling flexibility.
//
// A template captures the fixed structure of one basic block of the driver
// program — the tasks, their functions, data accesses, relative order and
// copy routing — and factors out what changes between executions: command
// identifiers (one base ID per instantiation) and task parameters (a slot
// array). The package provides:
//
//   - Builder: turns a recorded stage sequence into a controller template
//     and its per-worker worker templates (paper §4.1);
//   - Template/Assignment: the controller-half state, including cached
//     preconditions and instantiation effects;
//   - Validate/BuildPatch/PatchCache: dynamic control-flow support
//     (paper §2.4, §4.2);
//   - Template.Migrate: edits an assignment for moved partitions, touching
//     only the moved tasks' cone, and returns the per-worker edits (paper
//     §2.3, §4.3); Rebuild + Diff, its oracle, rebuild and compare the
//     whole template.
package core

import (
	"fmt"

	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// Placement resolves the controller's data-placement decisions: which
// worker owns each partition of each variable, and the logical identity of
// every (variable, partition) pair. The controller implements it; the
// template machinery consults it so that recording, rebuilding and live
// scheduling all share one notion of placement.
type Placement interface {
	// WorkerOf returns the worker owning the given partition.
	WorkerOf(v ids.VariableID, partition int) ids.WorkerID
	// Logical returns the logical object for the given partition.
	Logical(v ids.VariableID, partition int) ids.LogicalID
	// Partitions returns the variable's partition count.
	Partitions(v ids.VariableID) int
}

// Access is one resolved data access of a task.
type Access struct {
	Logical ids.LogicalID
	Write   bool
}

// TaskAccesses resolves the reads and writes of task t of the given stage
// under the placement's partitioning. The returned slices are freshly
// allocated.
func TaskAccesses(spec *proto.SubmitStage, place Placement, t int) (reads, writes []ids.LogicalID, err error) {
	for i := range spec.Refs {
		ref := &spec.Refs[i]
		parts, err := refPartitions(ref, place, spec.Tasks, t)
		if err != nil {
			return nil, nil, fmt.Errorf("stage %s ref %d: %w", spec.Stage, i, err)
		}
		for _, p := range parts {
			l := place.Logical(ref.Var, p)
			if ref.Write {
				writes = append(writes, l)
			} else {
				reads = append(reads, l)
			}
		}
	}
	return reads, writes, nil
}

// refPartitions expands one variable reference into the partitions task t
// accesses.
func refPartitions(ref *proto.VarRef, place Placement, tasks, t int) ([]int, error) {
	total := place.Partitions(ref.Var)
	switch ref.Pattern {
	case proto.OnePerTask:
		if total != tasks {
			return nil, fmt.Errorf("one-per-task access of %s: %d partitions != %d tasks",
				ref.Var, total, tasks)
		}
		return []int{t}, nil
	case proto.Shared:
		return []int{0}, nil
	case proto.Grouped:
		if tasks <= 0 || total%tasks != 0 {
			return nil, fmt.Errorf("grouped access of %s: %d partitions not divisible by %d tasks",
				ref.Var, total, tasks)
		}
		k := total / tasks
		parts := make([]int, k)
		for j := range parts {
			parts[j] = t*k + j
		}
		return parts, nil
	case proto.FixedPartition:
		if ref.Fixed < 0 || ref.Fixed >= total {
			return nil, fmt.Errorf("fixed access of %s: partition %d out of %d",
				ref.Var, ref.Fixed, total)
		}
		return []int{ref.Fixed}, nil
	case proto.Stencil:
		if total != tasks {
			return nil, fmt.Errorf("stencil access of %s: %d partitions != %d tasks",
				ref.Var, total, tasks)
		}
		r := ref.Fixed
		if r <= 0 {
			r = 1
		}
		lo, hi := t-r, t+r
		if lo < 0 {
			lo = 0
		}
		if hi > total-1 {
			hi = total - 1
		}
		parts := make([]int, 0, hi-lo+1)
		for p := lo; p <= hi; p++ {
			parts = append(parts, p)
		}
		return parts, nil
	default:
		return nil, fmt.Errorf("unknown access pattern %d", ref.Pattern)
	}
}

// AnchorWorker returns the worker task t runs on: the owner of the task's
// first written partition (write-local placement). Stages with no writes
// anchor on their first read.
func AnchorWorker(spec *proto.SubmitStage, place Placement, t int) (ids.WorkerID, error) {
	mv, err := anchorOf(spec, place, t)
	if err != nil {
		return ids.NoWorker, err
	}
	return place.WorkerOf(mv.Var, mv.Partition), nil
}

// anchorOf returns the (variable, partition) pair whose owner task t runs
// on. It does not depend on where partitions are placed.
func anchorOf(spec *proto.SubmitStage, place Placement, t int) (Move, error) {
	var ref *proto.VarRef
	for i := range spec.Refs {
		if spec.Refs[i].Write {
			ref = &spec.Refs[i]
			break
		}
	}
	if ref == nil && len(spec.Refs) > 0 {
		ref = &spec.Refs[0]
	}
	if ref == nil {
		return Move{}, fmt.Errorf("stage %s has no variable references", spec.Stage)
	}
	parts, err := refPartitions(ref, place, spec.Tasks, t)
	if err != nil {
		return Move{}, err
	}
	return Move{Var: ref.Var, Partition: parts[0]}, nil
}
