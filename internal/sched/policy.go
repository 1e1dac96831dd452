package sched

import (
	"math/bits"
	"sync/atomic"
)

// DefaultPolicy is the hierarchical scheduling policy of the
// prototype: tasks are split while the spawn tree is shallower than
// log2(P) + ExtraDepth (obtaining adequate task granularity), and
// tasks without data-placement constraints are spread by mapping
// their spawn-tree path prefix onto the process space. During the
// initialization phase of an application this spreads the first-touch
// tasks — and with them the data items — evenly throughout the system
// (Section 3.2).
type DefaultPolicy struct {
	// ExtraDepth adds split levels beyond log2(P), yielding roughly
	// 2^ExtraDepth process-variant tasks per locality for load
	// balancing headroom. Default 1.
	ExtraDepth int
}

func (p *DefaultPolicy) extra() int {
	if p.ExtraDepth == 0 {
		return 1
	}
	return p.ExtraDepth
}

// PickVariant implements Policy.
func (p *DefaultPolicy) PickVariant(spec *TaskSpec, splittable bool, size int) Variant {
	if !splittable {
		return VariantProcess
	}
	if spec.Depth < log2ceil(size)+p.extra() {
		return VariantSplit
	}
	return VariantProcess
}

// PickTarget implements Policy: the task's path bits, read as a
// binary fraction, select the target rank — mapping the binary spawn
// tree onto the linear process space exactly like the hierarchical
// storage index of Fig. 5 maps regions.
func (p *DefaultPolicy) PickTarget(spec *TaskSpec, size int) int {
	if spec.PathLen == 0 {
		return spec.Origin
	}
	n := spec.PathLen
	path := spec.Path
	if n > 30 {
		path >>= uint(n - 30)
		n = 30
	}
	return int(uint64(size) * path >> uint(n))
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// RoundRobinPolicy splits like DefaultPolicy but places unconstrained
// tasks cyclically, ignoring the spawn-tree structure. Used by the
// scheduler-ablation experiment (E7).
type RoundRobinPolicy struct {
	ExtraDepth int
	next       atomic.Uint64
}

// PickVariant implements Policy.
func (p *RoundRobinPolicy) PickVariant(spec *TaskSpec, splittable bool, size int) Variant {
	return (&DefaultPolicy{ExtraDepth: p.ExtraDepth}).PickVariant(spec, splittable, size)
}

// PickTarget implements Policy.
func (p *RoundRobinPolicy) PickTarget(spec *TaskSpec, size int) int {
	return int(p.next.Add(1)) % size
}

// LocalPolicy splits like DefaultPolicy but keeps every
// unconstrained task at its origin. It provides a no-spreading
// baseline for the scheduler ablation.
type LocalPolicy struct{ ExtraDepth int }

// PickVariant implements Policy.
func (p *LocalPolicy) PickVariant(spec *TaskSpec, splittable bool, size int) Variant {
	return (&DefaultPolicy{ExtraDepth: p.ExtraDepth}).PickVariant(spec, splittable, size)
}

// PickTarget implements Policy.
func (p *LocalPolicy) PickTarget(spec *TaskSpec, size int) int {
	return spec.Origin
}
