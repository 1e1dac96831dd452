package sched

// AdaptivePolicy extends the hierarchical DefaultPolicy with the
// load feedback the paper describes for variant selection: "This
// policy considers the set of available variants, properties of those
// like being sequential or spawning additional sub-tasks, as well as
// runtime system data like task queue lengths and worker idle rates"
// (Section 3.2, Algorithm 2 line 3).
//
// Beyond the baseline split depth (covering the system), the policy
// keeps splitting while the local scheduler looks starved (idle
// workers or a short run queue), up to MaxExtraDepth additional
// levels; a loaded locality stops splitting early to avoid
// task-management overhead.
//
// Construct with NewAdaptivePolicy for the defaults. Explicitly set
// zero fields are honored (BaseExtraDepth=0 really means no headroom);
// negative values select the defaults. Before PR 6 a zero field
// silently meant "default", making 0 unconfigurable.
type AdaptivePolicy struct {
	// BaseExtraDepth is the guaranteed split headroom beyond
	// log2(P); negative selects the default 1.
	BaseExtraDepth int
	// MaxExtraDepth bounds additional load-driven splitting; negative
	// selects the default 3.
	MaxExtraDepth int
	// LowLoad is the queue-depth threshold under which the locality
	// counts as starved; negative selects the default 4 (2× the worker
	// estimate).
	LowLoad int64

	queueDepth  func() int64
	idleWorkers func() int64
}

// NewAdaptivePolicy returns a policy with the default tuning
// materialized: BaseExtraDepth 1, MaxExtraDepth 3, LowLoad 4.
func NewAdaptivePolicy() *AdaptivePolicy {
	return &AdaptivePolicy{BaseExtraDepth: 1, MaxExtraDepth: 3, LowLoad: 4}
}

// BindQueueSignals gives the policy the run queue's live depth and
// idle-worker-count signals; the scheduler calls this at construction.
func (p *AdaptivePolicy) BindQueueSignals(depth, idle func() int64) {
	p.queueDepth = depth
	p.idleWorkers = idle
}

func (p *AdaptivePolicy) base() int {
	if p.BaseExtraDepth < 0 {
		return 1
	}
	return p.BaseExtraDepth
}

func (p *AdaptivePolicy) maxExtra() int {
	if p.MaxExtraDepth < 0 {
		return 3
	}
	return p.MaxExtraDepth
}

func (p *AdaptivePolicy) lowLoad() int64 {
	if p.LowLoad < 0 {
		return 4
	}
	return p.LowLoad
}

// PickVariant implements Policy.
func (p *AdaptivePolicy) PickVariant(spec *TaskSpec, splittable bool, size int) Variant {
	if !splittable {
		return VariantProcess
	}
	depth := log2ceil(size) + p.base()
	if spec.Depth < depth {
		return VariantSplit
	}
	if spec.Depth >= depth+p.maxExtra() {
		return VariantProcess
	}
	// Past the guaranteed depth: keep splitting only while starved —
	// parked workers or a short queue both mean more tasks are welcome.
	if p.idleWorkers() > 0 || p.queueDepth() < p.lowLoad() {
		return VariantSplit
	}
	return VariantProcess
}

// PickTarget implements Policy (same path-prefix spreading as
// DefaultPolicy).
func (p *AdaptivePolicy) PickTarget(spec *TaskSpec, size int) int {
	return (&DefaultPolicy{}).PickTarget(spec, size)
}

// queueSignalBinder is implemented by policies that want the live
// queue-depth and idle-worker signals of the work-stealing run queue.
type queueSignalBinder interface {
	BindQueueSignals(depth, idle func() int64)
}
