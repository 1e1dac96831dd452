package sched

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"allscale/internal/metrics"
)

// Job scope of a task (DESIGN.md §6h): the job service (internal/jobs)
// tags every task it spawns with a tenant ID and a job ID; both travel
// in the TaskSpec, so they survive shipping, stealing and
// crash-recovery respawns. The scheduler uses the tags for three
// things and for nothing else — a tagged task is queued, popped, raided
// and stolen exactly like an untagged one (steal.go), and which
// tenant's work runs next is decided once, by the job dispatcher:
//
//   - cancellation (CancelJob);
//   - per-tenant executed/cancelled counters in the metrics registry;
//   - the exec observer, which tells the job service when a job's
//     first task runs.

// ErrJobCancelled fails the promise of every task belonging to a
// cancelled job.
var ErrJobCancelled = errors.New("sched: job cancelled")

// IsJobCancelled reports whether an error stems from job cancellation.
// Promise fulfilment transports errors as strings (future.go), so this
// matches the message as well as the wrap chain.
func IsJobCancelled(err error) bool {
	return err != nil &&
		(errors.Is(err, ErrJobCancelled) || strings.Contains(err.Error(), ErrJobCancelled.Error()))
}

// MetricCancelledTasks counts tasks of cancelled jobs suppressed at the
// execution gate or purged from queues; MetricCancelledRespawns counts
// recovery respawns dropped because their job was cancelled.
const (
	MetricCancelledTasks    = "sched.cancelled_tasks"
	MetricCancelledRespawns = "sched.cancelled_respawns"
)

// TenantExecutedMetric returns the executed-counter name of a tenant.
func TenantExecutedMetric(tenant uint32) string {
	return fmt.Sprintf("sched.tenant.%d.executed", tenant)
}

// TenantCancelledMetric returns the cancelled-counter name of a tenant.
func TenantCancelledMetric(tenant uint32) string {
	return fmt.Sprintf("sched.tenant.%d.cancelled", tenant)
}

// tenantCounters are one tenant's registry counters.
type tenantCounters struct {
	executed, cancelled *metrics.Counter
}

// tenantCounters returns (creating on first use) the tenant's cached
// counters. The cache only grows and a tenant is written once per rank,
// the case sync.Map serves without a lock on a hit.
func (s *Scheduler) tenantCounters(tenant uint32) *tenantCounters {
	if v, ok := s.tenants.Load(tenant); ok {
		return v.(*tenantCounters)
	}
	reg := s.loc.Metrics()
	v, _ := s.tenants.LoadOrStore(tenant, &tenantCounters{
		executed:  reg.Counter(TenantExecutedMetric(tenant)),
		cancelled: reg.Counter(TenantCancelledMetric(tenant)),
	})
	return v.(*tenantCounters)
}

// cancelLimit bounds the remembered cancelled-job set; far more
// concurrent cancellations than any service would keep in flight.
const cancelLimit = 1 << 16

// cancelState is the bounded set of cancelled job IDs.
type cancelState struct {
	mu   sync.Mutex
	set  map[uint64]struct{}
	fifo []uint64
	n    atomic.Int64 // lock-free size mirror for the hot-path gate
}

// jobCancelled reports whether a job ID is in the cancelled set. The
// common case (no cancellations anywhere) is a single atomic load.
func (s *Scheduler) jobCancelled(job uint64) bool {
	c := &s.cancel
	if c.n.Load() == 0 {
		return false
	}
	c.mu.Lock()
	_, ok := c.set[job]
	c.mu.Unlock()
	return ok
}

// CancelJob cancels every current and future task of a job on this
// rank. The job enters the bounded cancelled set, so the execution gate
// in executeNow fails, rather than runs, any of its tasks that later
// pops from a queue or arrives in a frame. Its queued tasks leave at
// once, and so do its entries in the inflight recovery registry: neither
// a peer death nor a failed ship brings cancelled work back. Its tasks
// parked in a DIM lock wait wake and fail before their body runs, as
// does one that reaches its wait later (runVariant passes cancelled as
// the wait's abort). Each fails with ErrJobCancelled, which unwinds the
// job's split tree, and no DIM lock, pin or claim leaks. Call on every
// rank of the system, like kind registration.
func (s *Scheduler) CancelJob(job uint64) {
	c := &s.cancel
	c.mu.Lock()
	if c.set == nil {
		c.set = make(map[uint64]struct{})
	}
	if _, dup := c.set[job]; !dup {
		if len(c.fifo) >= cancelLimit {
			evict := c.fifo[0]
			c.fifo = c.fifo[1:]
			delete(c.set, evict)
		}
		c.set[job] = struct{}{}
		c.fifo = append(c.fifo, job)
		c.n.Store(int64(len(c.set)))
	}
	c.mu.Unlock()

	// Purge queued tasks of the job from the deques. A task a sibling
	// raid holds between two deques at this instant is missed here and
	// stopped at the execution gate instead.
	for _, t := range s.takeQueued(math.MaxInt, func(spec *TaskSpec) bool { return spec.Job == job }) {
		s.leave(t, failed(s.countCancelled(&t.spec)))
	}

	// Sweep the recovery registry (confirmShip runs only what
	// takeInflight still finds). A swept task fails here: should its
	// rank die before its gate runs, nothing else would fail it. Racing
	// that gate is harmless, as fulfilment is idempotent.
	for _, spec := range s.takeInflightIf(func(e *inflightEntry) bool { return e.spec.Job == job }) {
		s.leave(&task{spec: spec}, failed(s.countCancelled(&spec)))
	}
	s.mgr.Wake()
}

// cancelled returns the error task id of job fails with once the job is
// cancelled, or nil.
func (s *Scheduler) cancelled(id, job uint64) error {
	if job == 0 || !s.jobCancelled(job) {
		return nil
	}
	return cancelErr(id, job)
}

func cancelErr(id, job uint64) error {
	return fmt.Errorf("%w: task %d of job %d", ErrJobCancelled, id, job)
}

// countCancelled counts a task of a cancelled job that leaves without
// running and returns the error its future fails with.
func (s *Scheduler) countCancelled(spec *TaskSpec) error {
	s.stats.cancelledTasks.Inc()
	if spec.Tenant != 0 {
		s.tenantCounters(spec.Tenant).cancelled.Inc()
	}
	return cancelErr(spec.ID, spec.Job)
}

// SetExecObserver installs a callback invoked once per executed
// job-tagged task, before the variant body runs (the job service uses
// it to timestamp each job's first execution). A nil observer
// uninstalls. Install on every rank before traffic, like tracers.
func (s *Scheduler) SetExecObserver(fn func(job uint64)) {
	if fn == nil {
		s.execObs.Store(nil)
		return
	}
	s.execObs.Store(&fn)
}
