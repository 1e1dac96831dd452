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
//   - cancellation: CancelJob registers the job in a bounded cancelled
//     set, purges its queued tasks, and sweeps the inflight recovery
//     registry so neither a ship's local fallback nor a crash-recovery
//     respawn can resurrect cancelled work. Tasks of a cancelled job
//     that are already riding a wire frame are caught at the last gate,
//     executeNow, which fails their promises with ErrJobCancelled
//     instead of running the body;
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
// rank:
//
//   - the job enters the bounded cancelled set, so the execution gate
//     in executeNow fails (rather than runs) any of its tasks that
//     later pop from a queue or arrive in a shipped batch — their
//     promises resolve with ErrJobCancelled, which unwinds the job's
//     split tree;
//   - its queued tasks are purged from the worker deques immediately,
//     their futures failed — in place for a task that never left its
//     rank, by name for one that did;
//   - its entries leave the inflight recovery registry, so neither a
//     peer death nor a failed ship can bring cancelled work back;
//   - its tasks parked in a DIM lock wait are woken and fail with
//     ErrJobCancelled before their body runs, as does one that reaches
//     its wait later (runVariant passes cancelled as the wait's abort).
//
// So a cancelled task never reaches AcquireFor (the gate precedes it),
// leaves it with the error holding no lock, or completes its
// acquire/release pair normally: no DIM locks or pins leak. The job
// service additionally destroys per-job data items after the unwind.
//
// Call on every rank of the system, like kind registration.
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
		s.failCancelled(t)
	}

	// Sweep the recovery registry: cancelled specs must be neither
	// respawned after a peer death nor run here when their ship fails
	// (confirmShip runs only what takeInflight still finds). The swept
	// specs' promises must be failed HERE: if the remote rank dies
	// before its execute gate runs, HandleDeath will no longer find the
	// entry we just deleted, and nobody else fails the promise.
	// Fulfilment is idempotent, so racing the remote gate is harmless.
	var swept []TaskSpec
	s.inflightMu.Lock()
	for id, e := range s.inflight.m {
		if e.spec.Job == job {
			swept = append(swept, e.spec)
			delete(s.inflight.m, id)
		}
	}
	s.inflightMu.Unlock()
	for i := range swept {
		s.failCancelled(&task{spec: swept[i]})
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

// failCancelled fails a cancelled task's future and counts it.
func (s *Scheduler) failCancelled(t *task) {
	s.endCarried(t)
	s.stats.cancelledTasks.Inc()
	if t.spec.Tenant != 0 {
		s.tenantCounters(t.spec.Tenant).cancelled.Inc()
	}
	s.resolve(t, nil, cancelErr(t.spec.ID, t.spec.Job))
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
