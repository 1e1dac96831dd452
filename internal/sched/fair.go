package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"allscale/internal/metrics"
	"allscale/internal/trace"
)

// Multi-tenant fair sharing and job cancellation (DESIGN.md §6h).
//
// The job service (internal/jobs) tags every task it spawns with a
// tenant ID and a job ID; both travel in the TaskSpec, so they survive
// shipping, stealing and crash-recovery respawns. On each rank the
// scheduler then adds a tenant dimension to Algorithm 2's run queue:
// tenant-tagged process variants are not pushed straight into the
// per-worker deques but into per-tenant FIFOs drained by a weighted
// deficit round-robin — each visit of the rotation grants a tenant
// `weight` pops before moving on — so one tenant's task flood cannot
// starve another's queued work regardless of arrival order. Untagged
// tasks (tenant 0: everything outside service mode) bypass the fair
// layer entirely and keep the PR 6 hot path.
//
// Cancellation is the other job-scoped control: CancelJob registers
// the job in a bounded cancelled set, purges its queued tasks, and
// sweeps the inflight/handoff recovery registries so neither a re-ship
// nor a crash-recovery respawn can resurrect cancelled work. Tasks of
// a cancelled job that are already riding a wire frame or a thief's
// grant are caught at the last gate, executeNow, which fails their
// promises with ErrJobCancelled instead of running the body.

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

// Per-tenant metric names: MetricTenantPrefix + "<tenant>." + suffix.
const (
	MetricTenantPrefix        = "sched.tenant."
	MetricTenantEnqueuedSufx  = "enqueued"
	MetricTenantExecutedSufx  = "executed"
	MetricTenantCancelledSufx = "cancelled"
	// MetricCancelledTasks counts tasks of cancelled jobs suppressed at
	// the execution gate or purged from queues; MetricCancelledRespawns
	// counts recovery respawns dropped because their job was cancelled.
	MetricCancelledTasks    = "sched.cancelled_tasks"
	MetricCancelledRespawns = "sched.cancelled_respawns"
)

// TenantEnqueuedMetric returns the enqueued-counter name of a tenant.
func TenantEnqueuedMetric(tenant uint32) string {
	return fmt.Sprintf("%s%d.%s", MetricTenantPrefix, tenant, MetricTenantEnqueuedSufx)
}

// TenantExecutedMetric returns the executed-counter name of a tenant.
func TenantExecutedMetric(tenant uint32) string {
	return fmt.Sprintf("%s%d.%s", MetricTenantPrefix, tenant, MetricTenantExecutedSufx)
}

// TenantCancelledMetric returns the cancelled-counter name of a tenant.
func TenantCancelledMetric(tenant uint32) string {
	return fmt.Sprintf("%s%d.%s", MetricTenantPrefix, tenant, MetricTenantCancelledSufx)
}

// tenantQueue is one tenant's FIFO of queued tasks plus its deficit
// round-robin state and cached counters.
type tenantQueue struct {
	fifo    []queuedTask
	head    int // index of the oldest element
	weight  int // configured share (>= 1)
	deficit int // pops left in the current rotation visit
	enq     *metrics.Counter
	exec    *metrics.Counter
	cncl    *metrics.Counter
}

func (tq *tenantQueue) len() int { return len(tq.fifo) - tq.head }

func (tq *tenantQueue) push(t queuedTask) { tq.fifo = append(tq.fifo, t) }

func (tq *tenantQueue) pop() queuedTask {
	t := tq.fifo[tq.head]
	tq.fifo[tq.head] = queuedTask{}
	tq.head++
	if tq.head > len(tq.fifo)/2 && tq.head >= 32 {
		n := copy(tq.fifo, tq.fifo[tq.head:])
		for i := n; i < len(tq.fifo); i++ {
			tq.fifo[i] = queuedTask{}
		}
		tq.fifo = tq.fifo[:n]
		tq.head = 0
	}
	return t
}

// fairState is the per-scheduler tenant fair-share layer.
type fairState struct {
	mu      sync.Mutex
	queues  map[uint32]*tenantQueue
	ring    []uint32 // tenants with queued tasks, rotation order
	cursor  int
	weights map[uint32]int // configured weights (applies on queue creation too)
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

// SetTenantWeight configures a tenant's fair share (default 1). It
// applies to tasks queued from now on; weights are per-rank state the
// caller installs identically everywhere, like kind registration.
func (s *Scheduler) SetTenantWeight(tenant uint32, weight int) {
	if weight < 1 {
		weight = 1
	}
	f := &s.fair
	f.mu.Lock()
	if f.weights == nil {
		f.weights = make(map[uint32]int)
	}
	f.weights[tenant] = weight
	if tq, ok := f.queues[tenant]; ok {
		tq.weight = weight
	}
	f.mu.Unlock()
}

// tenantQueueLocked returns (creating if needed) the tenant's queue;
// f.mu must be held.
func (s *Scheduler) tenantQueueLocked(tenant uint32) *tenantQueue {
	f := &s.fair
	if f.queues == nil {
		f.queues = make(map[uint32]*tenantQueue)
	}
	tq, ok := f.queues[tenant]
	if !ok {
		w := f.weights[tenant]
		if w < 1 {
			w = 1
		}
		reg := s.loc.Metrics()
		tq = &tenantQueue{
			weight: w,
			enq:    reg.Counter(TenantEnqueuedMetric(tenant)),
			exec:   reg.Counter(TenantExecutedMetric(tenant)),
			cncl:   reg.Counter(TenantCancelledMetric(tenant)),
		}
		f.queues[tenant] = tq
	}
	return tq
}

// tenantExecuted bumps the tenant's executed counter.
func (s *Scheduler) tenantExecuted(tenant uint32) {
	f := &s.fair
	f.mu.Lock()
	tq := s.tenantQueueLocked(tenant)
	f.mu.Unlock()
	tq.exec.Inc()
}

// enqueueFair pushes a tenant-tagged process variant into its tenant's
// FIFO, mirroring enqueueAt's span/accounting/wakeup protocol.
func (s *Scheduler) enqueueFair(spec *TaskSpec) {
	q := s.queue
	sp := s.loc.Tracer().Begin("task.enqueue", spec.Kind, trace.SpanID(spec.Span))
	sp.SetTask(spec.ID)
	f := &s.fair
	f.mu.Lock()
	tq := s.tenantQueueLocked(spec.Tenant)
	if tq.len() == 0 {
		f.ring = append(f.ring, spec.Tenant)
	}
	tq.push(queuedTask{spec: *spec, sp: sp})
	tq.enq.Inc()
	f.mu.Unlock()
	s.queued.Add(1)
	if q != nil {
		q.wakeIdle()
	}
}

// ringRemoveLocked drops ring[i], keeping rotation order; f.mu held.
func (f *fairState) ringRemoveLocked(i int) {
	f.ring = append(f.ring[:i], f.ring[i+1:]...)
	if f.cursor > i {
		f.cursor--
	}
}

// popFair takes the next task under the weighted deficit round-robin:
// when the rotation arrives at a tenant it grants one quantum of
// `weight` pops (cost 1 per task), spends it on consecutive pops, and
// moves on; a tenant that empties leaves the ring and forfeits its
// remaining deficit. Every ring member is non-empty, so each visit
// serves — per lap a backlogged tenant gets exactly its weight's share
// regardless of arrival order. Decrements the queued counter for the
// returned task (the caller runs it immediately).
func (s *Scheduler) popFair() (queuedTask, bool) {
	f := &s.fair
	f.mu.Lock()
	if len(f.ring) == 0 {
		f.mu.Unlock()
		return queuedTask{}, false
	}
	if f.cursor >= len(f.ring) {
		f.cursor = 0
	}
	tq := f.queues[f.ring[f.cursor]]
	if tq.deficit <= 0 {
		tq.deficit = tq.weight // the rotation arrives: grant one quantum
	}
	tq.deficit--
	t := tq.pop()
	if tq.len() == 0 {
		tq.deficit = 0
		f.ringRemoveLocked(f.cursor)
	} else if tq.deficit == 0 {
		f.cursor++
	}
	f.mu.Unlock()
	s.queued.Add(-1)
	return t, true
}

// stealFair takes up to max tasks for a thief, sweeping tenant FIFOs
// oldest-first and taking at most half of each (always at least one
// from a non-empty queue). The caller adjusts the queued counter.
func (s *Scheduler) stealFair(max int) []queuedTask {
	f := &s.fair
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []queuedTask
	for i := 0; i < len(f.ring) && len(out) < max; {
		tq := f.queues[f.ring[i]]
		k := (tq.len() + 1) / 2
		if k > max-len(out) {
			k = max - len(out)
		}
		for j := 0; j < k; j++ {
			out = append(out, tq.pop())
		}
		if tq.len() == 0 {
			tq.deficit = 0
			f.ringRemoveLocked(i)
			continue // ring shifted; same index is the next tenant
		}
		i++
	}
	return out
}

// drainFair removes and returns every queued tenant task (queue
// shutdown / drain re-shipping). The caller adjusts accounting.
func (s *Scheduler) drainFair() []queuedTask {
	f := &s.fair
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []queuedTask
	for _, id := range f.ring {
		tq := f.queues[id]
		for tq.len() > 0 {
			out = append(out, tq.pop())
		}
		tq.deficit = 0
	}
	f.ring = f.ring[:0]
	f.cursor = 0
	return out
}

// FairQueueLen returns the tenant-queued task count of one tenant (for
// tests and monitoring).
func (s *Scheduler) FairQueueLen(tenant uint32) int {
	f := &s.fair
	f.mu.Lock()
	defer f.mu.Unlock()
	if tq, ok := f.queues[tenant]; ok {
		return tq.len()
	}
	return 0
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
//     later pop from a queue, arrive in a shipped batch, or land via a
//     steal grant — their promises resolve with ErrJobCancelled, which
//     unwinds the job's split tree;
//   - its queued tasks are purged from the tenant fair queues
//     immediately, their promises failed;
//   - its entries leave the inflight and handoff recovery registries,
//     so a peer death cannot respawn cancelled work and the ship
//     confirmation loops drop the specs from any re-ship (draining the
//     ship seqs toward the ack watermark instead of re-delivering).
//
// Data requirements need no special handling: a cancelled task either
// never reaches AcquireFor (the gate precedes it) or completes its
// acquire/release pair normally, so no DIM locks or pins leak; the job
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

	// Purge queued tasks of the job from the tenant queues.
	f := &s.fair
	f.mu.Lock()
	var purged []queuedTask
	for i := 0; i < len(f.ring); {
		tq := f.queues[f.ring[i]]
		kept := tq.fifo[:tq.head]
		for _, t := range tq.fifo[tq.head:] {
			if t.spec.Job == job {
				purged = append(purged, t)
			} else {
				kept = append(kept, t)
			}
		}
		for j := len(kept); j < len(tq.fifo); j++ {
			tq.fifo[j] = queuedTask{}
		}
		tq.fifo = kept
		if tq.len() == 0 {
			tq.deficit = 0
			f.ringRemoveLocked(i)
			continue
		}
		i++
	}
	f.mu.Unlock()
	for _, t := range purged {
		t.sp.End()
		s.queued.Add(-1)
		s.failCancelled(&t.spec)
	}

	// Sweep the recovery registries: cancelled specs must be neither
	// respawned after a peer death nor re-shipped after a confirmation
	// timeout (confirmShip keeps only still-inflight specs). The swept
	// specs' promises must be failed HERE: if the remote rank dies
	// before its execute gate runs, HandleDeath will no longer find the
	// entry we just deleted, and nobody else fails the promise.
	// Fulfilment is idempotent, so racing the remote gate is harmless.
	var swept []TaskSpec
	s.inflightMu.Lock()
	for id, e := range s.inflight {
		if e.spec.Job == job {
			swept = append(swept, e.spec)
			delete(s.inflight, id)
		}
	}
	kept := s.handoffs[:0]
	for _, h := range s.handoffs {
		if h.spec.Job != job {
			kept = append(kept, h)
		} else {
			swept = append(swept, h.spec)
		}
	}
	for i := len(kept); i < len(s.handoffs); i++ {
		s.handoffs[i] = handoffEntry{}
	}
	s.handoffs = kept
	s.inflightMu.Unlock()
	for i := range swept {
		s.failCancelled(&swept[i])
	}
}

// failCancelled resolves a cancelled task's promise and counts it.
func (s *Scheduler) failCancelled(spec *TaskSpec) {
	s.stats.cancelledTasks.Inc()
	if spec.Tenant != 0 {
		f := &s.fair
		f.mu.Lock()
		tq := s.tenantQueueLocked(spec.Tenant)
		f.mu.Unlock()
		tq.cncl.Inc()
	}
	s.loc.FulfillRemote(spec.Promise, nil,
		fmt.Errorf("%w: task %d of job %d", ErrJobCancelled, spec.ID, spec.Job))
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
