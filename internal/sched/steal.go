package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"allscale/internal/backoff"
	"allscale/internal/runtime"
	"allscale/internal/trace"
	"allscale/internal/wire"
)

// This file implements node-local task queues with inter-node work
// stealing: "Enqueued tasks (Q) are stored within node-local queues
// at the locality where they have been created, yet may be stolen by
// other nodes. Running and blocked tasks (R and B) are equally
// maintained within node-local structures, but may not be moved to
// other nodes since their task-private state can not be migrated."
// (Section 3.2.)
//
// Stealing is opt-in via EnableQueue: process-variant executions are
// then held in per-worker deques (see deque.go) from which idle
// workers and idle peers may take work (only not-yet-started tasks
// move, matching the model). Split variants keep running on their own
// goroutines — they only spawn and wait, and must not occupy a worker
// while blocked on children.
//
// The data plane is tiered for throughput (DESIGN.md §6e): a worker
// pops its own deque LIFO, then raids sibling deques FIFO, and only
// then issues a remote sched.steal RPC — which grants up to half the
// victim's queue in one frame. Idle workers park on a wake channel
// notified by enqueues (no polling); when remote work might exist they
// additionally wake on a randomized, exponentially growing backoff
// timer to retry remote steals.

const methodSteal = "sched.steal"

// stealReply carries a batch of granted tasks (empty = nothing to
// steal).
type stealReply struct {
	Specs []TaskSpec
}

const (
	// localStealCap bounds one sibling-deque raid.
	localStealCap = 16
	// remoteStealCap bounds one remote steal grant.
	remoteStealCap = 64
	// remoteStealBase/Max bound the randomized idle backoff between
	// remote steal rounds.
	remoteStealBase = 100 * time.Microsecond
	remoteStealMax  = 2 * time.Millisecond
)

// queueState holds the optional work-stealing run queue.
type queueState struct {
	workers  int
	deques   []*deque
	rr       atomic.Uint64 // round-robin enqueue cursor
	wake     chan struct{} // enqueue → parked-worker notification
	idle     atomic.Int64  // number of workers currently parked
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// EnableQueue switches the scheduler from goroutine-per-task to a
// bounded worker pool with work stealing. Must be called on every
// scheduler of the system before Start; workers is the number of
// executor goroutines per locality and must be positive.
func (s *Scheduler) EnableQueue(workers int) {
	if workers <= 0 {
		panic(fmt.Sprintf("sched: EnableQueue needs workers > 0, got %d", workers))
	}
	if s.queue != nil {
		panic("sched: EnableQueue called twice")
	}
	q := &queueState{
		workers: workers,
		deques:  make([]*deque, workers),
		wake:    make(chan struct{}, workers),
		stop:    make(chan struct{}),
	}
	reg := s.loc.Metrics()
	for w := range q.deques {
		q.deques[w] = newDeque(reg.Gauge(fmt.Sprintf("%s%d", MetricQueueDepthPrefix, w)))
	}
	s.queue = q
	// Give the policy the live queue signals of Algorithm 2 ("task
	// queue lengths and worker idle rates").
	if qb, ok := s.policy.(queueSignalBinder); ok {
		qb.BindQueueSignals(
			func() int64 { return s.queued.Load() },
			func() int64 { return q.idle.Load() },
		)
	}
	s.loc.Handle(methodSteal, func(from int, body []byte) ([]byte, error) {
		batch := s.stealForRemote(remoteStealCap)
		if len(batch) == 0 {
			return wire.Encode(&stealReply{})
		}
		reply := &stealReply{Specs: make([]TaskSpec, len(batch))}
		for i := range batch {
			batch[i].sp.End() // the task leaves this rank's queues
			s.trackHandoff(&batch[i].spec, from)
			reply.Specs[i] = batch[i].spec
		}
		s.stats.stolenFrom.Add(uint64(len(batch)))
		s.stats.stealBatch.ObserveValue(uint64(len(batch)))
		return wire.Encode(reply)
	})
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go s.worker(w)
	}
}

// StopQueue terminates the worker pool and waits for the workers to
// exit (used by tests; systems normally live for the process
// lifetime). It is idempotent. Tasks still queued are discarded —
// their promises fail when the locality closes — with their enqueue
// spans ended so the tracer reports no leaked spans.
func (s *Scheduler) StopQueue() {
	if s.queue == nil {
		return
	}
	s.queue.stopOnce.Do(func() { close(s.queue.stop) })
	s.queue.wg.Wait()
	s.drainQueues()
}

// AbortQueue signals the worker pool to stop without waiting for the
// workers: killing a locality must not block on workers that may be
// mid-task (their in-flight RPCs fail once the locality closes).
func (s *Scheduler) AbortQueue() {
	if s.queue == nil {
		return
	}
	s.queue.stopOnce.Do(func() { close(s.queue.stop) })
	s.drainQueues()
}

// drainQueues empties every deque, ending the enqueue spans, and
// returns the tasks it took out.
func (s *Scheduler) drainQueues() []queuedTask {
	var out []queuedTask
	for _, d := range s.queue.deques {
		for _, t := range d.drain() {
			t.sp.End()
			s.queued.Add(-1)
			out = append(out, t)
		}
	}
	return out
}

// StealStats reports (stolen-by-us, stolen-from-us) task counts.
func (s *Scheduler) StealStats() (uint64, uint64) {
	if s.queue == nil {
		return 0, 0
	}
	return s.stats.stolen.Value(), s.stats.stolenFrom.Value()
}

// enqueueAt pushes onto worker w's deque (round-robin when w < 0),
// beginning the task.enqueue span that measures queue residency, and
// wakes a parked worker if there is one. The queued counter is
// incremented before the idle check: together with the reverse order
// in worker parking (idle up, then queued check) this makes lost
// wakeups impossible.
func (s *Scheduler) enqueueAt(w int, spec *TaskSpec) {
	q := s.queue
	sp := s.loc.Tracer().Begin("task.enqueue", spec.Kind, trace.SpanID(spec.Span))
	sp.SetTask(spec.ID)
	if w < 0 {
		w = int(q.rr.Add(1) % uint64(q.workers))
	}
	q.deques[w].pushTail(queuedTask{spec: *spec, sp: sp})
	s.queued.Add(1)
	q.wakeIdle()
}

// wakeIdle signals one parked worker, if there is one.
func (q *queueState) wakeIdle() {
	if q.idle.Load() > 0 {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// stealForRemote drains up to half the queued tasks (capped at max)
// for a remote thief, sweeping deques head-first.
func (s *Scheduler) stealForRemote(max int) []queuedTask {
	q := s.queue
	if q == nil {
		return nil
	}
	total := int(s.queued.Load())
	if total <= 0 {
		return nil
	}
	want := (total + 1) / 2
	if want > max {
		want = max
	}
	var out []queuedTask
	for _, d := range q.deques {
		if len(out) >= want {
			break
		}
		if d.size.Load() == 0 {
			continue
		}
		out = append(out, d.stealHead(want-len(out))...)
	}
	if len(out) > 0 {
		s.queued.Add(-int64(len(out)))
	}
	return out
}

// QueueLen returns the number of queued, not yet started tasks.
func (s *Scheduler) QueueLen() int {
	if s.queue == nil {
		return 0
	}
	n := s.queued.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// runQueued ends the task's queue-residency span and executes it on
// worker w.
func (s *Scheduler) runQueued(t queuedTask, w int) {
	t.sp.End()
	s.executeNow(&t.spec, VariantProcess, w)
}

// popLocal takes the next queued task of this locality for worker w:
// its own deque LIFO, then a raid on a sibling's deque. The queued
// counter is adjusted for the returned task.
func (s *Scheduler) popLocal(w int) (queuedTask, bool) {
	if t, ok := s.queue.deques[w].popTail(); ok {
		s.queued.Add(-1)
		return t, true
	}
	return s.stealSiblings(w)
}

// worker is one executor goroutine: run local work, steal remotely,
// park.
func (s *Scheduler) worker(w int) {
	q := s.queue
	defer q.wg.Done()
	rng := rand.New(rand.NewSource(int64(s.Rank())*1669 + int64(w)))
	// Reusable randomized-exponential backoff for the remote-steal
	// retry wake-up (one timer per worker, no per-iteration allocs).
	bo := backoff.New(remoteStealBase, remoteStealMax, int64(s.Rank())*7919+int64(w))
	for {
		select {
		case <-q.stop:
			return
		default:
		}
		t, ok := s.popLocal(w)
		if !ok {
			t, ok = s.stealRemote(w, rng)
		}
		if ok {
			bo.Reset()
			s.runQueued(t, w)
			continue
		}
		// Nothing anywhere: park until an enqueue wakes us. The idle
		// increment happens before the queued re-check — the mirror of
		// enqueueAt's publication order — so a concurrent enqueue
		// either becomes visible to the re-check or sees idle > 0 and
		// signals the wake channel.
		q.idle.Add(1)
		if s.queued.Load() > 0 {
			q.idle.Add(-1)
			continue
		}
		idleStart := time.Now()
		if s.loc.Size() > 1 {
			// Peers may have work: also wake on a randomized backoff
			// to retry remote steals, doubling while idle persists.
			fired := false
			select {
			case <-q.stop:
				bo.Disarm(false)
				q.idle.Add(-1)
				return
			case <-q.wake:
			case <-bo.Arm():
				fired = true
			}
			bo.Disarm(fired)
		} else {
			select {
			case <-q.stop:
				q.idle.Add(-1)
				return
			case <-q.wake:
			}
		}
		q.idle.Add(-1)
		s.stats.workerIdleUs.Add(uint64(time.Since(idleStart).Microseconds()))
	}
}

// helpUntil is the helping join of queue mode: the task that occupies
// worker w waits for done (the future of a child it spawned), and
// until then the worker keeps serving the locality's run queue exactly
// as its loop would (popLocal), on top of the waiting task's stack.
// Without it the children could only run elsewhere: on a sibling if
// there is one, or on another locality once its thief comes round on
// its backoff — and on a single worker of a single locality never.
//
// With nothing to run the worker parks on the enqueue wake-up under
// the idle protocol of the worker loop. It does not steal remotely: a
// join that waits for remote children is woken by their fulfilment,
// not by importing unrelated work under a blocked task. Helped tasks
// may join in turn; the nesting is bounded by the tasks queued here.
// A stopping queue does not end the help: StopQueue waits for the
// workers, and a joiner whose children are queued here can only
// return by running them.
func (s *Scheduler) helpUntil(w int, done <-chan struct{}) {
	q := s.queue
	for {
		select {
		case <-done:
			// A wake-up consumed on the way out would strand its task
			// behind a parked sibling: pass it on.
			if s.queued.Load() > 0 {
				q.wakeIdle()
			}
			return
		default:
		}
		if t, ok := s.popLocal(w); ok {
			s.runQueued(t, w)
			continue
		}
		q.idle.Add(1)
		if s.queued.Load() > 0 {
			q.idle.Add(-1)
			continue
		}
		idleStart := time.Now()
		select {
		case <-done:
		case <-q.wake:
		}
		q.idle.Add(-1)
		s.stats.workerIdleUs.Add(uint64(time.Since(idleStart).Microseconds()))
	}
}

// stealSiblings raids the deque of another worker of this locality,
// scanning from w's right-hand neighbour, moving a batch into worker
// w's own deque and returning the first task for immediate execution.
// Intra-locality moves keep their enqueue spans running: the tasks
// never left this rank's queues.
func (s *Scheduler) stealSiblings(w int) (queuedTask, bool) {
	q := s.queue
	for off := 1; off < q.workers; off++ {
		v := (w + off) % q.workers
		if q.deques[v].size.Load() == 0 {
			continue
		}
		batch := q.deques[v].stealHead(localStealCap)
		if len(batch) == 0 {
			continue
		}
		self := q.deques[w]
		for _, t := range batch[1:] {
			self.pushTail(t)
		}
		s.queued.Add(-1) // only the task we are about to run left the queues
		return batch[0], true
	}
	return queuedTask{}, false
}

// stealRemote asks one random live peer for work. A granted batch is
// recorded task-by-task with task.steal spans; the first task is
// returned for immediate execution, the rest land in worker w's deque
// (waking parked siblings via the enqueue path).
func (s *Scheduler) stealRemote(w int, rng *rand.Rand) (queuedTask, bool) {
	if s.loc.Size() <= 1 {
		return queuedTask{}, false
	}
	// A draining or not-yet-joined rank does not pull work in: it is
	// leaving (or outside) the membership.
	if s.draining.Load() || !s.loc.IsMember(s.Rank()) {
		return queuedTask{}, false
	}
	victim := rng.Intn(s.loc.Size() - 1)
	if victim >= s.Rank() {
		victim++
	}
	// Dead, suspect and non-member peers fall through to the backoff —
	// no point hammering them.
	if s.loc.IsDead(victim) || s.loc.IsSuspect(victim) || !s.loc.IsMember(victim) {
		return queuedTask{}, false
	}
	s.stats.stealAttempts.Inc()
	// Bounded + retried with dedup: a granted steal whose reply frame
	// is lost is replayed instead of losing the batch.
	var reply stealReply
	err := s.loc.Call(victim, methodSteal, struct{}{}, &reply,
		runtime.WithSpec(s.loc.ControlSpec()))
	if err != nil || len(reply.Specs) == 0 {
		return queuedTask{}, false
	}
	s.stats.stolen.Add(uint64(len(reply.Specs)))
	tr := s.loc.Tracer()
	for i := range reply.Specs {
		spec := &reply.Specs[i]
		ssp := tr.Begin("task.steal", spec.Kind, trace.SpanID(spec.Span))
		ssp.SetTask(spec.ID)
		ssp.End()
		if i > 0 {
			s.enqueueAt(w, spec)
		}
	}
	return queuedTask{spec: reply.Specs[0]}, true
}
