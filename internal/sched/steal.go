package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"allscale/internal/backoff"
	"allscale/internal/dim"
	"allscale/internal/runtime"
	"allscale/internal/trace"
)

// This file implements node-local task queues with inter-node work
// stealing: "Enqueued tasks (Q) are stored within node-local queues
// at the locality where they have been created, yet may be stolen by
// other nodes. Running and blocked tasks (R and B) are equally
// maintained within node-local structures, but may not be moved to
// other nodes since their task-private state can not be migrated."
// (Section 3.2.)
//
// A task, whichever variant placement picked for it, is one object
// (task, sched.go); queued, it sits in a per-worker deque (see deque.go)
// until a worker pops it, and idle workers and idle peers may take it
// from there (only not-yet-started tasks move, matching the model). A
// child its spawner Calls is not queued: it runs at once on the
// spawner's worker. A task that waits for its children keeps its worker
// busy with the queue meanwhile (helpUntil), so a spawn tree on one
// worker is a depth-first recursion on that worker's stack.
//
// The data plane is tiered (DESIGN.md §6e): a worker pops its own
// deque LIFO, then raids sibling deques FIFO, and only then may send a
// peer a sched.steal hint. The hint is a one-way message without a
// body: a victim with surplus answers by shipping tasks to the thief
// like any placement (ship.go), one with nothing does not answer, and
// the thief's worker parks without waiting for either. Two rules keep
// this last tier from undoing placement and from costing messages when
// there is nothing to gain:
//
//   - the grant rule (stealForRemote): a victim hands out only tasks
//     that have no requirement on data it holds, and only from its
//     surplus over its idle workers;
//   - the probe rule (park): a worker asks a peer only right after a
//     steal that succeeded — a grant has arrived — or when its backoff
//     timer fires. An unanswered probe waits out its backoff; local work
//     does not rewind the backoff, an arrived grant does; a fresh worker
//     parks first.
//
// Parked workers — in their loop or in a join, both go dry through park
// — wait on a wake channel notified by enqueues (no polling) and, while
// peers exist, on the backoff timer.

const methodSteal = "sched.steal"

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

// queueState holds the work-stealing run queue.
type queueState struct {
	workers  int
	deques   []*deque
	thieves  []thiefState  // per worker, see park
	rr       atomic.Uint64 // round-robin enqueue cursor
	wake     chan struct{} // enqueue → parked-worker notification
	idle     atomic.Int64  // workers with nothing to run
	live     atomic.Int64  // workers whose goroutine has not returned
	granted  atomic.Bool   // a steal grant arrived (accept) that no dry worker has acted on yet
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// startQueue builds the per-worker deques, registers the steal-hint
// handler and starts the workers (New).
func (s *Scheduler) startQueue(workers int) {
	q := &queueState{
		workers: workers,
		deques:  make([]*deque, workers),
		thieves: make([]thiefState, workers),
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
	s.loc.HandleOneWay(methodSteal, func(from int, _ []byte) { s.grant(from) })
	q.live.Store(int64(workers))
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go s.worker(w)
	}
}

// StopQueue terminates the worker pool and waits for the workers to
// exit (used by tests; systems normally live for the process
// lifetime). It is idempotent. The last worker to return drops the
// tasks still queued (drop), with their enqueue spans ended so the
// tracer reports no leaked spans.
func (s *Scheduler) StopQueue() {
	s.queue.stopOnce.Do(func() { close(s.queue.stop) })
	s.queue.wg.Wait()
}

// AbortQueue signals the worker pool to stop without waiting for the
// workers: killing a locality must not block on workers that may be
// mid-task (their in-flight RPCs fail once the locality closes).
func (s *Scheduler) AbortQueue() {
	s.queue.stopOnce.Do(func() { close(s.queue.stop) })
	s.drop(s.drainQueues())
}

// drop makes tasks a stopping queue took out leave (leave.go says what
// becomes of their futures).
func (s *Scheduler) drop(ts []*task) {
	for _, t := range ts {
		s.leave(t, failed(fmt.Errorf("sched: rank %d stopped with task %d queued", s.Rank(), t.spec.ID)))
	}
}

// takeQueued takes up to max queued tasks that match (deque.takeIf) out
// of the deques: whatever the reason — a grant, a cancel, a drain, a stop
// — they leave this rank's queues here, so their enqueue spans end and
// the queued counter drops.
func (s *Scheduler) takeQueued(max int, match func(*TaskSpec) bool) []*task {
	var out []*task
	for _, d := range s.queue.deques {
		if len(out) < max && d.size.Load() > 0 {
			out = append(out, d.takeIf(max-len(out), match)...)
		}
	}
	for i := range out {
		out[i].sp.End()
	}
	s.queued.Add(-int64(len(out)))
	return out
}

// drainQueues empties every deque and returns the tasks it took out.
func (s *Scheduler) drainQueues() []*task { return s.takeQueued(math.MaxInt, nil) }

// enqueueAt pushes onto worker w's deque (round-robin when w < 0),
// beginning the task.enqueue span that measures queue residency, and
// wakes a parked worker if there is one. The queued counter goes up
// before the idle check: with the reverse order in park (idle up, then
// queued check) this makes lost wakeups impossible.
//
// A stopping queue's workers still run what their joins need, but once
// the last of them has returned nothing runs a queued task: one queued
// then is taken out again and dropped. The check follows the push and
// the last worker drains after it leaves, so one of the two finds it.
func (s *Scheduler) enqueueAt(w int, t *task) {
	q := s.queue
	t.sp = s.loc.Tracer().Begin("task.enqueue", t.spec.Kind, trace.SpanID(t.spec.Span))
	t.sp.SetTask(t.spec.ID)
	if w < 0 {
		w = int(q.rr.Add(1) % uint64(q.workers))
	}
	q.deques[w].pushTail(t)
	s.queued.Add(1)
	if q.live.Load() == 0 {
		s.drop(s.takeQueued(1, func(spec *TaskSpec) bool { return spec == &t.spec }))
		return
	}
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

// grant answers a thief's steal hint: what stealForRemote lets go is
// shipped to the thief, marked as granted; with nothing to spare there
// is no answer. The counters move before the ship so that they are
// never behind what the thief has already run.
func (s *Scheduler) grant(thief int) {
	batch := s.stealForRemote(remoteStealCap)
	if len(batch) == 0 {
		return
	}
	s.stats.stolenFrom.Add(uint64(len(batch)))
	s.stats.stealBatch.ObserveValue(uint64(len(batch)))
	s.ship(thief, true, batch...)
}

// stealForRemote takes up to half the locality's surplus (capped at
// max) out of the deques for a remote thief, oldest first. The surplus
// is what is queued beyond the idle workers: a task one of them has
// just been woken for is spoken for, not spare. Only stealable tasks
// leave.
func (s *Scheduler) stealForRemote(max int) []*task {
	surplus := int(s.queued.Load() - s.queue.idle.Load())
	return s.takeQueued(min(max, (surplus+1)/2), s.stealable)
}

// stealable reports whether a queued task may be granted to a remote
// thief: not when it has a requirement on data this rank holds.
// Placement put such a task where its data is (Algorithm 2), and a
// thief would drag the data after it. Tasks without requirements and
// first-touch tasks, whose data nobody holds yet, are bound to nothing
// and balance by stealing. Reqs speaks for the task's whole range, so a
// queued split leaves or stays with its subtree.
func (s *Scheduler) stealable(spec *TaskSpec) bool {
	return !s.anyReq(spec, func(rq dim.Requirement) bool {
		cov, err := s.mgr.Coverage(rq.Item)
		return err == nil && !cov.Intersect(rq.Region).IsEmpty()
	})
}

// anyReq reports whether match selects one of the non-empty
// requirements the task's kind declares for its arguments — all the
// runtime knows about the data a task touches. A task of an unknown
// kind declares none.
func (s *Scheduler) anyReq(spec *TaskSpec, match func(dim.Requirement) bool) bool {
	k, err := s.kind(spec.Kind)
	if err != nil || k.Reqs == nil {
		return false
	}
	for _, rq := range k.Reqs(spec.Args) {
		if !rq.Region.IsEmpty() && match(rq) {
			return true
		}
	}
	return false
}

// QueueLen returns the number of queued, not yet started tasks.
func (s *Scheduler) QueueLen() int {
	n := s.queued.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// runQueued ends the task's queue-residency span and executes it on
// worker w.
func (s *Scheduler) runQueued(t *task, w int) {
	t.sp.End()
	s.executeNow(t, w)
}

// popLocal takes the next queued task of this locality for worker w:
// its own deque LIFO, then a raid on a sibling's deque; nil when there
// is none. The queued counter is adjusted for the returned task.
func (s *Scheduler) popLocal(w int) *task {
	if t := s.queue.deques[w].popTail(); t != nil {
		s.queued.Add(-1)
		return t
	}
	return s.stealSiblings(w)
}

// worker is one executor goroutine: run local work, go dry, park. The
// last worker to return after a stop drops what is still queued.
func (s *Scheduler) worker(w int) {
	defer s.queue.wg.Done()
	defer func() {
		if s.queue.live.Add(-1) == 0 {
			s.drop(s.drainQueues())
		}
	}()
	th := &s.queue.thieves[w]
	th.rng = rand.New(rand.NewSource(int64(s.Rank())*1669 + int64(w)))
	th.bo = backoff.New(remoteStealBase, remoteStealMax, int64(s.Rank())*7919+int64(w))
	th.bo.Saturate()
	for !s.stopping() {
		if t := s.popLocal(w); t != nil {
			s.runQueued(t, w)
		} else if s.park(w, s.queue.stop) {
			return
		}
	}
}

// helpUntil is the helping join: the task that occupies worker w waits
// for fut (a child it spawned), and until then the worker keeps serving
// the locality's run queue exactly as its loop would — popLocal, then
// park — on top of the waiting task's stack. Without it the children
// could only run elsewhere: on a sibling if there is one, or on another
// locality once its thief comes round on its backoff — and on a single
// worker of a single locality never.
//
// A child the worker has run by the time of the join — one it Called,
// or one it popped helping — is done before anyone blocks on it, so the
// join polls Done and asks the future for a channel only to park. A
// parked join stays a thief: the rank that spawned a tree sits in its
// root join for as long as the remote half runs. Helped tasks may join
// in turn; the nesting is bounded by the tasks queued here, and a join
// under a task it helped returns when that task does. A stopping queue
// does not end the help: StopQueue waits for the workers, and a joiner
// whose children are queued here can only return by running them.
func (s *Scheduler) helpUntil(w int, fut *runtime.Future) {
	for !fut.Done() {
		if t := s.popLocal(w); t != nil {
			s.runQueued(t, w)
		} else {
			s.park(w, fut.Ready())
		}
	}
	// A wake-up consumed on the way out would strand its task behind a
	// parked sibling: pass it on.
	if s.queued.Load() > 0 {
		s.queue.wakeIdle()
	}
}

// thiefState is what one worker knows as a thief, set up and touched
// only by the goroutine that occupies the worker — its loop, or a join
// on top of it.
type thiefState struct {
	rng *rand.Rand
	// bo backs off the remote-steal wake-up. Only a successful steal
	// rewinds it: while the peers have nothing to give, a worker kept
	// busy by local work asks them no more often than one that sits idle.
	bo *backoff.Timer
	// probe allows the next dry spell one hint to a peer: the backoff
	// timer sets it, as does a grant that has arrived. A fresh worker
	// starts without it, backed off all the way, and parks first.
	probe bool
}

// park is what worker w does with nothing to run, in its loop or in a
// join: hint a peer if the probe rule allows, then wait for an enqueue,
// the backoff timer, or end — the queue's stop for the loop, the
// future's fulfilment for a join. It reports whether end came.
func (s *Scheduler) park(w int, end <-chan struct{}) (ended bool) {
	q, th := s.queue, &s.queue.thieves[w]
	// From now on the worker counts as idle. The idle increment happens
	// before the queued re-check — the mirror of enqueueAt's publication
	// order — so a concurrent enqueue either becomes visible to the
	// re-check or sees idle > 0 and signals the wake channel.
	q.idle.Add(1)
	defer q.idle.Add(-1)
	if s.queued.Load() > 0 {
		return false
	}
	// A grant has arrived and been run dry: the steal succeeded, so the
	// victim had surplus a moment ago. One worker acts on it.
	if q.granted.Load() && q.granted.CompareAndSwap(true, false) {
		th.bo.Reset()
		th.probe = true
	}
	if th.probe {
		th.probe = false
		s.probePeer(th.rng)
	}
	idleStart := time.Now()
	// Peers may have work: also wake on the backoff timer, which doubles
	// while the probes it allows stay unanswered. A lone locality has
	// nobody to ask (a nil channel never fires).
	var timer <-chan time.Time
	if s.loc.Size() > 1 {
		timer = th.bo.Arm()
	}
	select {
	case <-end:
		ended = true
	case <-q.wake:
	case <-timer:
		th.probe = true
	}
	th.bo.Disarm(th.probe)
	s.stats.workerIdleUs.Add(uint64(time.Since(idleStart).Microseconds()))
	return ended
}

// stealSiblings raids the deque of another worker of this locality,
// scanning from w's right-hand neighbour, moving a batch into worker
// w's own deque and returning the first task for immediate execution
// (nil when no sibling has one).
// Intra-locality moves keep their enqueue spans running: the tasks
// never left this rank's queues.
func (s *Scheduler) stealSiblings(w int) *task {
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
		return batch[0]
	}
	return nil
}

// probePeer sends one steal hint to a peer drawn at random among the
// ranks that could have work — the placeable ones — and does not wait:
// what the victim grants arrives as a ship (accept).
func (s *Scheduler) probePeer(rng *rand.Rand) {
	// A draining or not-yet-joined rank does not pull work in: it is
	// leaving (or outside) the membership.
	if !s.placeable(s.Rank()) {
		return
	}
	var peers []int
	for r := 0; r < s.loc.Size(); r++ {
		if r != s.Rank() && s.placeable(r) {
			peers = append(peers, r)
		}
	}
	if len(peers) == 0 {
		return
	}
	s.stats.stealAttempts.Inc()
	// A hint that is lost is a probe that found nothing.
	_ = s.loc.Send(peers[rng.Intn(len(peers))], methodSteal, nil)
}
