package sched

import (
	"math"
	"sync"
	"time"

	"allscale/internal/dim"
	"allscale/internal/runtime"
	"allscale/internal/trace"
)

// The one way a task changes rank (DESIGN.md §6e "Shipping"). Whatever
// hands a task to a peer — assign placing it, a drain forwarding it, a
// victim granting it to a thief — calls ship: the task leaves this rank
// (leave names its future), is entered in the inflight registry
// (recovery.go) and appended to the peer's shipper, where placements
// coalesce into sched.runb frames of up to maxShipBatch tasks, so a
// burst of fine-grained remote spawns crosses the fabric as a few large
// frames.
//
// A ship is one call. It has no deadline and no retry limit: the RPC
// layer resends the identical frame under the same call ID until the
// target answers or is declared failed, and its dedup window
// (runtime/dedup.go) runs the handler once however many copies arrive.
// It is ack-only: the answer is a bare ack that rides on a later frame
// the target sends here (runtime/acks.go). That leaves a ship two
// outcomes: acknowledged, or given up by the RPC layer — then, and only
// then, the tasks run here, each arbitrated against the recovery
// coordinator via takeInflight.

// methodRunBatch is the only message whose payload holds a TaskSpec.
const methodRunBatch = "sched.runb"

// runBatch is the wire envelope of one coalesced frame.
type runBatch struct {
	Tasks []runArgs
}

const (
	// maxShipBatch bounds the tasks coalesced into one frame.
	maxShipBatch = 64
	// shipResendMax caps the doubling resend interval of an unanswered
	// ship, so a live-but-unreachable peer (asymmetric partition) is
	// probed, not hammered, until the failure detector declares it dead.
	shipResendMax = 2 * time.Second
)

// shipper is the per-destination coalescing buffer.
type shipper struct {
	mu      sync.Mutex
	pending []runArgs
	active  bool
}

// shipSpec is the delivery policy of a ship: resent from the control
// profile's attempt interval on, never abandoned. The interval is set
// explicitly — CallSpec.normalize would derive it from Retries+1.
func (s *Scheduler) shipSpec() runtime.CallSpec {
	attempt := s.loc.ControlSpec().Attempt
	if attempt <= 0 {
		attempt = time.Second
	}
	return runtime.CallSpec{Attempt: attempt, Retries: math.MaxInt, MaxBackoff: max(attempt, shipResendMax)}
}

// ship hands tasks to the target, marked as granted or not. The first
// appender of an idle shipper becomes its flusher; tasks arriving while a
// flush is encoding or awaiting the send path coalesce into the next
// batch.
func (s *Scheduler) ship(target int, granted bool, ts ...*task) {
	items := make([]runArgs, len(ts))
	for i, t := range ts {
		s.leave(t, shipped)
		items[i] = runArgs{Spec: t.spec, Variant: t.variant, Granted: granted, Carried: t.carry}
	}
	s.trackInflight(target, items)
	sh := &s.shippers[target]
	sh.mu.Lock()
	sh.pending = append(sh.pending, items...)
	spawn := !sh.active
	sh.active = true
	sh.mu.Unlock()
	if spawn {
		s.loc.Go(func() { s.shipLoop(target) })
	}
}

// shipLoop drains the shipper until it runs dry, sending chunks of at
// most maxShipBatch tasks and confirming each asynchronously.
func (s *Scheduler) shipLoop(target int) {
	sh := &s.shippers[target]
	spec := runtime.WithSpec(s.shipSpec())
	for {
		sh.mu.Lock()
		if len(sh.pending) == 0 {
			sh.active = false
			sh.mu.Unlock()
			return
		}
		batch := sh.pending
		sh.pending = nil
		sh.mu.Unlock()
		for len(batch) > 0 {
			n := min(len(batch), maxShipBatch)
			chunk := batch[:n:n]
			batch = batch[n:]
			s.stats.shipBatch.ObserveValue(uint64(n))
			fut := s.loc.CallAsync(target, methodRunBatch, &runBatch{Tasks: chunk}, spec, runtime.AckOnly())
			s.loc.Go(func() { s.confirmShip(target, chunk, fut) })
		}
	}
}

// confirmShip waits for a batch's call to resolve. An answer is the
// acceptance ack (execution continues asynchronously at the target).
// An error is the RPC layer's verdict that the target will not run the
// frame — declared failed, link broken, frame refused by the transport
// or rejected undecoded — so the tasks may run here; takeInflight
// yields to a recovery coordinator, or a cancel, that has already taken
// a task over. There is no timeout to handle: a ship has no deadline.
// The pins the batch carried are settled first, without a refresh.
func (s *Scheduler) confirmShip(target int, batch []runArgs, fut *runtime.Future) {
	if _, err := fut.Wait(); err == nil || s.loc.Closed() {
		return
	}
	for i := range batch {
		s.mgr.SettleCarried(target, batch[i].Carried)
	}
	for i := range batch {
		if s.takeInflight(batch[i].Spec.ID) {
			s.stats.localPlaced.Inc()
			s.enqueueAt(-1, &task{spec: batch[i].Spec, variant: batch[i].Variant})
		}
	}
}

// accept takes in the tasks of one arrived frame: the receiving half of
// ship. The evictions the tasks carry from their origin `from` become
// their claims here; a frame with one that does not fit is refused whole,
// and its sender runs the tasks itself. A granted task is a steal that
// succeeded: it is counted before it is enqueued, so whoever observes the
// task's effect observes the count, and the first of a frame raises the
// flag that allows the next dry worker a probe (the probe rule, steal.go).
func (s *Scheduler) accept(from int, tasks []runArgs) error {
	if err := s.mgr.TakeCarried(from, len(tasks), func(i int) (uint64, []dim.Carried) {
		return tasks[i].Spec.ID, tasks[i].Carried
	}); err != nil {
		return err
	}
	// A task that arrives here is no longer where this rank may once
	// have sent it: without this, a task shipped out and taken back
	// would be respawned when its former host died.
	s.clearInflight(tasks)
	flagged := false
	for i := range tasks {
		t := &task{spec: tasks[i].Spec, variant: tasks[i].Variant, claimed: len(tasks[i].Carried) > 0}
		if !s.placeable(s.Rank()) {
			// A frame that raced the drain's placement pause is accepted
			// (the ack stops the sender's resends) but forwarded instead
			// of kept: the rank admits no new work.
			s.forward(t)
			continue
		}
		if tasks[i].Granted {
			s.stats.stolen.Inc()
			if !flagged {
				flagged = true
				s.queue.granted.Store(true)
			}
			ssp := s.loc.Tracer().Begin("task.steal", t.spec.Kind, trace.SpanID(t.spec.Span))
			ssp.SetTask(t.spec.ID)
			ssp.End()
		}
		s.enqueueAt(-1, t)
	}
	return nil
}
