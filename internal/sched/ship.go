package sched

import (
	"sync"

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
// A ship is one call. It has no deadline: the link to the target
// (runtime/link.go) resends the frame until the target acks it and
// delivers it once, however many copies arrive. It is ack-only: the
// answer is the link's ack, which rides on a later frame the target
// sends here. That leaves a ship two outcomes: acknowledged, or failed
// by the RPC layer — then, and only then, the tasks run here, each
// arbitrated against the recovery coordinator via takeInflight.

// methodRunBatch is the only message whose payload holds a TaskSpec.
const methodRunBatch = "sched.runb"

// runBatch is the wire envelope of one coalesced frame.
type runBatch struct {
	Tasks []runArgs
}

// maxShipBatch bounds the tasks coalesced into one frame.
const maxShipBatch = 64

// shipper is the per-destination coalescing buffer.
type shipper struct {
	mu      sync.Mutex
	pending []runArgs
	active  bool
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
// most maxShipBatch tasks; each chunk's fate comes back through its
// future, with no goroutine waiting for it.
func (s *Scheduler) shipLoop(target int) {
	sh := &s.shippers[target]
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
			s.loc.CallAsync(target, methodRunBatch, &runBatch{Tasks: chunk}, runtime.AckOnly()).OnDone(func(err error) {
				if err != nil && !s.loc.Closed() {
					s.loc.Go(func() { s.shipFailed(target, chunk) })
				}
			})
		}
	}
}

// shipFailed takes back a batch whose call failed. An answer would have
// been the acceptance ack (execution continues asynchronously at the
// target); an error is the RPC layer's verdict that the target will not
// run the frame — declared failed, link broken, or the frame refused —
// so the tasks may run here; takeInflight yields to a recovery
// coordinator, or a cancel, that has already taken a task over. There
// is no timeout to handle: a ship has no deadline. The pins the batch
// carried are settled first, without a refresh.
func (s *Scheduler) shipFailed(target int, batch []runArgs) {
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
// ship. It runs on the delivery goroutine (HandleInline): what would wait
// or send is handed to a goroutine of its own. The evictions the tasks
// carry from their origin `from` become their claims here; a frame with
// one that does not fit is refused whole, and its sender runs the tasks
// itself. A granted task is a steal that succeeded: it is counted before
// it is enqueued, so whoever observes the task's effect observes the
// count, and the first of a frame raises the flag that allows the next
// dry worker a probe (the probe rule, steal.go).
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
		t := &task{spec: tasks[i].Spec, variant: tasks[i].Variant, holds: len(tasks[i].Carried) > 0}
		if !s.placeable(s.Rank()) {
			// A frame that raced the drain's placement pause is accepted
			// (the ack stops the sender's resends) but forwarded instead
			// of kept: the rank admits no new work.
			s.loc.Go(func() { s.forward(t) })
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
