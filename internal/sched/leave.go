package sched

// A task's one way out (DESIGN.md §6e "One way out"). Whatever ends a
// task's stay on this rank calls leave, and only leave resolves a task's
// future, releases what it holds in the DIM — the claims a shipped writer
// brought here, its acquisition's locks and pins — and names its promise.
// It ran (executeNow); it failed without running — its job cancelled (the
// gate, CancelJob), dropped by a stopping queue, lost with a dead rank
// (Recover); or it was shipped to a peer (assign, forward, grant). A future is resolved in place while its task has not left the
// rank it was spawned on, and by name once it has, with one exception: a
// named task that fails once the queue is stopping — the stop's own drop,
// chiefly — is left unresolved. This rank is being closed or killed, and
// the spawner's rank resolves it: its Close fails every named future it
// holds, and recovery respawns or fails a task lost with a killed rank
// from the inflight entry of whoever shipped it there.

// exit is one of a task's three ways off this rank.
type exit uint8

const (
	exitRan exit = iota
	exitFailed
	exitShipped
)

// outcome is how a task leaves: what ran returned, why it failed, or
// that ship sends it to a peer.
type outcome struct {
	exit   exit
	result any
	err    error
}

func ran(result any, err error) outcome { return outcome{exit: exitRan, result: result, err: err} }

func failed(err error) outcome { return outcome{exit: exitFailed, err: err} }

// shipped is the outcome of a task that ship hands to a peer, which then
// holds the task and answers its future by name.
var shipped = outcome{exit: exitShipped}

// leave ends t's stay on this rank with outcome o.
func (s *Scheduler) leave(t *task, o outcome) {
	if t.holds {
		t.holds = false
		s.mgr.Release(t.spec.ID)
	}
	switch {
	case o.exit == exitShipped:
		if !t.named() {
			t.spec.Promise = s.loc.NamePromise(&t.fut)
		}
	case !t.named():
		t.fut.Fulfill(o.result, o.err)
	case o.exit == exitFailed && s.stopping():
		// Named, and failed on a stopping rank: see above.
	default:
		s.loc.FulfillRemote(t.spec.Promise, o.result, o.err)
	}
}

// stopping reports whether the queue has been told to stop.
func (s *Scheduler) stopping() bool {
	select {
	case <-s.queue.stop:
		return true
	default:
		return false
	}
}
