package sched

import (
	goruntime "runtime"

	"allscale/internal/runtime"
)

// fork is the frame of one Fork (DESIGN.md §6e "A split is one fork"):
// its two children, each a task with its future and context. A worker
// takes frames from its own free list and puts one back once both
// futures have settled — fulfilled, and let go of by whoever fulfilled
// them. Nothing the runtime keeps after a fulfilment points into a
// frame: a name leaves the promise table before it is fulfilled, and
// what ships a task keeps a copy of its spec.
type fork struct {
	kids [2]task
}

// forkReused, when set (tests), sees every frame a free list hands out
// again.
var forkReused func(*fork)

// Fork runs two children of kind, with arguments left and right, and
// joins them, returning their encoded results: the one binary
// fork-join of a split. The right child is placed first — queued on this
// worker's deque, where a sibling or a peer's thief may take it, or
// shipped — and the left one then runs at once on this worker where
// placement keeps it, through no deque slot. The join helps (HelpWait),
// and waits for the right child even after the left one failed, so an
// error return still implies a quiesced subtree; the left child's error
// comes first.
func (c *Ctx) Fork(kind string, left, right any) (l, r []byte, err error) {
	s, w := c.sched, c.worker
	fr := s.takeFork(w)
	lt, rt := &fr.kids[0], &fr.kids[1]
	c.child(lt, 0)
	c.child(rt, 1)
	if _, err := s.spawnAt(rt, w, false, kind, right, c.span); err != nil {
		s.putFork(w, fr) // placed nowhere: nothing else holds the frame
		return nil, nil, err
	}
	runNow, lerr := s.spawnAt(lt, w, true, kind, left, c.span)
	if lerr == nil {
		if runNow {
			s.executeNow(lt, w)
		}
		l, lerr = s.join(w, &lt.fut)
	}
	r, rerr := s.join(w, &rt.fut)
	s.putFork(w, fr)
	if lerr != nil {
		return nil, nil, lerr
	}
	if rerr != nil {
		return nil, nil, rerr
	}
	return l, r, nil
}

// join waits, helping on worker w, for a fork's child and then for its
// fulfiller to let go of the future.
func (s *Scheduler) join(w int, f *runtime.Future) ([]byte, error) {
	s.helpUntil(w, f)
	for !f.Settled() {
		goruntime.Gosched()
	}
	return f.Wait()
}

// takeFork and putFork are worker w's free list of zeroed frames.
func (s *Scheduler) takeFork(w int) *fork {
	ws := &s.queue.local[w]
	n := len(ws.forks)
	if n == 0 {
		return new(fork)
	}
	fr := ws.forks[n-1]
	ws.forks = ws.forks[:n-1]
	if forkReused != nil {
		forkReused(fr)
	}
	return fr
}

func (s *Scheduler) putFork(w int, fr *fork) {
	*fr = fork{}
	s.queue.local[w].forks = append(s.queue.local[w].forks, fr)
}
