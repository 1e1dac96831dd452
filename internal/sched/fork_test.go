package sched

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/runtime"
	"allscale/internal/wire"
)

// forkTree is "fsum", the sum of [Lo, Hi) by forks: splits as deep as
// the policy allows, then leaves that add their integers one by one.
// While hold is set, a leaf on rank holdRank reports on started and
// blocks until hold is closed. leaves counts the leaves each worker of
// each rank ran.
type forkTree struct {
	hold     atomic.Pointer[chan struct{}]
	holdRank int
	started  chan struct{} // buffered beyond the held leaves: none blocks on it
	leaves   [2][4]atomic.Int64
}

func registerForkTree(c *cluster) *forkTree {
	ft := &forkTree{started: make(chan struct{}, 64)}
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "fsum",
			Split: func(ctx *Ctx) (any, error) {
				var r sumRange
				if err := ctx.Args(&r); err != nil {
					return nil, err
				}
				mid := (r.Lo + r.Hi) / 2
				lb, rb, err := ctx.Fork("fsum", &sumRange{r.Lo, mid}, &sumRange{mid, r.Hi})
				if err != nil {
					return nil, err
				}
				var a, b int64
				if err := wire.Decode(lb, &a); err != nil {
					return nil, err
				}
				if err := wire.Decode(rb, &b); err != nil {
					return nil, err
				}
				return a + b, nil
			},
			Process: func(ctx *Ctx) (any, error) {
				if h := ft.hold.Load(); h != nil && ctx.Rank() == ft.holdRank {
					ft.started <- struct{}{}
					<-*h
				}
				ft.leaves[ctx.Rank()][ctx.worker].Add(1)
				var r sumRange
				if err := ctx.Args(&r); err != nil {
					return nil, err
				}
				var s int64
				for i := r.Lo; i < r.Hi; i++ {
					s += i
				}
				return s, nil
			},
		}
	})
	return ft
}

// holdLeaves makes the leaves on rank block from now on; the returned
// function lets them go. It is also a test cleanup, which runs before
// the cluster's StopQueue.
func (ft *forkTree) holdLeaves(t *testing.T, rank int) (release func()) {
	h := make(chan struct{})
	ft.holdRank = rank
	ft.hold.Store(&h)
	done := false
	release = func() {
		if !done {
			done = true
			ft.hold.Store(nil)
			close(h)
		}
	}
	t.Cleanup(release)
	return release
}

// sumOf is the sum of [0, n).
func sumOf(n int64) int64 { return n * (n - 1) / 2 }

// forkRange is the range of the trees below: 512 leaves of 2 048
// integers under an ExtraDepth of 8 on 2 ranks.
const forkRange = 1 << 20

// runTree spawns one tree over [0, forkRange) at s and checks its sum.
func runTree(t *testing.T, s *Scheduler) {
	t.Helper()
	fut, err := s.Spawn("fsum", &sumRange{0, forkRange})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitResolved(t, "a tree", fut); err != nil {
		t.Fatal(err)
	}
	var sum int64
	if err := fut.WaitInto(&sum); err != nil || sum != sumOf(forkRange) {
		t.Fatalf("tree sum %d (%v), want %d", sum, err, sumOf(forkRange))
	}
}

// TestForkFrameReuse: a fork's frame goes back to its worker's free
// list once both children's futures have settled, and is handed out
// again zeroed — nothing wrote into it while it was free. Each subtest
// makes the children of forks leave their frame's worker one way —
// taken by a sibling worker, granted to a peer's thief, shipped, purged
// by a cancel while queued, lost with a killed rank and recovered — and
// every tree's result must be exact. A frame's future fulfilled by a
// worker, a fulfilment handler, a cancel, an abort or Close that still
// touched it once its fork had seen it settled would show as a dirty
// frame, a wrong sum, or a race report under -race.
func TestForkFrameReuse(t *testing.T) {
	var reused, dirty atomic.Int64
	forkReused = func(fr *fork) {
		reused.Add(1)
		if !reflect.ValueOf(fr).Elem().IsZero() {
			dirty.Add(1)
		}
	}
	t.Cleanup(func() { forkReused = nil })
	check := func(t *testing.T) {
		t.Helper()
		if dirty.Load() != 0 {
			t.Fatalf("%d of %d frames handed out again were not zero", dirty.Load(), reused.Load())
		}
		if reused.Load() == 0 {
			t.Fatal("no frame was handed out again")
		}
	}

	t.Run("sibling and peer", func(t *testing.T) {
		c := newCluster(t, 2, 4, &LocalPolicy{ExtraDepth: 8})
		ft := registerForkTree(c)
		c.start()
		s0, s1 := c.scheds[0], c.scheds[1]
		// Rank 0's workers raid each other's deques; rank 1's are thieves
		// that rank 0 grants queued children to.
		siblings := func() (n int) {
			for w := range ft.leaves[0] {
				if ft.leaves[0][w].Load() > 0 {
					n++
				}
			}
			return n
		}
		deadline := time.Now().Add(joinDeadline)
		for siblings() < 2 || counter(s1, MetricSteals) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("after %v: leaves ran on %d of rank 0's workers, %d tasks granted to rank 1",
					joinDeadline, siblings(), counter(s1, MetricSteals))
			}
			runTree(t, s0)
		}
		check(t)
	})

	t.Run("shipped", func(t *testing.T) {
		c := newCluster(t, 2, 4, &DefaultPolicy{ExtraDepth: 8})
		registerForkTree(c)
		c.start()
		for range 20 {
			runTree(t, c.scheds[0])
		}
		if counter(c.scheds[0], MetricRemotePlaced) == 0 {
			t.Fatal("no child was shipped")
		}
		check(t)
	})

	t.Run("cancelled while queued", func(t *testing.T) {
		c := newCluster(t, 2, 4, &LocalPolicy{ExtraDepth: 8})
		ft := registerForkTree(c)
		c.start()
		s0 := c.scheds[0]
		holdThieves(c.scheds[1])
		runTree(t, s0)
		// Every worker of rank 0 is held in a leaf below a chain of forks
		// whose right children are queued; the cancel fails them.
		release := ft.holdLeaves(t, 0)
		fut, err := s0.SpawnJob("fsum", &sumRange{0, forkRange}, 1, 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		for range s0.queue.workers {
			<-ft.started
		}
		if s0.QueueLen() == 0 {
			t.Fatal("nothing queued below the held leaves")
		}
		s0.CancelJob(9)
		checkQueued(t, s0, 0)
		release()
		if err := waitResolved(t, "the cancelled tree", fut); !IsJobCancelled(err) {
			t.Fatalf("cancelled tree: err = %v, want job-cancelled error", err)
		}
		for range 5 {
			runTree(t, s0)
		}
		check(t)
	})

	t.Run("recovered after kill", func(t *testing.T) {
		c := newCluster(t, 2, 4, &DefaultPolicy{ExtraDepth: 8})
		ft := registerForkTree(c)
		c.start()
		s0, s1 := c.scheds[0], c.scheds[1]
		runTree(t, s0)
		// Rank 1 holds its half of the tree in leaves; then it dies, and
		// rank 0 does what the recovery coordinator does: the half it
		// shipped there runs again here.
		release := ft.holdLeaves(t, 1)
		fut, err := s0.Spawn("fsum", &sumRange{0, forkRange})
		if err != nil {
			t.Fatal(err)
		}
		<-ft.started
		s1.AbortQueue()
		c.sys.Locality(1).Close()
		s0.loc.SetPeer(1, runtime.Dead, 0)
		recovered := 0
		for _, spec := range s0.HandleDeath(1) {
			if s0.loc.PromisePending(spec.Promise) && s0.Recover(spec, 1) {
				recovered++
			}
		}
		release()
		if recovered == 0 {
			t.Fatal("no task was lost with rank 1")
		}
		if err := waitResolved(t, "the recovered tree", fut); err != nil {
			t.Fatal(err)
		}
		var sum int64
		if err := fut.WaitInto(&sum); err != nil || sum != sumOf(forkRange) {
			t.Fatalf("recovered tree sum %d (%v), want %d", sum, err, sumOf(forkRange))
		}
		for range 5 {
			runTree(t, s0)
		}
		check(t)
	})
}
