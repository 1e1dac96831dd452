package sched

import (
	"testing"
	"time"

	"allscale/internal/runtime"
)

// A task's future is named — entered in its rank's promise table — only
// when the task leaves that rank (ship.go); one that stays is resolved
// in place (executeNow, dropQueued, failCancelled). The tests below walk
// every exit a task spawned here can take and check that its spawner's
// future still resolves: each of the first four hangs if ship skips the
// naming, each of the dropping ones if the drop skips the in-place
// fulfilment.

// named reads rank s's runtime.promises_named counter.
func named(s *Scheduler) uint64 { return counter(s, runtime.MetricPromisesNamed) }

// waitResolved waits for fut within joinDeadline and returns its error.
func waitResolved(t *testing.T, what string, fut *runtime.Future) error {
	t.Helper()
	select {
	case <-fut.Ready():
	case <-time.After(joinDeadline):
		t.Fatalf("%s still unresolved after %v", what, joinDeadline)
	}
	_, err := fut.Wait()
	return err
}

// TestFailedSpawnNamesNoPromise: a spawn that placement refuses (an
// unknown kind) leaves nothing behind. At the parent commit every spawn
// stored its promise before placement, and a refused one was never
// removed: the table grew by one entry per failed spawn.
func TestFailedSpawnNamesNoPromise(t *testing.T) {
	c := newCluster(t, 1, 1, &DefaultPolicy{})
	registerSum(c)
	c.start()
	s := c.scheds[0]
	for i := 0; i < 1000; i++ {
		if _, err := s.Spawn("unknown", &sumRange{0, 3}); err == nil {
			t.Fatal("spawn of an unknown kind succeeded")
		}
	}
	if got := named(s); got != 0 {
		t.Fatalf("1000 failed spawns named %d promises, want 0", got)
	}
}

// TestGrantedTaskResolvesItsSpawner: a task queued where it was spawned
// and granted to a thief is named by the grant's ship.
func TestGrantedTaskResolvesItsSpawner(t *testing.T) {
	c := newCluster(t, 2, 1, &LocalPolicy{})
	registerSum(c)
	started, release := registerGate(t, c)
	c.start()
	s0, s1 := c.scheds[0], c.scheds[1]
	holdThieves(s1)
	occupyWorkers(t, s0, started)
	fut, err := s0.Spawn("sum", &sumRange{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	checkQueued(t, s0, 1)
	if got := named(s0); got != 0 {
		t.Fatalf("a queued local task named %d promises, want 0", got)
	}
	s1.loc.SetPeer(s1.Rank(), runtime.Member, 0) // rank 1's worker probes rank 0 on its timer
	if err := waitResolved(t, "the granted task's future", fut); err != nil {
		t.Fatal(err)
	}
	var sum int64
	fut.WaitInto(&sum)
	release()
	if sum != 3 || counter(s1, MetricSteals) != 1 {
		t.Fatalf("sum %d, %d tasks stolen by rank 1, want 3 and 1", sum, counter(s1, MetricSteals))
	}
	if got := named(s0); got != 1 {
		t.Fatalf("the grant named %d promises, want 1", got)
	}
}

// TestForwardedTaskResolvesItsSpawner: a drain's RedistributeQueued
// names the queued task it forwards.
func TestForwardedTaskResolvesItsSpawner(t *testing.T) {
	c := newCluster(t, 2, 1, &LocalPolicy{})
	registerSum(c)
	started, release := registerGate(t, c)
	c.start()
	s0, s1 := c.scheds[0], c.scheds[1]
	holdThieves(s1)
	occupyWorkers(t, s0, started)
	fut, err := s0.Spawn("sum", &sumRange{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	checkQueued(t, s0, 1)
	s0.loc.SetPeer(s0.Rank(), runtime.Draining, 0)
	s0.RedistributeQueued()
	checkQueued(t, s0, 0)
	s1.loc.SetPeer(s1.Rank(), runtime.Member, 0)
	if err := waitResolved(t, "the forwarded task's future", fut); err != nil {
		t.Fatal(err)
	}
	var sum int64
	fut.WaitInto(&sum)
	release()
	if sum != 3 || counter(s1, MetricExecuted) != 1 {
		t.Fatalf("sum %d, %d tasks run on rank 1, want 3 and 1", sum, counter(s1, MetricExecuted))
	}
	if got := named(s0); got != 1 {
		t.Fatalf("the forward named %d promises, want 1", got)
	}
}

// TestFailedShipRunsHereAndResolves: a ship toward a rank whose link is
// gone fails, and its task runs where it was spawned after all
// (confirmShip) — by the name the ship gave it, which is all the
// fallback's copy of the task knows.
func TestFailedShipRunsHereAndResolves(t *testing.T) {
	c := newCluster(t, 2, 1, &pinPolicy{target: 1})
	registerSum(c)
	c.start()
	s0, s1 := c.scheds[0], c.scheds[1]
	s1.StopQueue()
	c.sys.Locality(1).Close()
	fut, err := s0.Spawn("sum", &sumRange{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitResolved(t, "the task of the failed ship", fut); err != nil {
		t.Fatal(err)
	}
	var sum int64
	fut.WaitInto(&sum)
	if sum != 3 || counter(s0, MetricExecuted) != 1 {
		t.Fatalf("sum %d, %d tasks run on rank 0, want 3 and 1", sum, counter(s0, MetricExecuted))
	}
	if got := named(s0); got != 1 {
		t.Fatalf("the ship named %d promises, want 1", got)
	}
}

// TestDroppedTasksFailTheirFutures: a task dropped without running —
// purged by CancelJob, discarded by AbortQueue or StopQueue, or spawned
// after the stop — fails its unnamed future in place; none of them
// names one.
func TestDroppedTasksFailTheirFutures(t *testing.T) {
	failAll := func(t *testing.T, what string, futs []*runtime.Future, check func(error) bool) {
		t.Helper()
		for _, fut := range futs {
			if err := waitResolved(t, what, fut); !check(err) {
				t.Fatalf("%s: err = %v", what, err)
			}
		}
	}
	failed := func(err error) bool { return err != nil }
	t.Run("CancelJob", func(t *testing.T) {
		c := newCluster(t, 1, 1, &DefaultPolicy{})
		registerSum(c)
		started, _ := registerGate(t, c)
		c.start()
		s := c.scheds[0]
		occupyWorkers(t, s, started)
		futs := spawnLeaves(t, s, 4, 1, 7)
		s.CancelJob(7)
		failAll(t, "a purged task", futs, IsJobCancelled)
		if got := named(s); got != 0 {
			t.Fatalf("%d promises named, want 0", got)
		}
	})
	t.Run("AbortQueue", func(t *testing.T) {
		c := newCluster(t, 1, 1, &DefaultPolicy{})
		registerSum(c)
		started, _ := registerGate(t, c)
		c.start()
		s := c.scheds[0]
		occupyWorkers(t, s, started)
		futs := spawnLeaves(t, s, 4, 0, 0)
		s.AbortQueue()
		failAll(t, "a task queued at the abort", futs, failed)
		checkQueued(t, s, 0)
	})
	t.Run("StopQueue", func(t *testing.T) {
		c := newCluster(t, 1, 1, &DefaultPolicy{})
		registerSum(c)
		started, release := registerGate(t, c)
		c.start()
		s := c.scheds[0]
		occupyWorkers(t, s, started)
		futs := spawnLeaves(t, s, 4, 0, 0)
		stopped := make(chan struct{})
		go func() { s.StopQueue(); close(stopped) }()
		waitFor(t, "the stop", func() bool {
			select {
			case <-s.queue.stop:
				return true
			default:
				return false
			}
		})
		release()
		<-stopped
		failAll(t, "a task queued at the stop", futs, failed)
		futs = spawnLeaves(t, s, 1, 0, 0)
		failAll(t, "a task spawned after the stop", futs, failed)
		checkQueued(t, s, 0)
		if got := named(s); got != 0 {
			t.Fatalf("%d promises named, want 0", got)
		}
	})
}
