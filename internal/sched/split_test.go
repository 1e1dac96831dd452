package sched

import (
	"sync"
	"testing"

	"allscale/internal/runtime"
)

// Split variants on the workers (steal.go, DESIGN.md §6e): a split is a
// deque slot like any other task, so whatever takes a task back out of
// a deque — a steal grant, a drain, a cancel — meets splits too and must
// treat them as what they are. Every test here fails at the parent
// commit, where a split never entered a deque.

// queuedVariants lists the variants of what sits in s's deques.
func queuedVariants(s *Scheduler) []Variant {
	var out []Variant
	for _, d := range s.queue.deques {
		d.mu.Lock()
		for i := 0; i < d.n; i++ {
			out = append(out, d.buf[(d.head+i)&(len(d.buf)-1)].variant)
		}
		d.mu.Unlock()
	}
	return out
}

// checkOneQueuedSplit asserts that s's queue holds exactly one task and
// that it is a split.
func checkOneQueuedSplit(t *testing.T, s *Scheduler) {
	t.Helper()
	waitFor(t, "the split to be queued", func() bool { return s.QueueLen() == 1 })
	if got := queuedVariants(s); len(got) != 1 || got[0] != VariantSplit {
		t.Fatalf("rank %d's queue holds variants %v, want one split", s.Rank(), got)
	}
}

// TestStealGrantKeepsVariant: a queued split leaves its rank as a split,
// by a steal grant and by a drain's redistribution alike, and runs as
// one where it arrives. LocalPolicy keeps every task at its origin, so
// the tree under a split that moved runs where the split went: sum over
// [0, 64) splits at depths 0 and 1 — three splits, four leaves.
func TestStealGrantKeepsVariant(t *testing.T) {
	c := newCluster(t, 2, 1, &LocalPolicy{})
	registerSum(c)
	started, release := registerGate(t, c)
	c.start()
	s0, s1 := c.scheds[0], c.scheds[1]
	holdThieves(s1)
	occupyWorkers(t, s0, started)

	// Granted to rank 1's thief.
	fut, err := s0.Spawn("sum", &sumRange{0, 64})
	if err != nil {
		t.Fatal(err)
	}
	checkOneQueuedSplit(t, s0)
	s1.loc.SetPeer(s1.Rank(), runtime.Member, 0)
	var got int64
	if err := fut.WaitInto(&got); err != nil || got != 64*63/2 {
		t.Fatalf("stolen tree: sum = %d, err %v, want %d", got, err, 64*63/2)
	}
	if stolen := counter(s1, MetricSteals); stolen != 1 {
		t.Fatalf("rank 1 stole %d tasks, want the one split", stolen)
	}
	if s0Splits, s1Splits := counter(s0, MetricSplits), counter(s1, MetricSplits); s0Splits != 0 || s1Splits != 3 {
		t.Fatalf("splits ran: %d on rank 0, %d on rank 1 — want the stolen tree's 3 on the thief",
			s0Splits, s1Splits)
	}

	// Forwarded by a drain. Rank 1's worker is held too, so that what
	// arrives there stays queued to be looked at. (A hint rank 1 sent
	// before its worker was held may still be on its way: once in a few
	// hundred runs the split is granted to it before the drain gets to
	// forward it. Either way it must arrive as a split.)
	occupyWorkers(t, s1, started)
	placed := counter(s0, MetricRemotePlaced)
	if fut, err = s0.Spawn("sum", &sumRange{0, 64}); err != nil {
		t.Fatal(err)
	}
	s0.loc.SetPeer(s0.Rank(), runtime.Draining, 0)
	s0.RedistributeQueued()
	checkQueued(t, s0, 0)
	checkOneQueuedSplit(t, s1)
	granted := counter(s0, MetricStolenFrom) // 1 so far: the first tree's split
	if forwarded := counter(s0, MetricRemotePlaced) - placed; forwarded+granted-1 != 1 {
		t.Fatalf("the second split left rank 0 %d times by re-placement and %d by grant, want once in all",
			forwarded, granted-1)
	}
	release()
	if err := fut.WaitInto(&got); err != nil || got != 64*63/2 {
		t.Fatalf("forwarded tree: sum = %d, err %v, want %d", got, err, 64*63/2)
	}
	if s0Splits, s1Splits := counter(s0, MetricSplits), counter(s1, MetricSplits); s0Splits != 0 || s1Splits != 6 {
		t.Fatalf("splits ran: %d on rank 0, %d on rank 1 — want both trees' 6 on rank 1",
			s0Splits, s1Splits)
	}
}

// TestJoinStillSteals: a worker parked in a join is still a thief. Rank
// 0's only worker sits in its root's join, waiting for a child held on
// rank 1; rank 1's queue fills with leaves bound to nothing. Rank 0 must
// get some of them — on its backoff timer, under the probe rule — while
// the join is still waiting: a join that only ever waited for an enqueue
// would leave rank 0 out of the system for as long as its root ran.
func TestJoinStillSteals(t *testing.T) {
	c := newCluster(t, 2, 1, &DefaultPolicy{})
	registerSum(c)
	rootRunning := make(chan struct{})
	proceed := make(chan struct{})
	childRunning := make(chan struct{})
	hold := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release) // registered after the queue's: runs first, so StopQueue finds no held worker
	c.registerAll(func(int) *Kind {
		return &Kind{
			Name: "root",
			Process: func(ctx *Ctx) (any, error) {
				close(rootRunning)
				<-proceed
				// Branch bit 1 maps the child onto rank 1.
				f, err := ctx.Spawn("held", &benchArgs{}, 1)
				if err != nil {
					return nil, err
				}
				_, err = f.Wait()
				return nil, err
			},
		}
	})
	c.registerAll(func(int) *Kind {
		return &Kind{
			Name: "held",
			Process: func(*Ctx) (any, error) {
				close(childRunning)
				<-hold
				return nil, nil
			},
		}
	})
	c.start()
	s0, s1 := c.scheds[0], c.scheds[1]

	// While the root is queued, rank 1's thief must not carry it off.
	holdThieves(s1)
	root, err := s0.Spawn("root", &benchArgs{})
	if err != nil {
		t.Fatal(err)
	}
	<-rootRunning
	s1.loc.SetPeer(s1.Rank(), runtime.Member, 0) // before the child is placed: a draining rank would send it back
	close(proceed)
	<-childRunning
	// Surplus on rank 1, behind its only worker.
	leaves := spawnLeaves(t, s1, 16, 0, 0)
	waitFor(t, "rank 0 to steal from inside its join", func() bool { return counter(s0, MetricSteals) > 0 })
	if root.Done() {
		t.Fatal("the root's join returned while its child was still held")
	}
	release()
	if _, err := root.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, fut := range leaves {
		var sum int64
		if err := fut.WaitInto(&sum); err != nil || sum != 3 {
			t.Fatalf("leaf: sum %d, err %v", sum, err)
		}
	}
	if executed := counter(s0, MetricExecuted); executed < 2 {
		t.Fatalf("rank 0 executed %d tasks, want its root and what it stole", executed)
	}
}

// TestCancelPurgesQueuedSplit: CancelJob's purge fails a queued split's
// promise like any queued task's, and the split never runs.
func TestCancelPurgesQueuedSplit(t *testing.T) {
	c := newCluster(t, 1, 1, &DefaultPolicy{})
	registerSum(c)
	started, release := registerGate(t, c)
	c.start()
	s := c.scheds[0]
	occupyWorkers(t, s, started)
	const job = 5
	fut, err := s.SpawnJob("sum", &sumRange{0, 64}, 1, job, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkOneQueuedSplit(t, s)
	s.CancelJob(job)
	checkQueued(t, s, 0)
	if _, err := fut.Wait(); !IsJobCancelled(err) {
		t.Fatalf("queued split of a cancelled job: err = %v, want job-cancelled error", err)
	}
	release()
	// Whatever the worker runs next comes after anything the purge left.
	next, err := s.Spawn("sum", &sumRange{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Wait(); err != nil {
		t.Fatal(err)
	}
	if splits, executed := counter(s, MetricSplits), counter(s, MetricExecuted); splits != 0 || executed != 2 {
		t.Fatalf("%d splits, %d tasks executed — want no split and only the gate and the leaf", splits, executed)
	}
	if got := s.loc.Metrics().CounterValue(TenantCancelledMetric(1)); got != 1 {
		t.Fatalf("tenant cancelled counter = %d, want 1", got)
	}
}
