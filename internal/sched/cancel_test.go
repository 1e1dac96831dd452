package sched

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/trace"
)

// jobTask builds a tenant-tagged task spawned at s that has not left
// it: its future, t.fut, is not named.
func jobTask(s *Scheduler, tenant uint32, job uint64) *task {
	return &task{spec: TaskSpec{
		ID:     uint64(s.loc.Rank())<<32 | s.seq.Add(1),
		Kind:   "sum",
		Origin: s.loc.Rank(),
		Tenant: tenant,
		Job:    job,
	}}
}

// namedJobTask is jobTask with the future named, as ship names it: the
// task's result reaches t.fut from any rank, by spec.Promise.
func namedJobTask(s *Scheduler, tenant uint32, job uint64) *task {
	t := jobTask(s, tenant, job)
	t.spec.Promise = s.loc.NamePromise(&t.fut)
	return t
}

// registerGate installs "gate", a task that reports on started and
// then blocks until release is called. occupyWorkers parks every queue
// worker of a scheduler in one, so that what is spawned next stays
// queued until the release. The release is also a test cleanup: it
// runs before the cluster's StopQueue, which waits for the workers.
func registerGate(t *testing.T, c *cluster) (started chan struct{}, release func()) {
	started = make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	c.registerAll(func(int) *Kind {
		return &Kind{
			Name: "gate",
			Process: func(*Ctx) (any, error) {
				started <- struct{}{}
				<-gate
				return nil, nil
			},
		}
	})
	return started, release
}

func occupyWorkers(t *testing.T, s *Scheduler, started chan struct{}) {
	t.Helper()
	for w := 0; w < s.queue.workers; w++ {
		if _, err := s.Spawn("gate", struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < s.queue.workers; w++ {
		<-started
	}
}

// spawnLeaves spawns n unsplittable "sum" tasks of one job at s, each
// summing [0, 3).
func spawnLeaves(t *testing.T, s *Scheduler, n int, tenant uint32, job uint64) []*runtime.Future {
	t.Helper()
	futs := make([]*runtime.Future, n)
	for i := range futs {
		fut, err := s.SpawnJob("sum", &sumRange{0, 3}, tenant, job, 0)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	return futs
}

// checkQueued asserts that the three views of a scheduler's run queue
// agree on want queued tasks: QueueLen (the queued counter), the
// deques' occupancy, and the published per-worker depth gauges.
func checkQueued(t *testing.T, s *Scheduler, want int) {
	t.Helper()
	var inDeques, gauges int64
	for _, d := range s.queue.deques {
		inDeques += d.size.Load()
	}
	for name, v := range s.loc.Metrics().Snapshot().Gauges {
		if strings.HasPrefix(name, MetricQueueDepthPrefix) {
			gauges += v
		}
	}
	if got := s.QueueLen(); got != want || inDeques != int64(want) || gauges != int64(want) {
		t.Fatalf("queued: QueueLen %d, deques %d, depth gauges %d — want %d each", got, inDeques, gauges, want)
	}
}

// TestCancelJobPurgesQueuesAndRegistries checks the cancel surfaces:
// queued tasks are purged from the worker deques with failed promises
// while another job's stay, the inflight registry is swept, the
// execution gate blocks stragglers, and a recovery respawn does not
// resurrect the job.
func TestCancelJobPurgesQueuesAndRegistries(t *testing.T) {
	c := newCluster(t, 1, 2, &DefaultPolicy{})
	registerSum(c)
	started, release := registerGate(t, c)
	c.start()
	s := c.scheds[0]
	occupyWorkers(t, s, started)

	// Both jobs' tasks sit in the deques, interleaved over both workers.
	cancelled := spawnLeaves(t, s, 5, 1, 100)
	surviving := spawnLeaves(t, s, 3, 1, 200)
	cancelled = append(cancelled, spawnLeaves(t, s, 2, 1, 100)...)
	checkQueued(t, s, 10)
	specA := &namedJobTask(s, 1, 100).spec
	s.trackInflight(0, []runArgs{{Spec: *specA}})

	s.CancelJob(100)

	// The workers are still held: nothing but the purge can have
	// resolved these.
	for _, fut := range cancelled {
		if _, err := fut.Wait(); !IsJobCancelled(err) {
			t.Fatalf("cancelled job's queued task: err = %v, want job-cancelled error", err)
		}
	}
	checkQueued(t, s, 3)
	if s.takeInflight(specA.ID) {
		t.Fatal("cancelled spec still in the inflight registry")
	}
	// 7 purged from the deques + the spec swept from the registry.
	reg := s.loc.Metrics()
	if got := reg.CounterValue(TenantCancelledMetric(1)); got != 8 {
		t.Fatalf("tenant cancelled counter = %d, want 8", got)
	}

	// Stragglers (e.g. arriving via a shipped batch) die at the gate.
	straggler := jobTask(s, 1, 100)
	s.executeNow(straggler, 0)
	if _, err := straggler.fut.Wait(); !IsJobCancelled(err) {
		t.Fatalf("straggler of cancelled job: err = %v, want job-cancelled error", err)
	}

	// Recovery must not resurrect cancelled work.
	lost := namedJobTask(s, 1, 100)
	before := reg.CounterValue(MetricRespawns)
	if s.Recover(lost.spec, 1) {
		t.Fatal("a lost task of a cancelled job was respawned")
	}
	if _, err := lost.fut.Wait(); !IsJobCancelled(err) {
		t.Fatalf("respawned task of cancelled job: err = %v, want job-cancelled error", err)
	}
	if reg.CounterValue(MetricRespawns) != before {
		t.Fatal("cancelled respawn counted as a real respawn")
	}
	if got := reg.CounterValue(MetricCancelledRespawns); got != 1 {
		t.Fatalf("cancelled respawns counter = %d, want 1", got)
	}

	// The surviving job still runs to completion.
	release()
	for _, fut := range surviving {
		var sum int64
		if err := fut.WaitInto(&sum); err != nil {
			t.Fatalf("surviving job failed: %v", err)
		}
		if sum != 3 {
			t.Fatalf("surviving job result = %d, want 3", sum)
		}
	}
	if got := reg.CounterValue(TenantExecutedMetric(1)); got != 3 {
		t.Fatalf("tenant executed counter = %d, want 3 (job 200's tasks only)", got)
	}
}

// TestCancelJobEndsLockWait: a task of a cancelled job waiting for a
// lock fails with ErrJobCancelled and never runs its body — whether the
// cancel finds it parked or lands between the execution gate and its
// wait — instead of running once the lock holder lets go.
func TestCancelJobEndsLockWait(t *testing.T) {
	for _, parked := range []bool{true, false} {
		t.Run(fmt.Sprintf("parked=%v", parked), func(t *testing.T) {
			typ := dataitem.NewGridType[int]("field", region.Point{16, 16})
			c := newCluster(t, 1, 1, &DefaultPolicy{}, typ)
			var item dim.ItemID
			var runs atomic.Int64
			c.registerAll(func(int) *Kind {
				return &Kind{
					Name: "write",
					Reqs: func([]byte) []dim.Requirement {
						return []dim.Requirement{{Item: item, Region: bandRegion(0), Mode: dim.Write}}
					},
					Process: func(*Ctx) (any, error) { runs.Add(1); return nil, nil },
				}
			})
			c.start()
			s := c.scheds[0]
			// The exec observer runs past the gate, before the acquisition.
			gated, cancelled := make(chan struct{}), make(chan struct{})
			if !parked {
				s.SetExecObserver(func(uint64) { close(gated); <-cancelled })
			}
			mgr := s.Manager()
			var err error
			if item, err = mgr.CreateItem(typ); err != nil {
				t.Fatal(err)
			}
			const holder, job = 900, 77
			if err := mgr.Acquire(holder, []dim.Requirement{{Item: item, Region: bandRegion(0), Mode: dim.Write}}); err != nil {
				t.Fatal(err)
			}
			defer mgr.Release(holder)
			fut, err := s.SpawnJob("write", struct{}{}, 1, job, 0)
			if err != nil {
				t.Fatal(err)
			}
			if parked {
				waiting := s.loc.Metrics().Gauge(dim.MetricLockWaiters)
				waitFor(t, "the task to park", func() bool { return waiting.Value() == 1 })
				s.CancelJob(job)
			} else {
				<-gated
				s.CancelJob(job)
				close(cancelled)
			}
			done := make(chan error, 1)
			go func() { _, err := fut.Wait(); done <- err }()
			select {
			case err := <-done:
				if !IsJobCancelled(err) {
					t.Errorf("task of the cancelled job: err = %v, want job-cancelled error", err)
				}
			case <-time.After(time.Second):
				t.Error("task of the cancelled job still waits for the lock 1s after the cancel")
				mgr.Release(holder)
				<-done
			}
			if n := runs.Load(); n != 0 {
				t.Errorf("the cancelled task's body ran %d times", n)
			}
		})
	}
}

// TestTaggedTasksQueueLikeUntagged: a tenant-tagged process variant is
// an ordinary run-queue entry. With rank 0's workers held, its tagged
// tasks are counted by QueueLen and the depth gauges, handed out by a
// sibling raid, granted to rank 1's thief, and re-placed by
// RedistributeQueued — and every execution lands in the tenant's
// executed counter of the rank that ran it.
func TestTaggedTasksQueueLikeUntagged(t *testing.T) {
	c := newCluster(t, 2, 2, &LocalPolicy{})
	registerSum(c)
	started, _ := registerGate(t, c)
	c.start()
	s0, s1 := c.scheds[0], c.scheds[1]
	const tenant = 3
	executedAt := func(s *Scheduler) uint64 {
		return s.loc.Metrics().CounterValue(TenantExecutedMetric(tenant))
	}
	waitAll := func(futs []*runtime.Future) {
		t.Helper()
		for _, fut := range futs {
			var sum int64
			if err := fut.WaitInto(&sum); err != nil || sum != 3 {
				t.Fatalf("tagged task: sum %d, err %v", sum, err)
			}
		}
	}

	holdThieves(s1)
	occupyWorkers(t, s0, started)
	futs := spawnLeaves(t, s0, 8, tenant, 9)
	checkQueued(t, s0, 8)

	// Sibling raid: worker 0 finds its own deque empty and takes from
	// worker 1's.
	for _, qt := range s0.queue.deques[0].takeIf(math.MaxInt, nil) {
		s0.queue.deques[1].pushTail(qt)
	}
	qt := s0.popLocal(0)
	if qt == nil || qt.spec.Tenant != tenant {
		t.Fatal("raid on the sibling's deque found no tagged task")
	}
	if s0.queue.deques[0].size.Load() == 0 {
		t.Fatal("raid moved nothing into the raider's deque")
	}
	checkQueued(t, s0, 7)
	s0.runQueued(qt, 0)
	if got := executedAt(s0); got != 1 {
		t.Fatalf("rank 0 tenant executed = %d after the raided task ran, want 1", got)
	}

	// Remote steal: rank 0's workers stay held, so only rank 1's
	// thieves can run the other seven.
	s1.loc.SetPeer(s1.Rank(), runtime.Member, 0)
	waitAll(futs)
	if stolen, from := counter(s1, MetricSteals), counter(s0, MetricStolenFrom); stolen != 7 || from != 7 {
		t.Fatalf("rank 1 stole %d, rank 0 granted %d, want 7 and 7", stolen, from)
	}
	if got := executedAt(s1); got != 7 {
		t.Fatalf("rank 1 tenant executed = %d, want 7", got)
	}
	checkQueued(t, s0, 0)

	// Redistribution: a draining rank 0 re-places what it has queued.
	// Rank 1's thieves may get to some of it first; either way all of
	// it leaves rank 0's queue and runs on rank 1.
	placedBefore := counter(s0, MetricRemotePlaced)
	futs = spawnLeaves(t, s0, 6, tenant, 9)
	s0.loc.SetPeer(s0.Rank(), runtime.Draining, 0)
	s0.RedistributeQueued()
	checkQueued(t, s0, 0)
	waitAll(futs)
	if moved := counter(s0, MetricRemotePlaced) - placedBefore + counter(s0, MetricStolenFrom) - 7; moved != 6 {
		t.Fatalf("%d tagged tasks left rank 0 by re-placement or steal, want 6", moved)
	}
	if got := executedAt(s1); got != 13 {
		t.Fatalf("rank 1 tenant executed = %d, want 13", got)
	}
}

// TestSpawnJobTenantPropagation runs a splittable job end-to-end over
// two ranks and checks that the
// tenant tags reach every executed descendant: the per-tenant executed
// counters across ranks must account for every execution.
func TestSpawnJobTenantPropagation(t *testing.T) {
	c := newCluster(t, 2, 2, &DefaultPolicy{})
	registerSum(c)
	c.start()

	fut, err := c.scheds[0].SpawnJob("sum", &sumRange{0, 64}, 7, 42, trace.SpanID(0))
	if err != nil {
		t.Fatalf("SpawnJob: %v", err)
	}
	var sum int64
	if err := fut.WaitInto(&sum); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if sum != 64*63/2 {
		t.Fatalf("sum = %d, want %d", sum, 64*63/2)
	}

	var tenantExec, totalExec uint64
	for i := range c.scheds {
		reg := c.scheds[i].loc.Metrics()
		tenantExec += reg.CounterValue(TenantExecutedMetric(7))
		totalExec += reg.CounterValue(MetricExecuted)
	}
	if tenantExec == 0 {
		t.Fatal("tenant executed counter never incremented")
	}
	if tenantExec != totalExec {
		t.Fatalf("tenant executions %d != total executions %d: tags lost on some path",
			tenantExec, totalExec)
	}
}
