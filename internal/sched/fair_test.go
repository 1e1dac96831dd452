package sched

import (
	"testing"

	"allscale/internal/runtime"
	"allscale/internal/trace"
	"allscale/internal/wire"
)

// fairSpec builds a tenant-tagged spec with a live promise, returning
// the spec and its future.
func fairSpec(s *Scheduler, tenant uint32, job uint64) (*TaskSpec, *runtime.Future) {
	pid, fut := s.loc.NewPromise()
	return &TaskSpec{
		ID:      uint64(s.loc.Rank())<<32 | s.seq.Add(1),
		Kind:    "sum",
		Origin:  s.loc.Rank(),
		Promise: pid,
		Tenant:  tenant,
		Job:     job,
	}, fut
}

// TestPopFairWeightedInterleave checks the deficit round-robin: with
// weights 2:1 the rotation grants tenant A two pops per lap and
// tenant B one, whatever the arrival order.
func TestPopFairWeightedInterleave(t *testing.T) {
	c := newCluster(t, 1, &DefaultPolicy{})
	s := c.scheds[0]
	s.SetTenantWeight(1, 2)
	s.SetTenantWeight(2, 1)
	for i := 0; i < 6; i++ {
		spec, _ := fairSpec(s, 1, 10)
		s.enqueueFair(spec)
	}
	for i := 0; i < 3; i++ {
		spec, _ := fairSpec(s, 2, 20)
		s.enqueueFair(spec)
	}
	var order []uint32
	for {
		qt, ok := s.popFair()
		if !ok {
			break
		}
		qt.sp.End()
		order = append(order, qt.spec.Tenant)
	}
	want := []uint32{1, 1, 2, 1, 1, 2, 1, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("popped %d tasks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
	if s.queued.Load() != 0 {
		t.Fatalf("queued counter %d after draining, want 0", s.queued.Load())
	}
}

// TestPopFairNoStarvation floods tenant A with 100 tasks before tenant
// B's single task arrives; equal weights must still serve B within the
// first rotation lap.
func TestPopFairNoStarvation(t *testing.T) {
	c := newCluster(t, 1, &DefaultPolicy{})
	s := c.scheds[0]
	for i := 0; i < 100; i++ {
		spec, _ := fairSpec(s, 1, 10)
		s.enqueueFair(spec)
	}
	spec, _ := fairSpec(s, 2, 20)
	s.enqueueFair(spec)
	for i := 0; i < 2; i++ {
		qt, ok := s.popFair()
		if !ok {
			t.Fatalf("popFair empty at %d", i)
		}
		qt.sp.End()
		if qt.spec.Tenant == 2 {
			return // B served within the first two pops
		}
	}
	t.Fatal("tenant B not served within one rotation lap despite A's flood")
}

// TestCancelJobPurgesQueuesAndRegistries checks the three cancel
// surfaces: queued tasks are purged with failed promises, the
// execution gate blocks stragglers, and a recovery respawn does not
// resurrect the job.
func TestCancelJobPurgesQueuesAndRegistries(t *testing.T) {
	c := newCluster(t, 1, &DefaultPolicy{})
	registerSum(c)
	c.start()
	s := c.scheds[0]

	specA, futA := fairSpec(s, 1, 100)
	specB, futB := fairSpec(s, 1, 200)
	s.enqueueFair(specA)
	s.enqueueFair(specB)
	s.trackInflight(specA, 0)
	s.trackHandoff(specA, 0)

	s.CancelJob(100)

	if _, err := futA.Wait(); !IsJobCancelled(err) {
		t.Fatalf("cancelled job's queued task: err = %v, want job-cancelled error", err)
	}
	if n := s.FairQueueLen(1); n != 1 {
		t.Fatalf("tenant queue holds %d tasks after cancel, want 1 (job 200)", n)
	}
	if s.stillInflight(specA.ID) {
		t.Fatal("cancelled spec still in the inflight registry")
	}
	for _, h := range s.handoffs {
		if h.spec.Job == 100 {
			t.Fatal("cancelled spec still in the handoff log")
		}
	}

	// Stragglers (e.g. arriving via a shipped batch) die at the gate.
	specC, futC := fairSpec(s, 1, 100)
	s.executeNow(specC, VariantProcess, noWorker)
	if _, err := futC.Wait(); !IsJobCancelled(err) {
		t.Fatalf("straggler of cancelled job: err = %v, want job-cancelled error", err)
	}

	// Recovery must not resurrect cancelled work.
	specD, futD := fairSpec(s, 1, 100)
	before := s.Respawns()
	if err := s.Respawn(*specD); err != nil {
		t.Fatalf("Respawn: %v", err)
	}
	if _, err := futD.Wait(); !IsJobCancelled(err) {
		t.Fatalf("respawned task of cancelled job: err = %v, want job-cancelled error", err)
	}
	if s.Respawns() != before {
		t.Fatal("cancelled respawn counted as a real respawn")
	}
	if got := s.loc.Metrics().CounterValue(MetricCancelledRespawns); got != 1 {
		t.Fatalf("cancelled respawns counter = %d, want 1", got)
	}

	// The surviving job still runs to completion.
	qt, ok := s.popFair()
	if !ok {
		t.Fatal("job 200's task vanished")
	}
	qt.spec.Args, _ = wire.Encode(&sumRange{0, 3})
	s.runQueued(qt, noWorker)
	var sum int64
	if err := futB.WaitInto(&sum); err != nil {
		t.Fatalf("surviving job failed: %v", err)
	}
	if sum != 3 {
		t.Fatalf("surviving job result = %d, want 3", sum)
	}
}

// TestSpawnJobTenantPropagation runs a splittable job end-to-end over
// two ranks with the work-stealing queue enabled and checks that the
// tenant tags reach every executed descendant: the per-tenant executed
// counters across ranks must account for every execution.
func TestSpawnJobTenantPropagation(t *testing.T) {
	c := newCluster(t, 2, &DefaultPolicy{})
	registerSum(c)
	for _, s := range c.scheds {
		s.EnableQueue(2)
	}
	c.start()
	defer func() {
		for _, s := range c.scheds {
			s.StopQueue()
		}
	}()

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
