package sched

import (
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/chaos"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/wire"
	"allscale/internal/wire/wiretest"
)

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRespawnedShipExecutesAgain: exactly-once is a property of one
// ship, not of the task. A task shipped to a rank, stolen away, and
// lost with the thief is respawned by crash recovery — deterministic
// placement may well pick the first rank again. That second placement
// is a new call and must execute; a dedup keyed on bare spec IDs (PR 6)
// silently dropped it and the task's waiters hung.
func TestRespawnedShipExecutesAgain(t *testing.T) {
	c := newCluster(t, 2, 2, &pinPolicy{target: 1})
	var count atomic.Int64
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name:    "count",
			Process: func(ctx *Ctx) (any, error) { count.Add(1); return nil, nil },
		}
	})
	c.start()

	pid := c.sys.Locality(0).NamePromise(new(runtime.Future))
	args, err := wire.Encode(struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	spec := TaskSpec{ID: 999, Kind: "count", Args: args, Origin: 0, Promise: pid}
	if !c.scheds[0].Recover(spec, 1) {
		t.Fatal("the lost task was not respawned")
	}
	waitFor(t, "the first placement to run", func() bool { return count.Load() == 1 })
	// Second placement attempt of the SAME spec onto the same rank.
	if !c.scheds[0].Recover(spec, 1) {
		t.Fatal("the lost task was not respawned")
	}
	waitFor(t, "the second placement to run", func() bool { return count.Load() == 2 })
}

// TestArrivalClearsInflightEntry: a task that comes back to a rank is
// no longer where that rank sent it. Rank 0 ships X to rank 1 and takes
// it back by a steal; then rank 1 dies. What rank 0 hands the recovery
// coordinator for the dead rank must not contain X — X sits in rank 0's
// own queue with its promise pending, so the coordinator would respawn
// it and it would run twice (it did at the parent commit).
func TestArrivalClearsInflightEntry(t *testing.T) {
	c := newCluster(t, 2, 1, &LocalPolicy{})
	var count atomic.Int64
	c.registerAll(func(int) *Kind {
		return &Kind{
			Name:    "count",
			Process: func(*Ctx) (any, error) { count.Add(1); return nil, nil },
		}
	})
	started, release := registerGate(t, c)
	c.start()
	s0, s1 := c.scheds[0], c.scheds[1]
	// Both workers are held in a gate task, so X stays queued wherever
	// it is and only this test probes.
	holdThieves(s0)
	occupyWorkers(t, s1, started)
	s0.loc.SetPeer(s0.Rank(), runtime.Member, 0)
	occupyWorkers(t, s0, started)

	x := jobTask(s0, 0, 0)
	x.spec.Kind = "count"
	x.spec.Args, _ = wire.Encode(struct{}{})
	fut := &x.fut
	s0.ship(1, false, x)
	waitFor(t, "X queued at rank 1", func() bool { return s1.QueueLen() == 1 })
	s0.probePeer(rand.New(rand.NewSource(1)))
	waitFor(t, "X granted back to rank 0", func() bool { return s0.QueueLen() == 1 })
	if stolen := counter(s0, MetricSteals); stolen != 1 {
		t.Fatalf("rank 0 counts %d stolen tasks, want 1", stolen)
	}

	// Rank 1 dies; rank 0 does what the recovery coordinator does.
	s1.AbortQueue()
	c.sys.Locality(1).Close()
	s0.loc.SetPeer(1, runtime.Dead, 0)
	for _, spec := range s0.HandleDeath(1) {
		if s0.loc.PromisePending(spec.Promise) {
			t.Errorf("task %d, queued here, is reported lost on rank 1", spec.ID)
			s0.Recover(spec, 1)
		}
	}
	release()
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rank 0 to run dry", func() bool { return s0.Load() == 0 })
	if got := count.Load(); got != 1 {
		t.Fatalf("X executed %d times, want once", got)
	}
}

// TestInflightRegistryBound: the registry keeps every task spawned here
// while its promise is pending, drops it once resolved, and of tasks
// spawned elsewhere — forwarded or granted ones, whose promise it cannot
// see — keeps the newest inflightLimit at most. At the parent commit
// entries of foreign origin were never swept.
func TestInflightRegistryBound(t *testing.T) {
	c := newCluster(t, 2, 1, &LocalPolicy{})
	s := c.scheds[0]
	track := func(spec *TaskSpec) { s.trackInflight(1, []runArgs{{Spec: *spec}}) }
	pending := &namedJobTask(s, 0, 0).spec
	track(pending)
	resolved := &namedJobTask(s, 0, 0).spec
	s.loc.FulfillRemote(resolved.Promise, nil, nil)
	track(resolved)
	const foreign = 3 * inflightLimit
	for i := 1; i <= foreign; i++ {
		track(&TaskSpec{ID: 1<<32 | uint64(i), Origin: 1})
	}
	s.inflightMu.Lock()
	n := len(s.inflight.m)
	_, oldest := s.inflight.m[1<<32|1]
	_, newest := s.inflight.m[1<<32|foreign]
	s.inflightMu.Unlock()
	if n > inflightLimit+1 {
		t.Fatalf("registry holds %d entries after %d foreign-origin ships, want at most %d", n, foreign, inflightLimit+1)
	}
	if oldest || !newest {
		t.Fatalf("oldest foreign entry kept: %v, newest kept: %v — want the oldest to go first", oldest, newest)
	}
	if s.takeInflight(resolved.ID) {
		t.Fatal("entry of a task spawned here survived the sweep although its promise is resolved")
	}
	if !s.takeInflight(pending.ID) {
		t.Fatal("entry of a task spawned here was dropped while its promise is pending")
	}
}

// TestDroppedProbesDoNotHoldTheWorker: a steal hint is not waited for.
// The fabric drops every frame from rank 0 to rank 1 — rank 0 keeps its
// tasks at home and rank 1 asks for none (a draining rank does not
// steal), so those frames are rank 0's probes. Once its only worker has
// run dry past its backoff and probed, tasks spawned one by one at rank
// 0 still complete at once, and no call times out: there is no call. At
// the parent commit the worker sat in the probe's call until the
// control deadline.
func TestDroppedProbesDoNotHoldTheWorker(t *testing.T) {
	ctl := chaos.NewController()
	ctl.Block(0, 1)
	calls := runtime.CallProfile{
		Control: runtime.CallSpec{Deadline: 2 * time.Second},
	}
	c, start := newChaosCluster(t, 1, &LocalPolicy{}, ctl, calls, chaos.Config{}, chaos.Config{})
	registerSum(c)
	c.scheds[1].loc.SetPeer(1, runtime.Draining, 0)
	start()

	s0 := c.scheds[0]
	waitFor(t, "rank 0's first probe", func() bool { return s0.stats.stealAttempts.Value() > 0 })
	const k = 50
	for i := 0; i < k; i++ {
		start := time.Now()
		fut, err := s0.Spawn("sum", &sumRange{0, 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("local task %d took %v behind a probe that will not be answered", i, d)
		}
		// Let the worker run dry and probe again between two tasks.
		time.Sleep(time.Millisecond)
	}
	reg := s0.loc.Metrics()
	if got := reg.CounterValue(runtime.MetricRPCTimeouts); got != 0 {
		t.Fatalf("rpc.timeouts = %d, want 0: a probe is not a call", got)
	}
	t.Logf("%d local tasks behind %d dropped probes (%d partition drops)", k,
		s0.stats.stealAttempts.Value(), reg.CounterValue(chaos.MetricPartitionDrops))
}

// FuzzRunBatchUnmarshal covers every task that crosses a rank boundary:
// sched.runb is the only frame that carries one. Malformed input must be
// an error, never a panic, and never an allocation sized by a count the
// input merely claims (Decoder.Count bounds it by the bytes left).
func FuzzRunBatchUnmarshal(f *testing.F) {
	task := runArgs{
		Spec: TaskSpec{
			ID: 3<<32 | 17, Kind: "sum", Args: []byte{wire.FormatBinary, 2, 9}, Depth: 4, Path: 0b1011, PathLen: 4,
			Origin: 3, Promise: runtime.PromiseID{Owner: 3, Seq: 40}, Span: 77, Tenant: 5, Job: 12,
		},
		Variant: VariantSplit,
	}
	granted := task
	granted.Variant, granted.Granted = VariantProcess, true
	carrying := task
	carrying.Variant, carrying.Carried = VariantProcess, []dim.Carried{
		{Item: dim.MakeItemID(3, 0, 1), Kept: dataitem.GridRegionFromTo(region.Point{0, 4}, region.Point{1, 60}), Token: 1<<63 | 3<<48 | 8},
		{Item: dim.MakeItemID(0, 0, 2), Kept: dataitem.GridRegionFromTo(region.Point{2}, region.Point{9}), Token: 1<<63 | 9},
	}
	// 2^20 tasks claimed by a body of a few bytes: 128 MB at the parent.
	f.Add(append(wire.AppendUvarint(nil, 1<<20), 0, 0, 0))
	wiretest.FuzzUnmarshal(f, &runBatch{}, &runBatch{Tasks: []runArgs{task}}, &runBatch{Tasks: []runArgs{task, granted, {}}},
		&runBatch{Tasks: []runArgs{carrying}}, &runBatch{Tasks: []runArgs{granted, carrying, task}})
}

// TestRunBatchWireRoundTrip: the envelope survives its binary form,
// granted mark included, and a claimed length is bounded by the bytes
// that follow before anything is sized from it.
func TestRunBatchWireRoundTrip(t *testing.T) {
	in := &runBatch{Tasks: []runArgs{
		{Spec: TaskSpec{ID: 1<<32 | 2, Kind: "sum", Args: []byte{1, 2}, Depth: 1, Path: 1, PathLen: 1, Origin: 1,
			Promise: runtime.PromiseID{Owner: 1, Seq: 9}, Span: 5, Tenant: 2, Job: 3}, Variant: VariantSplit},
		{Spec: TaskSpec{ID: 7, Kind: "count"}, Granted: true},
		{Spec: TaskSpec{ID: 8, Kind: "paint"}, Carried: []dim.Carried{
			{Item: dim.MakeItemID(1, 0, 4), Kept: dataitem.GridRegionFromTo(region.Point{4, 0}, region.Point{5, 16}), Token: 1<<63 | 1<<48 | 6},
		}},
	}}
	var out runBatch
	wiretest.RoundTrip(t, in, &out)
	if len(out.Tasks) != 3 || out.Tasks[0].Spec.Job != 3 || out.Tasks[0].Variant != VariantSplit ||
		out.Tasks[0].Granted || !out.Tasks[1].Granted || out.Tasks[1].Spec.Kind != "count" ||
		len(out.Tasks[0].Carried) != 0 || len(out.Tasks[2].Carried) != 1 {
		t.Fatalf("batch came back as %+v", out)
	}
	if c, want := out.Tasks[2].Carried[0], in.Tasks[2].Carried[0]; c.Item != want.Item || c.Token != want.Token || !c.Kept.Equal(want.Kept) {
		t.Fatalf("carried eviction came back as %+v, want %+v", c, want)
	}
	// 2^20 tasks claimed in six bytes: the parent commit sized the slice
	// from the claim (128 MB) before the decoder ran out of input.
	huge := append([]byte{wire.FormatBinary}, append(wire.AppendUvarint(nil, 1<<20), 0, 0)...)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if err := wire.Decode(huge, new(runBatch)); err == nil {
		t.Fatal("a batch claiming 2^20 tasks in six bytes was accepted")
	}
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a six-byte batch allocated %d bytes", grew)
	}
}
