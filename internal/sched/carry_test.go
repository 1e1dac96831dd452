package sched

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/chaos"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/wire"
)

// A shipped writer carries its origin's eviction (dim.Manager.Carry):
// the rank that ships a task writing a band it holds a read replica of
// serves the task's drop of that replica as it ships, and the claim
// rides to the destination. The tests below hold the task in the
// destination's queue behind a gate task and check that every other
// need of the band ends the claim, and every way the task leaves ends
// it too.

// carryRig is a cluster of one-worker ranks sharing one 16×16 int item,
// with "paint", a task that writes its value into every cell of band.
type carryRig struct {
	c       *cluster
	item    dim.ItemID
	band    dataitem.GridRegion
	started chan struct{}
	release func()
	// elsewhere makes paint's requirement name cells its destination does
	// not hold, so that a grant takes it.
	elsewhere atomic.Bool
	tok       atomic.Uint64
}

func newCarryRig(t *testing.T, n int) *carryRig {
	c := newCluster(t, n, 1, &LocalPolicy{}, carryType)
	return newCarryRigOver(t, c, c.start)
}

var carryType = dataitem.NewGridType[int]("field", region.Point{16, 16})

// newCarryRigOver is newCarryRig over the cluster c, built with carryType
// registered, whose delivery start starts.
func newCarryRigOver(t *testing.T, c *cluster, start func()) *carryRig {
	g := &carryRig{c: c, band: bandRegion(1)}
	g.tok.Store(1 << 40)
	g.c.registerAll(func(int) *Kind {
		return &Kind{
			Name: "paint",
			Reqs: func([]byte) []dim.Requirement {
				return []dim.Requirement{{Item: g.item, Region: g.painted(), Mode: dim.Write}}
			},
			Process: func(ctx *Ctx) (any, error) {
				var v benchArgs
				if err := ctx.Args(&v); err != nil {
					return nil, err
				}
				frag, err := ctx.Fragment(g.item)
				if err != nil {
					return nil, err
				}
				grid := frag.(*dataitem.GridFragment[int])
				g.painted().B.ForEachPoint(func(q region.Point) { grid.Set(q, int(v.V)) })
				return nil, nil
			},
		}
	})
	g.started, g.release = registerGate(t, g.c)
	start()
	var err error
	if g.item, err = g.mgr(0).CreateItem(carryType); err != nil {
		t.Fatal(err)
	}
	return g
}

func (g *carryRig) mgr(rank int) *dim.Manager { return g.c.scheds[rank].Manager() }

// painted is the region paint writes.
func (g *carryRig) painted() dataitem.GridRegion {
	if g.elsewhere.Load() {
		return bandRegion(3)
	}
	return g.band
}

// access acquires band at rank in mode, runs fn on the fragment and
// releases; it fails the test if the acquisition takes over 10 s.
func (g *carryRig) access(t *testing.T, rank int, mode dim.Mode, fn func(*dataitem.GridFragment[int])) {
	t.Helper()
	tok := g.tok.Add(1)
	done := make(chan error, 1)
	go func() {
		done <- g.mgr(rank).Acquire(tok, []dim.Requirement{{Item: g.item, Region: g.band, Mode: mode}})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%v of the band at rank %d: %v", mode, rank, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%v of the band at rank %d still waits after 10 s", mode, rank)
	}
	frag, _ := g.mgr(rank).Fragment(g.item)
	fn(frag.(*dataitem.GridFragment[int]))
	g.mgr(rank).Release(tok)
}

// write stores v in every cell of the band at rank.
func (g *carryRig) write(t *testing.T, rank, v int) {
	t.Helper()
	g.access(t, rank, dim.Write, func(f *dataitem.GridFragment[int]) {
		g.band.B.ForEachPoint(func(q region.Point) { f.Set(q, v) })
	})
}

// read checks that every cell of the band reads v at rank.
func (g *carryRig) read(t *testing.T, rank, v int) {
	t.Helper()
	var bad []string
	g.access(t, rank, dim.Read, func(f *dataitem.GridFragment[int]) {
		g.band.B.ForEachPoint(func(q region.Point) {
			if got := f.At(q); got != v && len(bad) < 3 {
				bad = append(bad, fmt.Sprintf("%v=%d", q, got))
			}
		})
	})
	if len(bad) > 0 {
		t.Fatalf("rank %d reads %v, want %d everywhere (stale data)", rank, bad, v)
	}
}

// ship seeds the band — root copy at dest holding 1, a replica origin
// has read — holds dest's worker, and spawns paint(v) at origin, which
// places it at dest and carries its drop there; it returns the task's
// future once the task waits in dest's queue with its claim.
func (g *carryRig) ship(t *testing.T, origin, dest, v int) *runtime.Future {
	t.Helper()
	g.write(t, dest, 1)
	g.read(t, origin, 1)
	for r, s := range g.c.scheds {
		if r != dest {
			holdThieves(s)
		}
	}
	occupyWorkers(t, g.c.scheds[dest], g.started)
	fut, err := g.c.scheds[origin].Spawn("paint", &benchArgs{V: uint64(v)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the task queued at its destination", func() bool { return g.c.scheds[dest].QueueLen() == 1 })
	if got := g.c.sumCounter(dim.MetricDropCarried); got != 1 {
		t.Fatalf("%s = %d after the ship, want 1", dim.MetricDropCarried, got)
	}
	if got := g.mgr(dest).Pins(); got != 1 {
		t.Fatalf("destination holds %d pins after the ship, want the carried one", got)
	}
	return fut
}

// settled checks that the run is over: fut resolved without an error,
// no pin left anywhere, the directory sound, and every rank reading v.
func (g *carryRig) settled(t *testing.T, fut *runtime.Future, v int) {
	t.Helper()
	if fut != nil {
		if err := waitResolved(t, "the shipped task", fut); err != nil {
			t.Fatal(err)
		}
	}
	mgrs := make([]*dim.Manager, len(g.c.scheds))
	for r := range mgrs {
		mgrs[r] = g.mgr(r)
		waitFor(t, fmt.Sprintf("rank %d's pins to settle", r), func() bool { return g.mgr(r).Pins() == 0 })
	}
	if err := dim.CheckSystemInvariants(mgrs, g.item); err != nil {
		t.Fatal(err)
	}
	for r := range mgrs {
		g.read(t, r, v)
	}
}

// TestCarriedPinYieldsToLocalWriter: a second writer at the destination
// takes the band while the shipped writer waits in the queue with its
// claim. It completes, and nobody reads stale data. Without the yield at
// its lock, its drop of the origin's copy waits for the claim's refresh,
// which waits for the queued task: it hangs.
func TestCarriedPinYieldsToLocalWriter(t *testing.T) {
	g := newCarryRig(t, 2)
	fut := g.ship(t, 0, 1, 2)
	g.write(t, 1, 3)
	g.read(t, 0, 3)
	g.release()
	g.settled(t, fut, 2)
}

// TestCarriedPinYieldsToForeignDrop: a writer at a third rank takes the
// band while the shipped writer waits in the queue with its claim; its
// drop of the destination's copy ends the claim. The destination is rank
// 0, so the third rank drops it before the origin's copy. Without the
// yield, the origin turns the third rank away for as long as the claim
// stands, and it never completes.
func TestCarriedPinYieldsToForeignDrop(t *testing.T) {
	g := newCarryRig(t, 3)
	fut := g.ship(t, 1, 0, 2)
	g.write(t, 2, 3)
	g.read(t, 1, 3)
	g.release()
	g.settled(t, fut, 2)
}

// TestCarriedPinTurnsAwayOtherWriters: at the origin, a carried pin
// turns away the drop of a writer at a third rank, even one ranked below
// the destination, which a kept replica's pin would have wait. Here the
// writer, rank 1, also holds band 2, which a task at the destination
// reads while the shipped writer waits behind it in the queue: had the
// writer waited at the origin for the shipped writer's refresh, the
// three would wait for each other until the lock-wait bound.
func TestCarriedPinTurnsAwayOtherWriters(t *testing.T) {
	g := newCarryRig(t, 3)
	other := bandRegion(2)
	g.write(t, 2, 1)
	g.read(t, 1, 1)
	g.read(t, 0, 1)
	if err := g.mgr(1).Acquire(g.tok.Add(1), []dim.Requirement{{Item: g.item, Region: other, Mode: dim.Write}}); err != nil {
		t.Fatal(err)
	}
	g.mgr(1).Release(g.tok.Load())
	read := make(chan error, 1)
	g.c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "reader",
			Process: func(*Ctx) (any, error) {
				tok := g.tok.Add(1)
				err := g.mgr(rank).Acquire(tok, []dim.Requirement{{Item: g.item, Region: other, Mode: dim.Read}})
				if err == nil {
					g.mgr(rank).Release(tok)
				}
				read <- err
				return nil, err
			},
		}
	})
	holdThieves(g.c.scheds[0])
	holdThieves(g.c.scheds[1])
	occupyWorkers(t, g.c.scheds[2], g.started)
	// Rank 1 holds the band too: placement passes it over while rank 0
	// suspects it.
	s0 := g.c.scheds[0]
	s0.loc.SetPeer(1, runtime.Suspect, 0)
	fut, err := s0.Spawn("paint", &benchArgs{V: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the task queued at its destination", func() bool { return g.c.scheds[2].QueueLen() == 1 })
	s0.loc.SetPeer(1, runtime.Member, 0)
	if got := g.c.sumCounter(dim.MetricDropCarried); got != 1 {
		t.Fatalf("%s = %d after the ship, want 1", dim.MetricDropCarried, got)
	}
	// The reader is queued last, so the worker runs it first.
	if _, err := g.c.scheds[2].Spawn("reader", struct{}{}); err != nil {
		t.Fatal(err)
	}
	waits := func() uint64 {
		return g.c.scheds[1].loc.Metrics().Histogram(dim.MetricLockWait).Snapshot().Count
	}
	before := waits()
	wrote := make(chan error, 1)
	go func() {
		tok, m := g.tok.Add(1), g.mgr(1)
		err := m.Acquire(tok, []dim.Requirement{{Item: g.item, Region: g.band, Mode: dim.Write}, {Item: g.item, Region: other, Mode: dim.Write}})
		if err == nil {
			frag, _ := m.Fragment(g.item)
			g.band.B.ForEachPoint(func(q region.Point) { frag.(*dataitem.GridFragment[int]).Set(q, 3) })
			m.Release(tok)
		}
		wrote <- err
	}()
	// The writer has met the carried pin: turned away and backing off, or
	// (without the rule) parked at the origin behind it.
	waitFor(t, "rank 1's writer to meet the carried pin", func() bool {
		return waits() > before || g.c.scheds[0].loc.Metrics().Gauge(dim.MetricLockWaiters).Value() > 0
	})
	g.release()
	for _, c := range []struct {
		what string
		done chan error
	}{{"the reader at the destination", read}, {"the writer at rank 1", wrote}} {
		select {
		case err := <-c.done:
			if err != nil {
				t.Fatalf("%s: %v", c.what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still waits after 10 s", c.what)
		}
	}
	if err := waitResolved(t, "the shipped task", fut); err != nil {
		t.Fatal(err)
	}
	// Both writers ran, in either order: every rank reads the later one.
	var last int
	g.access(t, 2, dim.Read, func(f *dataitem.GridFragment[int]) { last = f.At(region.Point{4, 0}) })
	if last != 2 && last != 3 {
		t.Fatalf("the band reads %d after both writers, want 2 or 3", last)
	}
	g.settled(t, nil, last)
}

// TestCarriedPinEndsWhenTaskLeaves: a shipped writer that leaves its
// destination without acquiring — its job cancelled, forwarded by a
// drain, granted to a thief, dropped by a stopping queue, or its
// acquisition aborted while it waits for its lock — ends its claim with
// a refresh, so the origin's copy is readable again with the band's
// content.
func TestCarriedPinEndsWhenTaskLeaves(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		g := newCarryRig(t, 2)
		const job = 41
		g.write(t, 1, 1)
		g.read(t, 0, 1)
		holdThieves(g.c.scheds[0])
		occupyWorkers(t, g.c.scheds[1], g.started)
		fut, err := g.c.scheds[0].SpawnJob("paint", &benchArgs{V: 2}, 1, job, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the task queued at its destination", func() bool { return g.c.scheds[1].QueueLen() == 1 })
		for _, s := range g.c.scheds {
			s.CancelJob(job)
		}
		if err := waitResolved(t, "the cancelled task", fut); !IsJobCancelled(err) {
			t.Fatalf("cancelled task: err = %v, want job-cancelled", err)
		}
		g.release()
		g.settled(t, nil, 1)
	})
	t.Run("forward", func(t *testing.T) {
		g := newCarryRig(t, 2)
		fut := g.ship(t, 0, 1, 2)
		s1 := g.c.scheds[1]
		s1.loc.SetPeer(1, runtime.Draining, 0)
		s1.RedistributeQueued()
		g.c.scheds[0].loc.SetPeer(0, runtime.Member, 0) // let rank 0 run it
		if err := waitResolved(t, "the forwarded task", fut); err != nil {
			t.Fatal(err)
		}
		g.release()
		s1.loc.SetPeer(1, runtime.Member, 0)
		g.settled(t, fut, 2)
	})
	t.Run("grant", func(t *testing.T) {
		g := newCarryRig(t, 3)
		fut := g.ship(t, 0, 1, 2)
		// A task with a claim writes cells its rank holds: no thief gets it.
		if got := g.c.scheds[1].stealForRemote(remoteStealCap); len(got) != 0 {
			t.Fatalf("a task holding a claim was granted: %d tasks", len(got))
		}
		g.elsewhere.Store(true)
		g.c.scheds[1].grant(2)
		g.c.scheds[2].loc.SetPeer(2, runtime.Member, 0)
		if err := waitResolved(t, "the granted task", fut); err != nil {
			t.Fatal(err)
		}
		g.elsewhere.Store(false)
		g.release()
		g.settled(t, nil, 1)
	})
	t.Run("stop", func(t *testing.T) {
		g := newCarryRig(t, 2)
		g.ship(t, 0, 1, 2)
		g.c.scheds[1].AbortQueue()
		g.release()
		g.settled(t, nil, 1)
	})
	t.Run("failed acquisition", func(t *testing.T) {
		g := newCarryRig(t, 2)
		const job = 43
		g.write(t, 1, 1)
		g.read(t, 0, 1)
		holdThieves(g.c.scheds[0])
		occupyWorkers(t, g.c.scheds[1], g.started)
		fut, err := g.c.scheds[0].SpawnJob("paint", &benchArgs{V: 2}, 1, job, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the task queued at its destination", func() bool { return g.c.scheds[1].QueueLen() == 1 })
		// A reader at the destination holds the band: the task's
		// acquisition waits for its lock until the cancel aborts it.
		tok := g.tok.Add(1)
		if err := g.mgr(1).Acquire(tok, []dim.Requirement{{Item: g.item, Region: g.band, Mode: dim.Read}}); err != nil {
			t.Fatal(err)
		}
		g.release()
		waitFor(t, "the task to wait for its lock", func() bool {
			return g.c.scheds[1].loc.Metrics().Gauge(dim.MetricLockWaiters).Value() > 0
		})
		for _, s := range g.c.scheds {
			s.CancelJob(job)
		}
		if err := waitResolved(t, "the task whose acquisition was aborted", fut); !IsJobCancelled(err) {
			t.Fatalf("aborted task: err = %v, want job-cancelled", err)
		}
		g.mgr(1).Release(tok)
		g.settled(t, nil, 1)
	})
}

// TestGivenUpShipSettlesCarriedPin: when the RPC layer gives a ship up,
// the origin settles the carried pin without a refresh — its copy goes,
// as when the destination dies (departed) — before confirmShip runs the
// task here. Rank 1 is unreachable, then given up in rank 0's view.
func TestGivenUpShipSettlesCarriedPin(t *testing.T) {
	ctl := chaos.NewController()
	calls := runtime.CallProfile{Control: runtime.CallSpec{Deadline: 2 * time.Second}}
	c, start := newChaosClusterOf(t, 1, &LocalPolicy{}, ctl, calls, []dataitem.Type{carryType}, chaos.Config{}, chaos.Config{})
	g := newCarryRigOver(t, c, start)
	g.write(t, 1, 1)
	g.read(t, 0, 1)
	// Placement finds the band at rank 1 in rank 0's locate cache.
	if _, err := g.mgr(0).OwnersHint(g.item, g.band); err != nil {
		t.Fatal(err)
	}
	s0 := g.c.scheds[0]
	holdThieves(s0)
	pinsAtRun := make(chan int, 1)
	s0.SetExecObserver(func(uint64) { pinsAtRun <- g.mgr(0).Pins() })
	ctl.Block(0, 1)
	const job = 5
	fut, err := s0.SpawnJob("paint", &benchArgs{V: 2}, 1, job, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.c.sumCounter(dim.MetricDropCarried); got != 1 {
		t.Fatalf("%s = %d, want 1", dim.MetricDropCarried, got)
	}
	if got := g.mgr(0).Pins(); got != 1 {
		t.Fatalf("the origin holds %d pins while the ship is in flight, want the carried one", got)
	}
	s0.loc.SetPeer(1, runtime.Dead, 0)
	select {
	case got := <-pinsAtRun:
		if got != 0 {
			t.Fatalf("the fallback ran with %d pins at the origin, want 0: the carried one settles first", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the task of the given-up ship did not run here")
	}
	// The band's only copy is on the rank given up: the fallback would
	// wait for it until its lock-wait bound. Cancel it.
	s0.CancelJob(job)
	if err := waitResolved(t, "the task of the given-up ship", fut); err == nil {
		t.Fatal("the fallback wrote a band whose only copy is on a rank given up")
	}
	if got := s0.stats.localPlaced.Value(); got != 1 {
		t.Fatalf("%d tasks run here after the ship failed, want 1", got)
	}
	if cov, _ := g.mgr(0).Coverage(g.item); !cov.Intersect(g.band).IsEmpty() {
		t.Fatalf("the origin kept %v of the carried copy, want it gone (no refresh)", cov.Intersect(g.band))
	}
}

// TestKilledDestinationSettlesCarriedPin: when the destination of a ship
// that carried an eviction dies, the origin's pin goes with what the
// origin owed it (dim.Manager.ReleasePinsOf, the departed rule), without
// a refresh.
func TestKilledDestinationSettlesCarriedPin(t *testing.T) {
	g := newCarryRig(t, 2)
	g.ship(t, 0, 1, 2)
	if got := g.mgr(0).Pins(); got != 1 {
		t.Fatalf("the origin holds %d pins after the ship, want the carried one", got)
	}
	g.c.scheds[0].loc.SetPeer(1, runtime.Dead, 0)
	g.mgr(0).ReleasePinsOf(1)
	if got := g.mgr(0).Pins(); got != 0 {
		t.Fatalf("the origin holds %d pins after its destination died, want 0", got)
	}
	if cov, _ := g.mgr(0).Coverage(g.item); !cov.Intersect(g.band).IsEmpty() {
		t.Fatalf("the origin kept %v of the carried copy, want it gone (no refresh)", cov.Intersect(g.band))
	}
}

// TestCarriedEvictionWireChecks: the destination refuses a frame whose
// carried region does not fit its item — the origin then settles the pin
// and runs the task itself — and ignores a carried eviction of an item it
// does not have.
func TestCarriedEvictionWireChecks(t *testing.T) {
	g := newCarryRig(t, 2)
	s0 := g.c.scheds[0]
	spec := TaskSpec{ID: 7, Kind: "paint", Args: mustEncode(t, &benchArgs{V: 5}), Origin: 0}
	misfit := runArgs{Spec: spec, Carried: []dim.Carried{{Item: g.item, Kept: dataitem.GridRegionFromTo(region.Point{0}, region.Point{1}), Token: 9}}}
	err := s0.loc.Call(1, methodRunBatch, &runBatch{Tasks: []runArgs{misfit}}, nil)
	if err == nil {
		t.Fatal("a carried 1-d region of a 2-d item was accepted")
	}
	if got := g.c.scheds[1].stats.executed.Value(); got != 0 {
		t.Fatalf("the refused frame ran %d tasks", got)
	}

	unknown := runArgs{Spec: spec, Carried: []dim.Carried{{Item: g.item + 99, Kept: g.band, Token: 9}}}
	unknown.Spec.Kind, unknown.Spec.Args = "sum", mustEncode(t, &sumRange{0, 3})
	registerSum(g.c)
	if err := s0.loc.Call(1, methodRunBatch, &runBatch{Tasks: []runArgs{unknown}}, nil); err != nil {
		t.Fatalf("a carried eviction of an unknown item was refused: %v", err)
	}
	waitFor(t, "the task to run", func() bool { return g.c.scheds[1].stats.executed.Value() == 1 })
	if got := g.mgr(1).Pins(); got != 0 {
		t.Fatalf("an unknown item's eviction left %d pins", got)
	}
}

func mustEncode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := wire.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInlineHandsOffYieldedRefresh: sched.runb is served in frame order,
// on the goroutine that delivered it (runtime.HandleInline), so the
// refresh a carried eviction yields at once — here to a destination that
// does not hold the region — leaves from a goroutine of its own, and a
// later call on the link completes.
func TestInlineHandsOffYieldedRefresh(t *testing.T) {
	g := newCarryRig(t, 2)
	registerSum(g.c)
	s0 := g.c.scheds[0]
	sum := func(id uint64) runArgs {
		return runArgs{Spec: TaskSpec{ID: id, Kind: "sum", Args: mustEncode(t, &sumRange{0, 3}), Origin: 0}}
	}
	carrying := sum(7)
	carrying.Carried = []dim.Carried{{Item: g.item, Kept: g.band, Token: 9}}
	shipped := s0.loc.CallAsync(1, methodRunBatch, &runBatch{Tasks: []runArgs{carrying}}, runtime.AckOnly())
	later := s0.loc.CallAsync(1, methodRunBatch, &runBatch{Tasks: []runArgs{sum(8)}})
	for _, c := range []struct {
		what string
		fut  *runtime.Future
	}{{"the carrying ship", shipped}, {"the call behind it", later}} {
		select {
		case <-c.fut.Ready():
			if _, err := c.fut.Wait(); err != nil {
				t.Fatalf("%s: %v", c.what, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s still waits after 1 s", c.what)
		}
	}
	waitFor(t, "the yielded refresh", func() bool {
		return g.c.sumCounter(dim.MetricRefreshSent) == 1 && s0.loc.PendingCalls() == 0 && g.c.scheds[1].loc.PendingCalls() == 0
	})
	waitFor(t, "both tasks to run", func() bool { return g.c.scheds[1].stats.executed.Value() == 2 })
	if got := g.c.scheds[1].loc.Metrics().CounterValue(runtime.MetricRPCInline); got != 1 {
		t.Fatalf("%s = %d at the destination, want 1: the ack-only ship", runtime.MetricRPCInline, got)
	}
	if got := g.mgr(1).Pins(); got != 0 {
		t.Fatalf("the yielded claim left %d pins", got)
	}
}
