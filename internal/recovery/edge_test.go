package recovery

import (
	"sync"
	"testing"
	"time"

	"allscale/internal/core"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/sched"
)

// edgePolicy splits like DefaultPolicy and places every child on rank
// to; a root stays where it was spawned.
type edgePolicy struct {
	sched.DefaultPolicy
	to int
}

func (p *edgePolicy) PickTarget(spec *sched.TaskSpec, size int) int {
	if spec.PathLen == 0 {
		return spec.Origin
	}
	return p.to
}

// TestKillAtEveryPForEdge: a requirement-free pfor tree on four ranks
// loses the rank one of its children reached, once for each edge a task
// takes to another rank — placed there (ship), taken by it as a thief
// (grant), sent on to it by a draining rank (forward). The kill waits
// for the child to start there. The root's future resolves only once
// every future below it has: it must resolve within the recovery bound,
// with the tree done or ErrPeerFailed, and Close must return.
func TestKillAtEveryPForEdge(t *testing.T) {
	for _, edge := range []string{"ship", "grant", "forward"} {
		t.Run(edge, func(t *testing.T) { killAtEdge(t, edge) })
	}
}

func killAtEdge(t *testing.T, edge string) {
	const n, victim, points, job = 4, 2, 64, 1
	pol := &edgePolicy{to: victim}
	switch edge {
	case "grant":
		pol.to = 0 // every child stays at rank 0 until a thief takes it
	case "forward":
		pol.to = 1 // rank 1 drains, and sends every child on to rank 2
	}
	sys := core.NewSystem(core.Config{Localities: n, Workers: 1, Policy: pol})
	// A task that starts on the victim is held there until it is killed;
	// until then, rank 0's leaves wait too, so a thief finds work queued.
	arrived, hold := make(chan struct{}), make(chan struct{})
	var arriveOnce, releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold) }) }
	var mu sync.Mutex
	covered := make(map[int]int)
	core.RegisterPFor(sys, core.PForSpec{
		Name:     "edge.pfor",
		MinGrain: 8,
		Body: func(ctx *sched.Ctx, p region.Point, _ []byte) {
			if ctx.Rank() == 0 {
				select {
				case <-arrived:
				case <-time.After(5 * time.Second):
				}
			}
			mu.Lock()
			covered[p[0]]++
			mu.Unlock()
		},
	})
	sys.Start()
	closed := make(chan error, 1)
	defer func() {
		release()
		go func() { closed <- sys.Close() }()
		select {
		case <-closed:
		case <-time.After(20 * time.Second):
			t.Fatal("System.Close did not return")
		}
	}()
	rec := Attach(sys, Options{})
	sys.Scheduler(victim).SetExecObserver(func(uint64) {
		arriveOnce.Do(func() { close(arrived) })
		<-hold
	})
	// The root starts at rank 0 while no other rank steals — a rank
	// draining in its own view does not — and splits once the edge is
	// set up: for a grant only the victim asks rank 0 for work, for a
	// forward rank 1 drains.
	rootStarted, split := make(chan struct{}), make(chan struct{})
	var rootOnce sync.Once
	sys.Scheduler(0).SetExecObserver(func(uint64) {
		rootOnce.Do(func() {
			close(rootStarted)
			<-split
		})
	})
	for r := 1; r < n; r++ {
		sys.Locality(r).SetPeer(r, runtime.Draining, 0)
	}
	root, err := sys.SpawnPForJob("edge.pfor", region.Point{0}, region.Point{points}, nil, 1, job, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-rootStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("the root did not start at rank 0")
	}
	for r := 1; r < n; r++ {
		if !(edge == "grant" && r != victim || edge == "forward" && r == 1) {
			sys.Locality(r).SetPeer(r, runtime.Member, 0)
		}
	}
	close(split)
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("no child reached the victim")
	}
	// The child took the edge under test.
	steals, forwards := sys.Metrics(victim).CounterValue(sched.MetricSteals), sys.Metrics(1).CounterValue(sched.MetricRemotePlaced)
	if (edge == "grant") != (steals > 0) || (edge == "forward") != (forwards > 0) {
		t.Fatalf("%s: the victim has stolen %d tasks, rank 1 sent on %d", edge, steals, forwards)
	}
	sys.Kill(victim)
	rec.ReportDeath(victim)
	release()

	select {
	case <-root.Ready():
	case <-time.After(10 * time.Second):
		t.Fatalf("the root future is unresolved 10 s after the kill; report %+v", rec.Report())
	}
	if _, err := root.Wait(); err != nil && !isPeerFailed(err) {
		t.Fatalf("root: %v, want nil or ErrPeerFailed", err)
	} else if err == nil {
		mu.Lock()
		defer mu.Unlock()
		for p := 0; p < points; p++ {
			if covered[p] == 0 {
				t.Fatalf("the tree completed without point %d", p)
			}
		}
	}
	t.Logf("%s: respawned %d, requeued %d", edge,
		sys.Metrics(0).CounterValue(MetricRespawned), sys.Metrics(0).CounterValue(MetricRequeued))
}
