package tpc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"allscale/internal/core"
	"allscale/internal/dim"
	"allscale/internal/sched"
)

// TestQueueModeQueriesDoNotStarve runs load + queries with no worker to
// spare: tpc.query is a process variant that joins the per-block tasks
// it spawns, so with every worker of a locality inside a query the
// children can only run if the join itself runs them (DESIGN.md §6e).
// Without the helping join the first case hangs on its first query and
// the others whenever all workers join at once.
func TestQueueModeQueriesDoNotStarve(t *testing.T) {
	p := testParams()
	want := RunSequential(p)
	queries := GenerateQueries(p.NumQueries, p.Seed)
	for _, tc := range []struct{ localities, workers int }{
		{1, 1},
		{1, 4},
		{2, 1},
	} {
		t.Run(fmt.Sprintf("%dloc-%dworkers", tc.localities, tc.workers), func(t *testing.T) {
			sys := core.NewSystem(core.Config{Localities: tc.localities, Workers: tc.workers})
			app := NewAllScale(sys, p)
			sys.Start()
			defer sys.Close()

			done := make(chan error, 1)
			go func() {
				if err := app.Load(); err != nil {
					done <- err
					return
				}
				// As many queries in flight as the system has workers,
				// in waves, so that every worker is inside a join.
				got := make([]int64, len(queries))
				errs := make([]error, len(queries))
				inflight := tc.localities * tc.workers
				for lo := 0; lo < len(queries); lo += inflight {
					var wg sync.WaitGroup
					for i := lo; i < lo+inflight && i < len(queries); i++ {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							got[i], errs[i] = app.Query(i%tc.localities, queries[i])
						}(i)
					}
					wg.Wait()
				}
				for i := range queries {
					if errs[i] != nil {
						done <- errs[i]
						return
					}
					if got[i] != want[i] {
						done <- fmt.Errorf("query %d counted %d, sequential reference %d", i, got[i], want[i])
						return
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("queries still blocked after 30s: a joining query starved its own children")
			}
		})
	}
}

// TestLoadSplitWaitsForBothChildren: an error return from a split means
// its whole subtree has quiesced (core/pfor.go says why). The loader's
// split used to return on its left child's error with the right child
// still running. Here the left leaf fails — its block is locked, and its
// job is cancelled on rank 0 while it waits — while the right leaf waits
// on rank 1 for a lock the test holds. A marker task spawned behind the
// left leaf runs only once that leaf has failed: on the split's worker, from inside
// the join on the right child if there is one, after the split has
// returned if there is none. So when the marker is done the load must
// still be pending.
func TestLoadSplitWaitsForBothChildren(t *testing.T) {
	p := testParams()
	p.BlockHeight = 1 // two blocks: one split, a leaf per rank
	sys := core.NewSystem(core.Config{Localities: 2, Workers: 1})
	app := NewAllScale(sys, p)
	sys.RegisterKind(func(int) *sched.Kind {
		return &sched.Kind{Name: "marker", Process: func(*sched.Ctx) (any, error) { return nil, nil }}
	})
	sys.Start()
	defer sys.Close()
	var err error
	if app.item, err = sys.Manager(0).CreateItem(app.typ); err != nil {
		t.Fatal(err)
	}
	const token, job = 0x7E57, 7
	for rank := 0; rank < 2; rank++ {
		if err := sys.Manager(rank).Acquire(token, []dim.Requirement{
			{Item: app.item, Region: p.blockRegion(rank), Mode: dim.Write},
		}); err != nil {
			t.Fatal(err)
		}
	}
	released := false
	release := func() {
		if !released {
			released = true
			sys.Manager(1).Release(token)
		}
	}
	defer release() // before sys.Close: the right leaf must not outlive the test
	defer sys.Manager(0).Release(token)

	load, err := sys.Scheduler(0).SpawnJob("tpc.load", &loadArgs{0, 2}, 0, job, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Split and left leaf started on rank 0, right leaf on rank 1.
	deadline := time.Now().Add(10 * time.Second)
	for sys.Metrics(0).CounterValue(sched.MetricExecuted) < 2 || sys.Metrics(1).CounterValue(sched.MetricExecuted) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the loader's leaves did not start")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Rank 0 forgets where it sent the right leaf — HandleDeath is the
	// registry drain a recovery runs; rank 1 stays alive — or the cancel
	// would fail that leaf's promise on the spot (cancel.go), and the
	// split would be right to return.
	sys.Scheduler(0).HandleDeath(1)
	sys.Scheduler(0).CancelJob(job)
	if err := sys.Wait("marker", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if load.Done() {
		_, err := load.Wait()
		t.Fatalf("the split returned (%v) while its right child was still running", err)
	}
	release()
	if _, err := load.Wait(); !sched.IsJobCancelled(err) {
		t.Fatalf("load: err = %v, want the left leaf's cancellation", err)
	}
}
