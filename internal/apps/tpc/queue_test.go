package tpc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"allscale/internal/core"
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
