package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"allscale/internal/runtime"
)

// The helping join (steal.go helpUntil, DESIGN.md §6e):
// a process variant that joins its children must not idle the worker
// it occupies. Every test here hangs without it — the children sit in
// the run queue behind the only goroutines that could run them — so
// each runs under a deadline.

const joinDeadline = 30 * time.Second

// within fails the test when fn has not returned by the deadline.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(joinDeadline):
		t.Fatalf("%s still blocked after %v: a join starved the children it waits for", what, joinDeadline)
	}
}

// registerFan installs "fan": a process-only kind whose task of level
// V > 0 spawns `fan` children of level V-1 and joins them, returning
// the size of its subtree. Every inner node is a join on a worker and
// every joined child joins in turn.
func registerFan(c *cluster, fan int) {
	c.registerAll(func(int) *Kind {
		return &Kind{
			Name: "fan",
			Process: func(ctx *Ctx) (any, error) {
				var a benchArgs
				if err := ctx.Args(&a); err != nil {
					return nil, err
				}
				nodes := int64(1)
				if a.V == 0 {
					return nodes, nil
				}
				futs := make([]interface{ WaitInto(any) error }, 0, fan)
				for i := 0; i < fan; i++ {
					f, err := ctx.Spawn("fan", &benchArgs{V: a.V - 1}, uint64(i))
					if err != nil {
						return nil, err
					}
					futs = append(futs, f)
				}
				for _, f := range futs {
					var n int64
					if err := f.WaitInto(&n); err != nil {
						return nil, err
					}
					nodes += n
				}
				return nodes, nil
			},
		}
	})
}

// fanNodes is the node count of a complete fan-ary tree of the given
// height (a single leaf has height 0).
func fanNodes(fan int, height uint64) int64 {
	n, level := int64(0), int64(1)
	for h := uint64(0); h <= height; h++ {
		n += level
		level *= int64(fan)
	}
	return n
}

// TestHelpingJoinNested runs join trees four levels deep where the
// parent commit had no goroutine left to run a child: on the single
// worker of a single locality, with as many concurrent roots as
// workers, and with one worker on each of two localities whose joined
// children keep spawning back at each other.
func TestHelpingJoinNested(t *testing.T) {
	for _, tc := range []struct {
		localities, workers, roots int
		policy                     Policy
	}{
		{1, 1, 1, &DefaultPolicy{}},
		{1, 3, 3, &DefaultPolicy{}},
		{2, 1, 2, &RoundRobinPolicy{}},
	} {
		t.Run(fmt.Sprintf("%dloc-%dworkers-%droots", tc.localities, tc.workers, tc.roots), func(t *testing.T) {
			c := newCluster(t, tc.localities, tc.workers, tc.policy)
			registerFan(c, 3)
			c.start()
			const height = 4
			within(t, "nested joins", func() error {
				errs := make(chan error, tc.roots)
				for r := 0; r < tc.roots; r++ {
					go func(r int) {
						fut, err := c.scheds[r%tc.localities].Spawn("fan", &benchArgs{V: height})
						if err != nil {
							errs <- err
							return
						}
						var got int64
						if err := fut.WaitInto(&got); err != nil {
							errs <- err
							return
						}
						if want := fanNodes(3, height); got != want {
							err = fmt.Errorf("root %d counted %d nodes, want %d", r, got, want)
						}
						errs <- err
					}(r)
				}
				for r := 0; r < tc.roots; r++ {
					if err := <-errs; err != nil {
						return err
					}
				}
				return nil
			})
			var executed uint64
			for _, s := range c.scheds {
				executed += counter(s, MetricExecuted)
				if q := s.queued.Load(); q != 0 {
					t.Errorf("rank %d: queued counter %d after the trees unwound, want 0", s.Rank(), q)
				}
				if idle := s.queue.idle.Load(); idle < 0 || idle > int64(tc.workers) {
					t.Errorf("rank %d: idle counter %d outside [0,%d]", s.Rank(), idle, tc.workers)
				}
			}
			if want := uint64(tc.roots) * uint64(fanNodes(3, height)); executed != want {
				t.Errorf("executed %d tasks, want %d (every task exactly once)", executed, want)
			}
		})
	}
}

// TestHelpingJoinKeepsTenantAccounting: the children a helping worker
// runs on top of the joining task's stack go through the same execute
// path as the worker loop's, so the per-tenant executed counter sees
// every one of them.
func TestHelpingJoinKeepsTenantAccounting(t *testing.T) {
	c := newCluster(t, 1, 1, &DefaultPolicy{})
	registerFan(c, 2)
	c.start()
	s := c.scheds[0]
	const tenant, height = 4, 3
	within(t, "tenant join tree", func() error {
		fut, err := s.SpawnJob("fan", &benchArgs{V: height}, tenant, 11, 0)
		if err != nil {
			return err
		}
		var got int64
		return fut.WaitInto(&got)
	})
	want := uint64(fanNodes(2, height))
	reg := s.loc.Metrics()
	if got := reg.CounterValue(TenantExecutedMetric(tenant)); got != want {
		t.Errorf("tenant executed %d, want %d", got, want)
	}
}

// TestCancelWhileParkedInHelpingJoin cancels a job whose root sits in
// a helping join with nothing to run: its only child was shipped to
// the other locality and is held there. The cancel fails the child's
// promise from the inflight registry, which must wake the parked root,
// unwind the job with ErrJobCancelled and return the worker to its
// loop.
func TestCancelWhileParkedInHelpingJoin(t *testing.T) {
	c := newCluster(t, 2, 1, &DefaultPolicy{})
	rootRunning := make(chan struct{})
	proceed := make(chan struct{})
	childRunning := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock) // registered after the queue's: runs first, so StopQueue finds no held worker
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
			Process: func(ctx *Ctx) (any, error) {
				close(childRunning)
				<-release
				return nil, nil
			},
		}
	})
	registerFan(c, 2)
	c.start()

	// While the root is queued, rank 1's thief must not carry it off.
	holdThieves(c.scheds[1])
	const job = 77
	fut, err := c.scheds[0].SpawnJob("root", &benchArgs{}, 1, job, 0)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "cancel of a parked join", func() error {
		<-rootRunning
		c.scheds[1].loc.SetPeer(1, runtime.Member, 0)
		close(proceed)
		<-childRunning
		// The root's worker has nothing to run: wait until it parked.
		for c.scheds[0].queue.idle.Load() != 1 {
			time.Sleep(50 * time.Microsecond)
		}
		for _, s := range c.scheds {
			s.CancelJob(job)
		}
		if _, err := fut.Wait(); !IsJobCancelled(err) {
			return fmt.Errorf("job ended with %v, want a job-cancelled error", err)
		}
		// The worker is back in its loop and serves new work (a leaf:
		// rank 1's only worker still holds the child).
		next, err := c.scheds[0].Spawn("fan", &benchArgs{V: 0})
		if err != nil {
			return err
		}
		var n int64
		return next.WaitInto(&n)
	})
	unblock()
}
