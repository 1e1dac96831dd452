package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/chaos"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/runtime"
	"allscale/internal/transport"
)

// pinPolicy places every task at a fixed target without splitting, to
// force maximal ship traffic toward one rank.
type pinPolicy struct{ target int }

func (p *pinPolicy) PickVariant(*TaskSpec, bool, int) Variant { return VariantProcess }
func (p *pinPolicy) PickTarget(*TaskSpec, int) int            { return p.target }

// TestShipExactlyOnceUnderChaos is the seeded regression test for the
// PR 6 ship-fallback bug: under delay-heavy chaos with call deadlines
// shorter than the worst-case delivery delay, ship confirmations time
// out while the shipped frame is still in flight. The old code then
// executed the task locally AND the late frame executed it remotely —
// twice. The fix re-ships on timeout (idempotent via the receiver's
// per-attempt ship dedup) and falls back locally only on peer death,
// so every task must execute exactly once.
func TestShipExactlyOnceUnderChaos(t *testing.T) {
	const n = 2
	const tasks = 300
	ctl := chaos.NewController()
	fab := transport.NewFabric(n)
	eps := make([]transport.Endpoint, n)
	for i := 0; i < n; i++ {
		eps[i] = chaos.Wrap(fab.Endpoint(i), ctl, chaos.Config{
			Seed:     7 + int64(i),
			Drop:     0.05,
			Dup:      0.02,
			Delay:    0.5,
			MaxDelay: 120 * time.Millisecond,
		})
	}
	sys := runtime.NewSystemOver(eps)
	scheds := make([]*Scheduler, n)
	defer func() {
		for _, s := range scheds {
			s.StopQueue()
		}
		sys.Close()
		fab.Close()
	}()
	// Control deadline (80ms) below the chaos MaxDelay (120ms): some
	// confirmations MUST time out with their frame still deliverable —
	// the exact window in which the old local fallback double-executed.
	calls := runtime.CallProfile{
		Control: runtime.CallSpec{Deadline: 80 * time.Millisecond, Attempt: 30 * time.Millisecond, Retries: 2},
	}
	var counts [tasks]atomic.Int64
	for i := 0; i < n; i++ {
		sys.Locality(i).SetCallProfile(calls)
		s := New(sys.Locality(i), dim.New(sys.Locality(i), dataitem.NewRegistry()), &pinPolicy{target: 1}, 2)
		s.Register(&Kind{
			Name: "count",
			Process: func(ctx *Ctx) (any, error) {
				var a benchArgs
				if err := ctx.Args(&a); err != nil {
					return nil, err
				}
				counts[a.V].Add(1)
				return nil, nil
			},
		})
		scheds[i] = s
	}
	// Rank 0 must not steal the tasks back (a draining rank does not):
	// a grant whose call has timed out at the thief is not sent again —
	// re-sending is what the ship protocol under test adds.
	scheds[0].SetDraining(true)
	fab.Start()

	for i := 0; i < tasks; i++ {
		if _, err := scheds[0].Spawn("count", &benchArgs{V: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Result futures share the lossy control plane and may be stranded,
	// so completion is judged by effect: every task executes at least
	// once, then late retries get a settle window before the
	// exactly-once assertion.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := 0
		for i := range counts {
			if counts[i].Load() > 0 {
				done++
			}
		}
		if done == tasks {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d tasks executed before deadline", done, tasks)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(400 * time.Millisecond)
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("task %d executed %d times, want exactly once", i, got)
		}
	}
	reships := sys.Locality(0).Metrics().CounterValue(MetricReships)
	dups := sys.Locality(1).Metrics().CounterValue(MetricShipDups)
	t.Logf("exactly-once held: reships=%d dedup-suppressed=%d", reships, dups)
}
