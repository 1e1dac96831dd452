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

// newChaosCluster is newCluster over an in-process fabric with a chaos
// layer in front of every endpoint, one Config per locality; the
// returned function starts delivery.
func newChaosCluster(t *testing.T, workers int, policy Policy, ctl *chaos.Controller, calls runtime.CallProfile, cfgs ...chaos.Config) (*cluster, func()) {
	return newChaosClusterOf(t, workers, policy, ctl, calls, nil, cfgs...)
}

// newChaosClusterOf is newChaosCluster with the given data item types
// registered at every rank.
func newChaosClusterOf(t *testing.T, workers int, policy Policy, ctl *chaos.Controller, calls runtime.CallProfile, types []dataitem.Type, cfgs ...chaos.Config) (*cluster, func()) {
	t.Helper()
	fab := transport.NewFabric(len(cfgs))
	eps := make([]transport.Endpoint, len(cfgs))
	for i, cfg := range cfgs {
		eps[i] = chaos.Wrap(fab.Endpoint(i), ctl, cfg)
	}
	c := &cluster{sys: runtime.NewSystemOver(eps)}
	for i := range eps {
		loc := c.sys.Locality(i)
		loc.SetCallProfile(calls)
		reg := dataitem.NewRegistry()
		for _, typ := range types {
			reg.MustRegister(typ)
		}
		c.scheds = append(c.scheds, New(loc, dim.New(loc, reg), policy, workers))
	}
	t.Cleanup(func() {
		for _, s := range c.scheds {
			s.StopQueue()
		}
		c.sys.Close()
		fab.Close()
	})
	return c, fab.Start
}

// TestShipExactlyOnceUnderChaos is the seeded regression test for the
// PR 6 ship-fallback bug: under delay-heavy chaos with a control
// deadline shorter than the worst-case delivery delay, a ship that gave
// up at that deadline did so while its frame was still in flight. The
// old code then executed the task locally AND the late frame executed
// it remotely — twice. A ship has no deadline: its one call is resent
// until it is answered (the RPC dedup window runs the handler once) and
// falls back locally only when the peer is given up, so every task must
// execute exactly once — wherever it ends up: rank 0's idle workers
// steal some of the tasks back, and those grants are ships too.
func TestShipExactlyOnceUnderChaos(t *testing.T) {
	const n = 2
	const tasks = 300
	cfgs := make([]chaos.Config, n)
	for i := range cfgs {
		cfgs[i] = chaos.Config{
			Seed:     7 + int64(i),
			Drop:     0.05,
			Dup:      0.02,
			Delay:    0.5,
			MaxDelay: 120 * time.Millisecond,
		}
	}
	// Control deadline (80ms) below the chaos MaxDelay (120ms): a ship
	// bounded by it would time out with its frame still deliverable —
	// the exact window in which the old local fallback double-executed.
	// Ships take only the attempt interval from this profile.
	calls := runtime.CallProfile{
		Control: runtime.CallSpec{Deadline: 80 * time.Millisecond},
	}
	c, start := newChaosCluster(t, 2, &pinPolicy{target: 1}, chaos.NewController(), calls, cfgs...)
	sys, scheds := c.sys, c.scheds
	var counts [tasks]atomic.Int64
	c.registerAll(func(int) *Kind {
		return &Kind{
			Name: "count",
			Process: func(ctx *Ctx) (any, error) {
				var a benchArgs
				if err := ctx.Args(&a); err != nil {
					return nil, err
				}
				counts[a.V].Add(1)
				return nil, nil
			},
		}
	})
	start()

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
	var retries, duplicates, stolen uint64
	for i := 0; i < n; i++ {
		reg := sys.Locality(i).Metrics()
		retries += reg.CounterValue(runtime.MetricRPCRetries)
		duplicates += reg.CounterValue(runtime.MetricRPCDuplicates)
		stolen += reg.CounterValue(MetricSteals)
	}
	t.Logf("exactly-once held: rpc.retries=%d rpc.duplicates=%d, %d tasks stolen back",
		retries, duplicates, stolen)
}
