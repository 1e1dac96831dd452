package chaos_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"allscale/internal/apps/stencil"
	"allscale/internal/chaos"
	"allscale/internal/core"
	"allscale/internal/recovery"
	"allscale/internal/runtime"
	"allscale/internal/transport"
)

// soakSeeds returns the seeds to soak. CI sets CHAOS_SEED to shard the
// matrix one seed per job; locally a small fixed set runs.
func soakSeeds(t *testing.T) []int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		return []int64{v}
	}
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2}
}

// tcpEndpoints builds n loopback TCP endpoints (the genuinely
// distributed fabric) for the soak to wrap in chaos.
func tcpEndpoints(t *testing.T, n int) []transport.Endpoint {
	t.Helper()
	cfg := transport.TCPConfig{
		WriteTimeout: 2 * time.Second,
		DialTimeout:  time.Second,
		RetryBudget:  2 * time.Second,
		MaxBackoff:   100 * time.Millisecond,
	}
	eps, err := transport.NewTCPLoopback(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// TestChaosSoakStencilTCP is the headline delivery-semantics soak
// (EXPERIMENTS.md E11): a 4-locality stencil over real TCP with every
// endpoint behind a seeded chaos layer injecting >=1% drops, delay
// jitter (reordering) and duplicates. The run must produce a result
// bit-identical to the sequential oracle, strand no RPC, and declare
// no rank dead. On failure, a Chrome trace of the run is written to
// $CHAOS_TRACE_OUT (the CI job uploads it as an artifact).
func TestChaosSoakStencilTCP(t *testing.T) {
	for _, seed := range soakSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { soakOnce(t, seed) })
	}
}

func soakOnce(t *testing.T, seed int64) {
	const n = 4
	p := stencil.Params{N: 24, Steps: 6, C: 0.1, MinGrain: 32}
	want := stencil.RunSequential(p)

	ctl := chaos.NewController()
	ccfg := chaos.Config{
		Seed:     seed,
		Drop:     0.015,
		Dup:      0.01,
		Delay:    0.2,
		MaxDelay: 2 * time.Millisecond,
	}
	eps := make([]transport.Endpoint, n)
	for i, ep := range tcpEndpoints(t, n) {
		eps[i] = chaos.Wrap(ep, ctl, ccfg)
	}
	// Both planes bounded and retried: the data plane is unsupervised
	// by default, and a dropped fetch would otherwise hang the run.
	calls := runtime.CallProfile{
		Control: runtime.CallSpec{Deadline: 15 * time.Second},
		Data:    runtime.CallSpec{Deadline: 30 * time.Second},
	}
	sys := core.NewSystem(core.Config{
		Endpoints:     eps,
		Calls:         &calls,
		TraceCapacity: 1 << 14,
		Recovery:      core.RecoveryConfig{Heartbeat: 50 * time.Millisecond, Timeout: 600 * time.Millisecond},
	})
	defer sys.Close()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		out := os.Getenv("CHAOS_TRACE_OUT")
		if out == "" {
			return
		}
		f, err := os.Create(out)
		if err != nil {
			t.Logf("trace artifact: %v", err)
			return
		}
		defer f.Close()
		if err := sys.WriteChromeTrace(f); err != nil {
			t.Logf("trace artifact: %v", err)
			return
		}
		t.Logf("chaos trace written to %s", out)
	})
	app := stencil.NewAllScale(sys, p)
	sys.Start()
	rec := recovery.Attach(sys, recovery.Options{})

	if err := app.CreateItems(); err != nil {
		t.Fatal(err)
	}
	if err := app.Init(); err != nil {
		t.Fatal(err)
	}
	if err := app.RunSteps(0, p.Steps); err != nil {
		t.Fatalf("stencil under chaos (seed %d): %v", seed, err)
	}
	got, err := app.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: cell %d = %v, want %v (result not bit-identical)", seed, i, got[i], want[i])
		}
	}

	// The fault mix actually fired: at these rates a full stencil run
	// cannot pass the chaos layer untouched.
	var drops, dups, delays uint64
	for r := 0; r < n; r++ {
		drops += sys.Metrics(r).Counter(chaos.MetricDrops).Value()
		dups += sys.Metrics(r).Counter(chaos.MetricDups).Value()
		delays += sys.Metrics(r).Counter(chaos.MetricDelays).Value()
	}
	if drops == 0 || delays == 0 {
		t.Fatalf("seed %d: chaos ineffective (drops=%d dups=%d delays=%d)", seed, drops, dups, delays)
	}
	t.Logf("seed %d: drops=%d dups=%d delays=%d", seed, drops, dups, delays)

	// The lossy link forced retries, and every one of them converged:
	// after the drain budget, no call is stranded anywhere.
	var retries, duplicates uint64
	for r := 0; r < n; r++ {
		retries += sys.Metrics(r).Counter(runtime.MetricRPCRetries).Value()
		duplicates += sys.Metrics(r).Counter(runtime.MetricRPCDuplicates).Value()
	}
	if drops > 0 && retries == 0 {
		t.Fatalf("seed %d: %d frames dropped but zero retries recorded", seed, drops)
	}
	deadline := time.Now().Add(45 * time.Second)
	for r := 0; r < n; r++ {
		for sys.Locality(r).PendingCalls() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: rank %d has %d stranded calls after quiescence",
					seed, r, sys.Locality(r).PendingCalls())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if dead := rec.DeadRanks(); len(dead) != 0 {
		t.Fatalf("seed %d: chaos produced false deaths: %v", seed, dead)
	}
	t.Logf("seed %d: retries=%d duplicates=%d", seed, retries, duplicates)
}
