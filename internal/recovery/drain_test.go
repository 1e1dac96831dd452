package recovery

import (
	"testing"
	"time"

	"allscale/internal/apps/stencil"
	"allscale/internal/chaos"
	"allscale/internal/core"
	"allscale/internal/dim"
)

// TestDrainEvacuatesKeptReplicas: a rank that ran stencil steps holds,
// besides its own band, read replicas of its neighbours' halo rows —
// which a neighbour's write no longer removes but refreshes in place
// (DESIGN.md §6f). A drain must still end with the rank holding
// nothing: the index the survivors rebuild has no slot for it, and the
// run must go on to the bit-identical result.
func TestDrainEvacuatesKeptReplicas(t *testing.T) {
	const n, victim = 3, 1
	p := stencil.Params{N: 48, Steps: 12, C: 0.1, MinGrain: 256}
	sys, _, startFabric := chaosSystem(t, n, chaos.Config{}, core.Config{
		Recovery: core.RecoveryConfig{Heartbeat: 20 * time.Millisecond, Timeout: 2 * time.Second},
	})
	app := stencil.NewAllScale(sys, p)
	sys.Start()
	startFabric()
	rec := Attach(sys, Options{})
	defer rec.Stop()

	if err := app.CreateItems(); err != nil {
		t.Fatal(err)
	}
	if err := app.Init(); err != nil {
		t.Fatal(err)
	}
	if err := app.RunSteps(0, p.Steps/2); err != nil {
		t.Fatal(err)
	}
	var kept uint64
	for r := 0; r < n; r++ {
		kept += sys.Metrics(r).CounterValue(dim.MetricDropKept)
	}
	if kept == 0 {
		t.Fatal("no halo replica was ever kept: the scenario is not the one under test")
	}
	mgr := sys.Manager(victim)
	held := false
	for _, id := range mgr.Items() {
		if size, _ := mgr.CoverageSize(id); size > 0 {
			held = true
		}
	}
	if !held {
		t.Fatal("the rank to drain holds nothing")
	}

	if err := rec.Drain(victim); err != nil {
		t.Fatal(err)
	}
	for _, id := range mgr.Items() {
		if cov, err := mgr.Coverage(id); err != nil || !cov.IsEmpty() {
			t.Errorf("drained rank still holds %v of %v (err %v)", cov, id, err)
		}
	}
	managers := make([]*dim.Manager, n)
	for r := 0; r < n; r++ {
		if r != victim {
			managers[r] = sys.Manager(r)
		}
	}
	for _, id := range sys.Manager(0).Items() {
		if err := dim.VerifyIndex(managers, id); err != nil {
			t.Error(err)
		}
	}

	if err := app.RunSteps(p.Steps/2, p.Steps); err != nil {
		t.Fatal(err)
	}
	got, err := app.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := stencil.RunSequential(p)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %v, want %v (result not bit-identical across the drain)", i, got[i], want[i])
		}
	}
	// No pin of either mode outlives the run.
	deadline := time.Now().Add(5 * time.Second)
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		for sys.Locality(r).PendingCalls() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		for _, id := range sys.Manager(r).Items() {
			if rd, wr, _ := sys.Manager(r).LockedRegions(id); len(rd)+len(wr) != 0 {
				t.Errorf("rank %d: locks left on %v: read %v write %v", r, id, rd, wr)
			}
		}
		if pins := sys.Manager(r).Pins(); pins != 0 {
			t.Errorf("rank %d: %d pins outlive the run", r, pins)
		}
	}
}
