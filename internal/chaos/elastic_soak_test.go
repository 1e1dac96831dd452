package chaos_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"allscale/internal/apps/stencil"
	"allscale/internal/chaos"
	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/recovery"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

// TestChaosSoakElasticStencilTCP is the elastic-membership soak: a
// stencil over real TCP with a seeded chaos layer, whose membership
// changes mid-run — one rank is gracefully drained and a latent rank
// joined between two step batches. The run must still produce a result
// bit-identical to the sequential oracle, the index tree must verify
// clean over the reshaped membership, no task may be lost or executed
// twice (as many executions as spawns over all ranks), the joined rank
// must actually receive placements, and the failure detector must stay
// silent — the
// acceptance gates of DESIGN.md §6g. On failure a Chrome trace goes to
// $CHAOS_TRACE_OUT for the CI artifact upload.
func TestChaosSoakElasticStencilTCP(t *testing.T) {
	for _, seed := range soakSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { elasticSoakOnce(t, seed) })
	}
}

func elasticSoakOnce(t *testing.T, seed int64) {
	const capacity = 5 // fabric provisioned one rank beyond the initial membership
	const drained, joined = 1, 4
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
	eps := make([]transport.Endpoint, capacity)
	for i, ep := range tcpEndpoints(t, capacity) {
		eps[i] = chaos.Wrap(ep, ctl, ccfg)
	}
	calls := runtime.CallProfile{
		Control: runtime.CallSpec{Deadline: 15 * time.Second},
		Data:    runtime.CallSpec{Deadline: 30 * time.Second},
	}
	sys := core.NewSystem(core.Config{
		Endpoints:     eps,
		Calls:         &calls,
		TraceCapacity: 1 << 14,
		Recovery:      core.RecoveryConfig{Heartbeat: 50 * time.Millisecond, Timeout: 600 * time.Millisecond},
		Latent:        []int{joined},
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
	scratch := dataitem.NewGridType[float64]("soak.scratch", region.Point{8, 8})
	sys.RegisterType(scratch)
	sys.Start()
	coord := recovery.Attach(sys, recovery.Options{})

	if err := app.CreateItems(); err != nil {
		t.Fatal(err)
	}
	if err := app.Init(); err != nil {
		t.Fatal(err)
	}
	if err := app.RunSteps(0, p.Steps/2); err != nil {
		t.Fatalf("stencil first half under chaos (seed %d): %v", seed, err)
	}

	// Mid-run membership change under live chaos: retire a member
	// gracefully, then admit the latent spare. Meanwhile a job creates,
	// writes, reads and destroys items (DESIGN.md §6f "A lazy catalog").
	stop, jobDone := make(chan struct{}), make(chan error, 1)
	jobs := 0
	go func() { jobDone <- itemJobs(sys, scratch, stop, &jobs) }()
	err := coord.Drain(drained)
	close(stop)
	if err != nil {
		t.Fatalf("seed %d: drain rank %d: %v", seed, drained, err)
	}
	if err := <-jobDone; err != nil {
		t.Fatalf("seed %d: a job creating items during the drain: %v", seed, err)
	}
	t.Logf("seed %d: %d item jobs ran during the drain", seed, jobs)
	if sys.Locality(drained).Peer(drained) != runtime.Departed {
		t.Fatalf("seed %d: drained rank did not depart", seed)
	}
	if err := coord.Join(joined); err != nil {
		t.Fatalf("seed %d: join rank %d: %v", seed, joined, err)
	}
	if !sys.Locality(joined).Peer(joined).Live() {
		t.Fatalf("seed %d: joined rank is not a member", seed)
	}

	if err := app.RunSteps(p.Steps/2, p.Steps); err != nil {
		t.Fatalf("stencil second half under chaos (seed %d): %v", seed, err)
	}
	got, err := app.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: cell %d = %v, want %v (result not bit-identical across drain+join)",
				seed, i, got[i], want[i])
		}
	}

	// The index tree over the reshaped membership verifies clean; the
	// departed rank is a hole (nil manager), the joiner participates.
	for _, id := range sys.Manager(0).Items() {
		mgrs := make([]*dim.Manager, capacity)
		for r := 0; r < capacity; r++ {
			if r != drained {
				mgrs[r] = sys.Manager(r)
			}
		}
		if err := dim.VerifyIndex(mgrs, id); err != nil {
			t.Fatalf("seed %d: index after drain+join, item %v: %v", seed, id, err)
		}
	}

	// What views cost (DESIGN.md §6a "Fragment storage"): an allocation
	// lives as long as any view of it, so after a drain, a join and the
	// halo churn between them a fragment may retain more elements than it
	// covers. Reported so that the number exists; nothing compacts.
	var retained, covered int64
	for _, id := range sys.Manager(0).Items() {
		for r := 0; r < capacity; r++ {
			if r == drained {
				continue
			}
			frag, err := sys.Manager(r).Fragment(id)
			if err != nil {
				t.Fatal(err)
			}
			gf := frag.(*dataitem.GridFragment[float64])
			if gf.Retained() < gf.Region().Size() {
				t.Fatalf("seed %d: rank %d retains %d elements of item %v but covers %d", seed, r, gf.Retained(), id, gf.Region().Size())
			}
			retained += gf.Retained()
			covered += gf.Region().Size()
		}
	}
	t.Logf("seed %d: fragments retain %d elements for %d covered (ratio %.2f)", seed, retained, covered, float64(retained)/float64(covered))

	// Zero task loss or duplication: the drain forwarded its backlog as
	// ships, each resent until answered and run once, so over all ranks
	// — the departed one included — every spawned task executed once.
	var spawned, executed uint64
	for r := 0; r < capacity; r++ {
		spawned += sys.Metrics(r).CounterValue(sched.MetricSpawned)
		executed += sys.Metrics(r).CounterValue(sched.MetricExecuted)
	}
	if executed != spawned {
		t.Fatalf("seed %d: %d tasks spawned, %d executed", seed, spawned, executed)
	}
	// The joined rank genuinely takes part: it executed placements.
	if n := sys.Metrics(joined).CounterValue(sched.MetricExecuted); n == 0 {
		t.Fatalf("seed %d: joined rank executed no tasks", seed)
	}
	// Membership metrics surfaced on the coordinating rank's registry.
	reg := sys.Metrics(0)
	if j := reg.CounterValue(recovery.MetricJoins); j != 1 {
		t.Fatalf("seed %d: joins counter = %d, want 1", seed, j)
	}
	if d := reg.CounterValue(recovery.MetricDrains); d != 1 {
		t.Fatalf("seed %d: drains counter = %d, want 1", seed, d)
	}
	if wb := reg.CounterValue(recovery.MetricWarmupBytes); wb == 0 {
		t.Fatalf("seed %d: joiner warm-up moved no bytes", seed)
	}

	// Quiescence and silence: no call stranded anywhere, no false
	// deaths — the drain never tripped the failure detector.
	deadline := time.Now().Add(45 * time.Second)
	for r := 0; r < capacity; r++ {
		for sys.Locality(r).PendingCalls() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: rank %d has %d stranded calls after quiescence",
					seed, r, sys.Locality(r).PendingCalls())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if dead := coord.DeadRanks(); len(dead) != 0 {
		t.Fatalf("seed %d: membership change produced false deaths: %v", seed, dead)
	}
	rep := coord.Report()
	if len(rep.Drained) != 1 || rep.Drained[0] != drained ||
		len(rep.Joined) != 1 || rep.Joined[0] != joined {
		t.Fatalf("seed %d: report = drained %v joined %v", seed, rep.Drained, rep.Joined)
	}
}

// itemJobs runs jobs until stop is closed, and at least one, counting
// them in *done: each creates an item at rank 2, writes it there, reads
// it back at rank 3 and destroys it.
func itemJobs(sys *core.System, typ *dataitem.GridType[float64], stop <-chan struct{}, done *int) error {
	full := dataitem.Region(typ.FullRegion())
	for job := uint64(1); ; job++ {
		id, err := sys.Manager(2).CreateItem(typ)
		if err != nil {
			return err
		}
		tok := 0x50AC<<32 | job
		if err := sys.Manager(2).Acquire(tok, []dim.Requirement{{Item: id, Region: full, Mode: dim.Write}}); err != nil {
			return fmt.Errorf("job %d: write: %w", job, err)
		}
		frag, _ := sys.Manager(2).Fragment(id)
		frag.(*dataitem.GridFragment[float64]).Set(region.Point{3, 3}, float64(job))
		sys.Manager(2).Release(tok)
		if err := sys.Manager(3).Acquire(tok, []dim.Requirement{{Item: id, Region: full, Mode: dim.Read}}); err != nil {
			return fmt.Errorf("job %d: read: %w", job, err)
		}
		frag, _ = sys.Manager(3).Fragment(id)
		got := frag.(*dataitem.GridFragment[float64]).At(region.Point{3, 3})
		sys.Manager(3).Release(tok)
		if got != float64(job) {
			return fmt.Errorf("job %d: read %v at rank 3, want %d", job, got, job)
		}
		if err := sys.Manager(2).DestroyItem(id); err != nil {
			return err
		}
		*done++
		select {
		case <-stop:
			return nil
		default:
		}
	}
}
