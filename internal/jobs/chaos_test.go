package jobs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"allscale/internal/chaos"
	"allscale/internal/core"
	"allscale/internal/recovery"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

// TestServiceUnderChaosCrash is the satellite's adversarial scenario:
// a 4-locality TCP fabric behind a seeded chaos layer (drops, delay
// jitter, duplicates), a mid-run rank crash, quota-rejected
// submissions, and jobs cancelled while running. Afterwards every
// surviving job must be Done with the oracle result (recovery
// respawned the lost pure-compute subtrees), the cancelled jobs must
// stay cancelled (recovery must NOT resurrect cancelled work), and no
// job may end Failed.
func TestServiceUnderChaosCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos crash scenario skipped in -short")
	}
	const n = 4
	const victim = 3

	ctl := chaos.NewController()
	ccfg := chaos.Config{
		Seed:     42,
		Drop:     0.01,
		Dup:      0.005,
		Delay:    0.15,
		MaxDelay: 2 * time.Millisecond,
	}
	cfg := transport.TCPConfig{
		WriteTimeout: 2 * time.Second,
		DialTimeout:  time.Second,
	}
	eps, err := transport.NewTCPLoopback(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range eps {
		eps[i] = chaos.Wrap(ep, ctl, ccfg)
	}
	calls := runtime.CallProfile{
		Control: runtime.CallSpec{Deadline: 15 * time.Second},
		Data:    runtime.CallSpec{Deadline: 30 * time.Second},
	}
	sys := core.NewSystem(core.Config{
		Endpoints:     eps,
		Workers:       2,
		Calls:         &calls,
		TraceCapacity: 1 << 14,
		Recovery:      core.RecoveryConfig{Heartbeat: 50 * time.Millisecond, Timeout: 600 * time.Millisecond},
	})
	w := RegisterWorkloads(sys, WorkloadConfig{})
	sys.Start()
	defer sys.Close()
	rec := recovery.Attach(sys, recovery.Options{})
	defer rec.Stop()

	svc := New(sys, w, Config{MaxActive: 8, MaxBacklog: 128})
	defer svc.Close()
	if err := svc.RegisterTenant("good", Quota{MaxActive: 6, MaxPending: 64}); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterTenant("greedy", Quota{MaxActive: 1, MaxPending: 2}); err != nil {
		t.Fatal(err)
	}

	// Pure-compute DAG jobs — the only family whose subtrees recovery
	// may soundly respawn after a crash.
	type expect struct {
		id   uint64
		want string
	}
	var goodJobs []expect
	for i := 0; i < 12; i++ {
		seed := uint64(1000 + i)
		id := mustSubmit(t, svc, "good", FamilyPFor, PForParams{Levels: 6, Spin: 20000, Seed: seed})
		goodJobs = append(goodJobs, expect{id: id, want: fmt.Sprintf("%#x", DagValue(6, 20000, seed))})
	}

	// Quota pressure: greedy floods past its pending quota and must be
	// rejected with the right reason even while the fabric is lossy.
	rejected := 0
	for i := 0; i < 10; i++ {
		_, err := svc.Submit("greedy", JobSpec{Family: FamilyPFor, Params: PForParams{Levels: 4, Seed: uint64(i)}})
		if err != nil {
			if !errors.Is(err, ErrTenantPending) {
				t.Fatalf("greedy rejection has wrong reason: %v", err)
			}
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("greedy tenant was never quota-rejected")
	}

	// Let the victim execute some of the work, then crash it.
	deadline := time.Now().Add(15 * time.Second)
	for sys.Metrics(victim).CounterValue(sched.MetricExecuted) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim rank never executed a task")
		}
		time.Sleep(time.Millisecond)
	}
	sys.Kill(victim)

	// Cancel some running jobs mid-crash-recovery. Cancellation races
	// completion by design; what is forbidden is ending Failed or
	// coming back from the dead.
	cancelled := map[uint64]bool{}
	for _, j := range goodJobs[:4] {
		st, err := svc.Status(j.id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == Running.String() || st.State == Pending.String() {
			if err := svc.Cancel(j.id); err != nil {
				t.Fatal(err)
			}
			cancelled[j.id] = true
		}
	}

	if !rec.WaitDeaths(1, 15*time.Second) {
		t.Fatalf("victim not detected dead: %v", rec.DeadRanks())
	}

	for _, j := range goodJobs {
		st, err := svc.Wait(j.id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case Done.String():
			if st.Result != j.want {
				t.Errorf("job %d survived the crash with wrong result %s, want %s", j.id, st.Result, j.want)
			}
		case Cancelled.String():
			if !cancelled[j.id] {
				t.Errorf("job %d cancelled but never asked to be", j.id)
			}
		default:
			t.Errorf("job %d ended %s (%s) — zero failed jobs required", j.id, st.State, st.Error)
		}
	}

	// Recovery must not have resurrected cancelled work: once the
	// system quiesced, cancelled jobs stay cancelled and the cancel
	// gate accounted for any respawn attempts of their lost tasks.
	if err := svc.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain after crash: %v", err)
	}

	// Greedy's admitted jobs also finished (ran on the survivors).
	for _, js := range svc.List() {
		if js.Tenant == "greedy" && js.State != Done.String() && js.State != Cancelled.String() {
			t.Errorf("greedy job %d ended %s", js.ID, js.State)
		}
	}
	for id := range cancelled {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != Cancelled.String() {
			t.Errorf("job %d resurrected to %s after drain", id, st.State)
		}
	}
	var cancelledTasks, cancelledRespawns uint64
	for r := 0; r < n; r++ {
		cancelledTasks += sys.Metrics(r).CounterValue(sched.MetricCancelledTasks)
		cancelledRespawns += sys.Metrics(r).CounterValue(sched.MetricCancelledRespawns)
	}
	if got := rec.DeadRanks(); len(got) != 1 || got[0] != victim {
		t.Fatalf("dead ranks %v, want [%d]", got, victim)
	}
	t.Logf("cancelled=%d jobs, gate-killed tasks=%d, suppressed respawns=%d, dead=%v",
		len(cancelled), cancelledTasks, cancelledRespawns, rec.DeadRanks())
}

// TestStencilJobsFailHonestlyUnderCrash: a rank dies under four stencil
// jobs, whose grid items lose the fragments it held. The service may
// fail such a job; it may not call it done over a checksum that is not
// the oracle's. Tasks lost with the rank fail their job through the
// recovery rule (they need data; they are not respawned), and a job
// that lost no task but ran across the death is failed by its driver —
// it cannot tell its field from one a later step first-touched. The
// service itself carries on: a pfor job submitted afterwards completes
// on the survivors.
func TestStencilJobsFailHonestlyUnderCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("crash rounds skipped in -short")
	}
	const rounds, n, jobs = 20, 4, 4
	sp := StencilParams{N: 32, Steps: 200}
	want := checksum(StencilOracle(sp.N, sp.Steps, 0.1))
	var done, wrong, failed int
	for round := 0; round < rounds; round++ {
		// One worker per locality: see TestLostWriterIsFailedNotRespawned.
		// The kill is noticed through the link (the next heartbeat's send
		// fails); the timeout only has to keep a slow -race run from
		// suspecting, and then fencing, a rank that is alive.
		sys := core.NewSystem(core.Config{
			Localities: n,
			Workers:    1,
			Recovery:   core.RecoveryConfig{Heartbeat: 10 * time.Millisecond, Timeout: time.Second},
		})
		w := RegisterWorkloads(sys, WorkloadConfig{})
		sys.Start()
		rec := recovery.Attach(sys, recovery.Options{})
		svc := New(sys, w, Config{MaxActive: 8, MaxBacklog: 64})
		if err := svc.RegisterTenant("t", Quota{MaxActive: 8, MaxPending: 16}); err != nil {
			t.Fatal(err)
		}
		waitTerminal := func(id uint64) JobStatus {
			t.Helper()
			select {
			case <-svc.job(id).done:
			case <-time.After(60 * time.Second):
				t.Fatalf("round %d: job %d not terminal 60 s after the crash", round, id)
			}
			st, err := svc.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		ids := make([]uint64, jobs)
		for i := range ids {
			ids[i] = mustSubmit(t, svc, "t", FamilyStencil, sp)
		}
		// The victim is the first rank but 0 (where the drivers spawn) to
		// have executed 20 tasks: under a slow -race run thieves may take a
		// rank's first-touch tasks, and with them all it would ever hold.
		victim := -1
		for deadline := time.Now().Add(15 * time.Second); victim < 0; {
			for r := 1; r < n && victim < 0; r++ {
				if sys.Metrics(r).CounterValue(sched.MetricExecuted) >= 20 {
					victim = r
				}
			}
			if victim < 0 && time.Now().After(deadline) {
				t.Fatalf("round %d: no rank executed 20 tasks; dead: %v", round, rec.DeadRanks())
			}
			time.Sleep(50 * time.Microsecond)
		}
		sys.Kill(victim)
		for _, id := range ids {
			switch st := waitTerminal(id); st.State {
			case Done.String():
				done++
				if st.Result != want {
					wrong++
					t.Errorf("round %d: job %d done with %s, the oracle says %s", round, id, st.Result, want)
				}
			case Failed.String():
				failed++
			default:
				t.Errorf("round %d: job %d ended %s (%s)", round, id, st.State, st.Error)
			}
		}
		if !rec.WaitDeaths(1, 15*time.Second) {
			t.Fatalf("round %d: victim not detected dead", round)
		}
		after := mustSubmit(t, svc, "t", FamilyPFor, PForParams{Levels: 5, Spin: 100, Seed: uint64(round)})
		if st := waitTerminal(after); st.State != Done.String() || st.Result != fmt.Sprintf("%#x", DagValue(5, 100, uint64(round))) {
			t.Errorf("round %d: pfor job after the crash ended %s %s (%s)", round, st.State, st.Result, st.Error)
		}
		svc.Close()
		sys.Close()
	}
	t.Logf("%d stencil jobs in flight at a crash: %d failed, %d done, %d of those with a checksum that is not the oracle's",
		rounds*jobs, failed, done, wrong)
	if failed == 0 {
		t.Fatal("no job was hit by its crash: the scenario was not exercised")
	}
}
