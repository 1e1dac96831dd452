package jobs

import (
	"sort"
	"testing"
	"time"
)

// The fairness tests ask what the dispatcher does with a backlog, so
// the backlog has to exist before the dispatcher makes its first
// choice. Their jobs finish faster than a Submit returns: submitted
// into an idle service they start in submit order, one by one, and the
// test measures nothing. submitBacklog therefore runs submit while
// jobs of a third tenant hold every MaxActive slot of the service, and
// cancels those afterwards. A holder is a stencil of the maximum step
// count, kept unsplit by unsplitStencil so that a cancel takes effect
// at the next step. It returns the time the backlog was complete;
// startOrder checks that no job started before it.
func submitBacklog(t *testing.T, svc *Service, submit func()) time.Time {
	t.Helper()
	holders := make([]uint64, svc.cfg.MaxActive)
	for i := range holders {
		holders[i] = mustSubmit(t, svc, "holder", FamilyStencil, StencilParams{N: 32, Steps: 1 << 16})
	}
	for _, id := range holders {
		waitRunning(t, svc, id)
	}
	submit()
	complete := time.Now()
	for _, id := range holders {
		if err := svc.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range holders {
		waitState(t, svc, id, Cancelled)
	}
	return complete
}

var unsplitStencil = WorkloadConfig{PForMinGrain: 1 << 20}

// startOrder waits for all jobs and returns their IDs in dispatch
// (Started) order, after checking the precondition of the fairness
// tests: the whole backlog was submitted before any of it started.
func startOrder(t *testing.T, svc *Service, ids []uint64, complete time.Time) []JobStatus {
	t.Helper()
	sts := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		sts = append(sts, waitState(t, svc, id, Done))
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i].Started.Before(sts[j].Started) })
	if first := sts[0]; first.Started.Before(complete) {
		t.Fatalf("precondition: job %d started %v before the backlog was complete — the test measured submit order, not dispatch order",
			first.ID, complete.Sub(first.Started))
	}
	return sts
}

// TestFairnessBoundedShareRatio is the fairness property of the
// satellite: tenant "flood" submits at a 10:1 rate against tenant
// "drip" under equal quotas. The WRR dispatcher must keep the share
// ratio bounded — by the time drip's last job starts, flood must not
// have started more than a small constant factor of drip's count,
// regardless of the 10× submission pressure.
func TestFairnessBoundedShareRatio(t *testing.T) {
	const floodJobs, dripJobs = 100, 10
	_, svc := newTestService(t, 1, Config{MaxActive: 1, MaxBacklog: 256}, unsplitStencil)
	for _, name := range []string{"flood", "drip"} {
		if err := svc.RegisterTenant(name, Quota{Weight: 1, MaxActive: 4, MaxPending: 200}); err != nil {
			t.Fatal(err)
		}
	}

	// Interleave submissions 10:1, everything backlogged up front —
	// the worst case for the slow tenant.
	var flood, drip []uint64
	complete := submitBacklog(t, svc, func() {
		for i := 0; i < dripJobs; i++ {
			for k := 0; k < floodJobs/dripJobs; k++ {
				flood = append(flood, mustSubmit(t, svc, "flood", FamilyPFor,
					PForParams{Levels: 2, Spin: 2000, Seed: uint64(i*100 + k)}))
			}
			drip = append(drip, mustSubmit(t, svc, "drip", FamilyPFor,
				PForParams{Levels: 2, Spin: 2000, Seed: uint64(7000 + i)}))
		}
	})

	all := startOrder(t, svc, append(append([]uint64{}, flood...), drip...), complete)
	isDrip := make(map[uint64]bool, dripJobs)
	for _, id := range drip {
		isDrip[id] = true
	}
	floodBefore, dripSeen := 0, 0
	for _, st := range all {
		if isDrip[st.ID] {
			dripSeen++
			if dripSeen == dripJobs {
				break
			}
		} else {
			floodBefore++
		}
	}
	// Equal weights: while both tenants are backlogged the dispatcher
	// alternates, so ~10 flood jobs start before drip's 10th. Allow
	// 3× slack for dispatch races around the boundary.
	if bound := 3 * dripJobs; floodBefore > bound {
		t.Fatalf("fair share violated: %d flood jobs started before drip finished starting %d (bound %d)",
			floodBefore, dripJobs, bound)
	}
	t.Logf("flood jobs started before drip's last start: %d (ideal ~%d)", floodBefore, dripJobs)
}

// TestFairnessWeightedShare checks that weights skew the dispatch
// share proportionally: weight 3 vs 1 under saturation gives the
// heavy tenant ~3/4 of the early slots.
func TestFairnessWeightedShare(t *testing.T) {
	const jobsEach = 40
	_, svc := newTestService(t, 1, Config{MaxActive: 1, MaxBacklog: 256}, unsplitStencil)
	if err := svc.RegisterTenant("heavy", Quota{Weight: 3, MaxActive: 4, MaxPending: 100}); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterTenant("light", Quota{Weight: 1, MaxActive: 4, MaxPending: 100}); err != nil {
		t.Fatal(err)
	}

	var heavy, light []uint64
	complete := submitBacklog(t, svc, func() {
		for i := 0; i < jobsEach; i++ {
			heavy = append(heavy, mustSubmit(t, svc, "heavy", FamilyPFor,
				PForParams{Levels: 2, Spin: 2000, Seed: uint64(i)}))
			light = append(light, mustSubmit(t, svc, "light", FamilyPFor,
				PForParams{Levels: 2, Spin: 2000, Seed: uint64(500 + i)}))
		}
	})
	all := startOrder(t, svc, append(append([]uint64{}, heavy...), light...), complete)

	isHeavy := make(map[uint64]bool)
	for _, id := range heavy {
		isHeavy[id] = true
	}
	// Both tenants stay backlogged through the first 40 dispatches:
	// WRR at 3:1 should hand heavy 30 of them, give or take startup
	// alignment.
	heavyCount := 0
	for _, st := range all[:40] {
		if isHeavy[st.ID] {
			heavyCount++
		}
	}
	if heavyCount < 24 || heavyCount > 36 {
		t.Fatalf("weighted share off: heavy got %d of the first 40 slots, want ~30", heavyCount)
	}
	t.Logf("heavy tenant got %d of the first 40 dispatch slots (ideal 30)", heavyCount)

	// Sanity: the admission-to-first-exec histograms reflect the skew
	// direction (no strict bound — just that both recorded data).
	for _, ts := range svc.Tenants() {
		if ts.AdmitToExecP99 <= 0 {
			t.Errorf("tenant %s has empty admit-to-exec histogram", ts.Name)
		}
		if ts.TasksExecuted == 0 {
			t.Errorf("tenant %s executed no tasks", ts.Name)
		}
	}
}

// TestExecutedTaskShareFollowsDispatchShare is the end-to-end statement
// of "dispatch fairness is the fairness": the scheduler has no tenant
// order of its own, and yet the tasks it executes for two saturated
// tenants of weight 3:1 — counted per tenant by the schedulers and
// summed over both ranks — split like the jobs the dispatcher starts.
// Every job is the same 7-task tree (3 splits, 4 leaves over two
// localities), two jobs run at a time, and their tasks share the two
// single-worker deques, shipped and stolen like any other task. When
// heavy's 30th job is done the rotation has also started about 10 of
// light's 40, so light's executed-task count stands near a quarter of
// the total; the tolerance is TestFairnessWeightedShare's. The leaves
// are long enough that the odd job held up for a few milliseconds
// (parked worker, steal backoff) costs the other slot a job or two, not
// twenty.
func TestExecutedTaskShareFollowsDispatchShare(t *testing.T) {
	const heavyJobs, lightJobs, tasksPerJob = 30, 40, 7
	_, svc := newTestServiceWorkers(t, 2, 1, Config{MaxActive: 2, MaxBacklog: 256}, unsplitStencil)
	if err := svc.RegisterTenant("heavy", Quota{Weight: 3, MaxActive: 4, MaxPending: 100}); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterTenant("light", Quota{Weight: 1, MaxActive: 4, MaxPending: 100}); err != nil {
		t.Fatal(err)
	}
	job := func(seed int) PForParams { return PForParams{Levels: 3, Spin: 200000, Seed: uint64(seed)} }
	var heavy, light []uint64
	complete := submitBacklog(t, svc, func() {
		for i := 0; i < lightJobs; i++ {
			if i < heavyJobs {
				heavy = append(heavy, mustSubmit(t, svc, "heavy", FamilyPFor, job(i)))
			}
			light = append(light, mustSubmit(t, svc, "light", FamilyPFor, job(500+i)))
		}
	})

	startOrder(t, svc, heavy, complete)
	executed := make(map[string]uint64)
	for _, ts := range svc.Tenants() {
		executed[ts.Name] = ts.TasksExecuted
	}
	if got := executed["heavy"]; got != heavyJobs*tasksPerJob {
		t.Fatalf("heavy executed %d tasks for %d finished jobs, want exactly %d", got, heavyJobs, heavyJobs*tasksPerJob)
	}
	// Heavy's share of the executed tasks, in the job slots of
	// TestFairnessWeightedShare: 30 of 40 is ideal.
	total := executed["heavy"] + executed["light"]
	if 40*executed["heavy"] < 24*total || 40*executed["heavy"] > 36*total {
		t.Fatalf("executed-task share off: heavy %d, light %d — heavy has %.1f of every 40, want ~30",
			executed["heavy"], executed["light"], 40*float64(executed["heavy"])/float64(total))
	}
	t.Logf("tasks executed when heavy's backlog was done: heavy %d, light %d (ideal %d and %d)",
		executed["heavy"], executed["light"], heavyJobs*tasksPerJob, heavyJobs/3*tasksPerJob)

	startOrder(t, svc, light, complete)
	for _, ts := range svc.Tenants() {
		if ts.Name == "light" && ts.TasksExecuted != lightJobs*tasksPerJob {
			t.Fatalf("light executed %d tasks for %d finished jobs, want exactly %d", ts.TasksExecuted, lightJobs, lightJobs*tasksPerJob)
		}
	}
}
