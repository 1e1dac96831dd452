package jobs

import (
	"sort"
	"testing"
)

// startOrder waits for all jobs and returns their IDs in dispatch
// (Started) order.
func startOrder(t *testing.T, svc *Service, ids []uint64) []JobStatus {
	t.Helper()
	sts := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		sts = append(sts, waitState(t, svc, id, Done))
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i].Started.Before(sts[j].Started) })
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
	_, svc := newTestService(t, 1, Config{MaxActive: 1, MaxBacklog: 256}, WorkloadConfig{})
	for _, name := range []string{"flood", "drip"} {
		if err := svc.RegisterTenant(name, Quota{Weight: 1, MaxActive: 4, MaxPending: 200}); err != nil {
			t.Fatal(err)
		}
	}

	// Interleave submissions 10:1, everything backlogged up front —
	// the worst case for the slow tenant.
	var flood, drip []uint64
	for i := 0; i < dripJobs; i++ {
		for k := 0; k < floodJobs/dripJobs; k++ {
			flood = append(flood, mustSubmit(t, svc, "flood", FamilyPFor,
				PForParams{Levels: 2, Spin: 2000, Seed: uint64(i*100 + k)}))
		}
		drip = append(drip, mustSubmit(t, svc, "drip", FamilyPFor,
			PForParams{Levels: 2, Spin: 2000, Seed: uint64(7000 + i)}))
	}

	all := startOrder(t, svc, append(append([]uint64{}, flood...), drip...))
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
	_, svc := newTestService(t, 1, Config{MaxActive: 1, MaxBacklog: 256}, WorkloadConfig{})
	if err := svc.RegisterTenant("heavy", Quota{Weight: 3, MaxActive: 4, MaxPending: 100}); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterTenant("light", Quota{Weight: 1, MaxActive: 4, MaxPending: 100}); err != nil {
		t.Fatal(err)
	}

	// Jobs must outlast a submit, or the dispatcher drains the backlog as
	// fast as it forms and starts jobs in submit order, 1:1 (at Spin 2000
	// this failed one run in twenty).
	var heavy, light []uint64
	for i := 0; i < jobsEach; i++ {
		heavy = append(heavy, mustSubmit(t, svc, "heavy", FamilyPFor,
			PForParams{Levels: 2, Spin: 60000, Seed: uint64(i)}))
		light = append(light, mustSubmit(t, svc, "light", FamilyPFor,
			PForParams{Levels: 2, Spin: 60000, Seed: uint64(500 + i)}))
	}
	all := startOrder(t, svc, append(append([]uint64{}, heavy...), light...))

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
