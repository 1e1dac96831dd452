package elastic_test

import (
	"testing"
	"time"

	"allscale/internal/core"
	"allscale/internal/elastic"
	"allscale/internal/recovery"
	"allscale/internal/runtime"
)

func TestDecideJoinsLatentRankOnHighLoad(t *testing.T) {
	d := elastic.Decide(
		[]int64{10, 12, 0},
		[]bool{true, true, false},
		[]bool{false, false, true},
		elastic.Options{HighLoad: 5},
	)
	if d.Action != elastic.Join || d.Rank != 2 {
		t.Fatalf("Decide = %+v, want Join rank 2", d)
	}
}

func TestDecideNoJoinWithoutSpareCapacity(t *testing.T) {
	d := elastic.Decide(
		[]int64{10, 12},
		[]bool{true, true},
		[]bool{false, false},
		elastic.Options{HighLoad: 5},
	)
	if d.Action != elastic.None {
		t.Fatalf("Decide = %+v, want None (no latent rank)", d)
	}
}

func TestDecideJoinRespectsMaxMembers(t *testing.T) {
	d := elastic.Decide(
		[]int64{10, 12, 0},
		[]bool{true, true, false},
		[]bool{false, false, true},
		elastic.Options{HighLoad: 5, MaxMembers: 2},
	)
	if d.Action != elastic.None {
		t.Fatalf("Decide = %+v, want None (at MaxMembers)", d)
	}
}

func TestDecideDrainsIdleMember(t *testing.T) {
	d := elastic.Decide(
		[]int64{0, 0, 0},
		[]bool{true, true, true},
		[]bool{false, false, false},
		elastic.Options{MinMembers: 2},
	)
	if d.Action != elastic.Drain || d.Rank != 2 {
		t.Fatalf("Decide = %+v, want Drain rank 2 (least-loaded, highest-numbered)", d)
	}
}

func TestDecideDrainRespectsMinMembersAndRankZero(t *testing.T) {
	d := elastic.Decide(
		[]int64{0, 0},
		[]bool{true, true},
		[]bool{false, false},
		elastic.Options{MinMembers: 2},
	)
	if d.Action != elastic.None {
		t.Fatalf("Decide = %+v, want None (at MinMembers)", d)
	}
	d = elastic.Decide(
		[]int64{0},
		[]bool{true},
		[]bool{false},
		elastic.Options{MinMembers: 1},
	)
	if d.Action != elastic.None {
		t.Fatalf("Decide = %+v, want None (rank 0 is never drained)", d)
	}
}

func TestDecideKeepsModerateLoad(t *testing.T) {
	d := elastic.Decide(
		[]int64{3, 2, 4},
		[]bool{true, true, true},
		[]bool{false, false, false},
		elastic.Options{HighLoad: 8, LowLoad: 1, MinMembers: 1},
	)
	if d.Action != elastic.None {
		t.Fatalf("Decide = %+v, want None (load inside the band)", d)
	}
}

// TestControllerDrainsIdleSystem drives the full loop: an idle
// 3-locality system scales itself down to MinMembers through graceful
// drains — no failure detector involvement, no deaths.
func TestControllerDrainsIdleSystem(t *testing.T) {
	sys := core.NewSystem(core.Config{
		Localities: 3, Workers: 2,
		Recovery: core.RecoveryConfig{Heartbeat: 20 * time.Millisecond, Timeout: 200 * time.Millisecond},
	})
	defer sys.Close()
	coord := recovery.Attach(sys, recovery.Options{})
	defer coord.Stop()
	sys.Start()

	ctl := elastic.Start(sys, coord, elastic.Options{
		MinMembers: 1,
		Interval:   15 * time.Millisecond,
		Cooldown:   20 * time.Millisecond,
	})
	defer ctl.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if sys.Locality(1).Peer(1) == runtime.Departed && sys.Locality(2).Peer(2) == runtime.Departed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller did not drain down to MinMembers; report %+v", coord.Report())
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep := coord.Report()
	if len(rep.Dead) != 0 {
		t.Fatalf("drain tripped the failure detector: deaths %v", rep.Dead)
	}
	if len(rep.Drained) != 2 {
		t.Fatalf("Report.Drained = %v, want two drains", rep.Drained)
	}
	if !sys.Locality(0).Peer(0).Live() {
		t.Fatalf("rank 0 must survive as the last member")
	}
	if got := sys.Locality(0).LiveRanks(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("LiveRanks = %v, want [0]", got)
	}
	// The coordinating rank's registry counted them.
	reg := sys.Metrics(0)
	if got := reg.CounterValue(recovery.MetricDrains); got != 2 {
		t.Fatalf("%s = %d, want 2", recovery.MetricDrains, got)
	}
	if got := reg.CounterValue(recovery.MetricJoins); got != 0 {
		t.Fatalf("%s = %d, want 0", recovery.MetricJoins, got)
	}
}

// TestControllerDoesNotDrainADeadRank: a crashed rank never learns that
// it died, so its own view still calls it a member. The controller reads
// a survivor's view: with rank 2 dead and MinMembers 1 it drains live
// rank 1, and rank 2 is neither named nor recorded as drained. Read
// from each rank's own view, Tick returned {Drain 2}.
func TestControllerDoesNotDrainADeadRank(t *testing.T) {
	sys := core.NewSystem(core.Config{Localities: 3, Recovery: core.RecoveryConfig{Heartbeat: time.Hour}})
	defer sys.Close()
	coord := recovery.Attach(sys, recovery.Options{})
	defer coord.Stop()
	sys.Start()
	sys.Kill(2)
	coord.ReportDeath(2)

	ctl := elastic.Start(sys, coord, elastic.Options{MinMembers: 1, Interval: time.Hour})
	defer ctl.Stop()
	if d := ctl.Tick(); d != (elastic.Decision{Action: elastic.Drain, Rank: 1}) {
		t.Fatalf("Tick = %+v, want {Drain 1}", d)
	}
	rep := coord.Report()
	if len(rep.Drained) != 1 || rep.Drained[0] != 1 {
		t.Fatalf("Report().Drained = %v, want [1]", rep.Drained)
	}
	if got := sys.Metrics(0).CounterValue(recovery.MetricDrains); got != 1 {
		t.Fatalf("%s = %d, want 1", recovery.MetricDrains, got)
	}
}
