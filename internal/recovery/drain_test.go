package recovery

import (
	"errors"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"allscale/internal/apps/stencil"
	"allscale/internal/chaos"
	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/metrics"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/wire"
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

// fetchBody is a dim.fetch request on the wire (the DIM's itemRegion),
// sent by a caller outside the DIM.
type fetchBody struct {
	item dim.ItemID
	r    dataitem.Region
}

// AppendWire implements wire.Marshaler.
func (b *fetchBody) AppendWire(buf []byte) ([]byte, error) {
	return dataitem.AppendRegionWire(wire.AppendUvarint(buf, uint64(b.item)), b.r)
}

// awaitGauge waits until g reads want, for up to five seconds.
func awaitGauge(t *testing.T, what string, g *metrics.Gauge, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); g.Value() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d, want %d", what, g.Value(), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestDrainDepartsBeforeReleasingPins: a dim.fetch handler parked for a
// draining rank — its caller gave up waiting, so the drain finds the
// rank quiescent — ends when the drain releases the rank's pins, the
// first wake it gets, because the rank has departed by then. Released
// before the mark, the handler woke, found the rank still a member and
// parked again until some unrelated wake. No pin for the rank is left.
func TestDrainDepartsBeforeReleasingPins(t *testing.T) {
	const n, holder, victim = 3, 0, 2
	sys, _, startFabric := chaosSystem(t, n, chaos.Config{}, core.Config{
		Recovery: core.RecoveryConfig{Heartbeat: 20 * time.Millisecond, Timeout: 2 * time.Second},
	})
	typ := dataitem.NewGridType[int]("drain.pinned", region.Point{8})
	sys.RegisterType(typ)
	sys.Start()
	startFabric()
	rec := Attach(sys, Options{})
	defer rec.Stop()

	mgr := sys.Manager(holder)
	id, err := mgr.CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	r := dataitem.GridRegionFromTo(region.Point{0}, region.Point{8})
	const tok = 1
	if err := mgr.Acquire(tok, []dim.Requirement{{Item: id, Region: r, Mode: dim.Write}}); err != nil {
		t.Fatal(err)
	}
	defer mgr.Release(tok)
	err = sys.Locality(victim).Call(holder, "dim.fetch", &fetchBody{item: id, r: r}, nil,
		runtime.WithSpec(runtime.CallSpec{Deadline: 50 * time.Millisecond}))
	if !errors.Is(err, runtime.ErrCallTimeout) {
		t.Fatalf("fetch behind the holder's write lock: err = %v, want ErrCallTimeout", err)
	}
	parked := sys.Metrics(holder).Gauge(dim.MetricLockWaiters)
	awaitGauge(t, "lock waits parked at the holder", parked, 1)
	waits := sys.Metrics(holder).Histogram(dim.MetricLockWait)
	before := waits.Snapshot().Count

	if err := rec.Drain(victim); err != nil {
		t.Fatal(err)
	}
	awaitGauge(t, "lock waits parked at the holder after the drain", parked, 0)
	if n := waits.Snapshot().Count - before; n != 1 {
		t.Errorf("the handler for the drained rank parked %d times, want once: it ends at the release", n)
	}
	if n := mgr.Pins(); n != 0 {
		t.Errorf("%d pins left at the holder", n)
	}
}

// TestDrainAndJoinRefuseADeadRank: a crashed rank never learns that it
// died, so its own view still calls it a member. Drain and Join read a
// survivor's view and return their documented errors; nothing is
// recorded as drained. Read from the rank's own view, Drain returned nil
// and recorded a drain.
func TestDrainAndJoinRefuseADeadRank(t *testing.T) {
	sys := core.NewSystem(core.Config{Localities: 3, Recovery: core.RecoveryConfig{Heartbeat: time.Hour}})
	sys.Start()
	defer sys.Close()
	rec := Attach(sys, Options{})
	sys.Kill(2)
	rec.ReportDeath(2)
	drains := sys.Metrics(0).CounterValue(MetricDrains)
	if err := rec.Drain(2); err == nil || !strings.Contains(err.Error(), "is dead, nothing to drain") {
		t.Errorf("Drain of the dead rank: err = %v, want \"is dead, nothing to drain\"", err)
	}
	if err := rec.Join(2); err == nil || !strings.Contains(err.Error(), "left the membership for good") {
		t.Errorf("Join of the dead rank: err = %v, want \"left the membership for good\"", err)
	}
	if got := rec.Report().Drained; len(got) != 0 {
		t.Errorf("Report().Drained = %v, want none", got)
	}
	if got := sys.Metrics(0).CounterValue(MetricDrains); got != drains {
		t.Errorf("%s = %d, want %d", MetricDrains, got, drains)
	}
}

// TestFalseAlarmKeepsDrainPause: a drain held in quiesce by a running
// task must keep its placement pause through a confirmation that ends
// in a false alarm. When a drain paused placement by suspicion, the false
// alarm lifted the pause and the survivors could place work on the
// leaving rank again.
func TestFalseAlarmKeepsDrainPause(t *testing.T) {
	sys := core.NewSystem(core.Config{
		Localities: 3, Workers: 1, Policy: &sched.LocalPolicy{},
		Recovery: core.RecoveryConfig{Heartbeat: time.Hour},
	})
	hold := make(chan struct{})
	held := make(chan int, 1)
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{Name: "pause.hold", Process: func(*sched.Ctx) (any, error) {
			held <- rank
			<-hold
			return nil, nil
		}}
	})
	sys.Start()
	defer sys.Close()
	rec := Attach(sys, Options{})
	fut, err := sys.Scheduler(2).Spawn("pause.hold", nil)
	if err != nil {
		t.Fatal(err)
	}
	// LocalPolicy keeps the task at rank 2 unless a thief takes it before
	// it starts; the rank it runs on is the one drained.
	victim := <-held
	observer := (victim + 1) % sys.Size()
	drained := make(chan error, 1)
	go func() { drained <- rec.Drain(victim) }()
	for r := 0; r < sys.Size(); r++ {
		for sys.Locality(r).Peer(victim) != runtime.Draining {
			goruntime.Gosched()
		}
	}
	alarms := sys.Metrics(0).Counter(MetricFalseAlarms)
	rec.confirm(observer, victim)
	for alarms.Value() == 0 {
		goruntime.Gosched()
	}
	for r := 0; r < sys.Size(); r++ {
		if st := sys.Locality(r).Peer(victim); st != runtime.Draining {
			t.Errorf("after the false alarm rank %d sees rank %d as %v, want draining (not placeable)", r, victim, st)
		}
	}
	close(hold)
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	for r := 0; r < sys.Size(); r++ {
		if st := sys.Locality(r).Peer(victim); st != runtime.Departed {
			t.Errorf("after the drain rank %d sees rank %d as %v, want departed", r, victim, st)
		}
	}
}
