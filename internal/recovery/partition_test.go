package recovery

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/apps/stencil"
	"allscale/internal/chaos"
	"allscale/internal/core"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

// chaosSystem builds an n-locality system over the in-process fabric
// with every endpoint wrapped in a chaos layer (shared partition
// controller, per-rank deterministic fault streams). The fabric must
// be started by the caller after all services are registered.
func chaosSystem(t *testing.T, n int, cfg chaos.Config, sysCfg core.Config) (*core.System, *chaos.Controller, func()) {
	t.Helper()
	fab := transport.NewFabric(n)
	ctl := chaos.NewController()
	eps := make([]transport.Endpoint, n)
	for i := 0; i < n; i++ {
		eps[i] = chaos.Wrap(fab.Endpoint(i), ctl, cfg)
	}
	sysCfg.Endpoints = eps
	sys := core.NewSystem(sysCfg)
	t.Cleanup(func() {
		sys.Close()
		fab.Close()
	})
	return sys, ctl, func() { fab.Start() }
}

// TestDirectedPartitionFencesStaleRank is the partition-fencing
// scenario of DESIGN.md §6d: rank 3's outbound frames are severed (a
// directed partition — it still hears everyone, so only the survivors
// escalate). The survivors must declare it dead only after ping-retry
// exhaustion, rebuild a clean index, and — once the partition heals —
// reject the stale rank's frames at dispatch instead of letting it
// mutate survivor state. A second task wave on the survivors then
// proves exactly-once execution under the lossy fabric.
func TestDirectedPartitionFencesStaleRank(t *testing.T) {
	const n, victim, tasks = 4, 3, 24
	p := stencil.Params{N: 24, Steps: 4, C: 0.1, MinGrain: 32}

	// Mild ambient chaos everywhere: ~2% drops plus delay/reorder, which
	// the links resend. Both planes get a deadline (the data plane has
	// none by default — a fetch from a fenced rank would wait forever);
	// the failure detector must not produce false deaths.
	calls := runtime.CallProfile{
		Control: runtime.CallSpec{Deadline: 10 * time.Second},
		Data:    runtime.CallSpec{Deadline: 20 * time.Second},
	}
	sys, ctl, startFabric := chaosSystem(t, n,
		chaos.Config{Seed: 42, Drop: 0.02, Delay: 0.1, MaxDelay: time.Millisecond},
		core.Config{
			Policy:   &sched.RoundRobinPolicy{},
			Recovery: core.RecoveryConfig{Heartbeat: 20 * time.Millisecond, Timeout: 150 * time.Millisecond},
			Calls:    &calls,
		})
	app := stencil.NewAllScale(sys, p)
	var executed atomic.Int64
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name: "wave.count",
			Process: func(ctx *sched.Ctx) (any, error) {
				executed.Add(1)
				var x int
				ctx.Args(&x)
				return x, nil
			},
		}
	})
	sys.Start()
	startFabric()
	rec := Attach(sys, Options{PingRetries: 2})

	// Phase 1: a full stencil pass over the healthy-but-lossy fabric,
	// populating fragments and the distributed index on all four ranks.
	if err := app.CreateItems(); err != nil {
		t.Fatal(err)
	}
	if err := app.Init(); err != nil {
		t.Fatal(err)
	}
	if err := app.RunSteps(0, p.Steps); err != nil {
		t.Fatalf("stencil under ambient chaos: %v", err)
	}
	if dead := rec.DeadRanks(); len(dead) != 0 {
		t.Fatalf("ambient chaos alone produced deaths: %v", dead)
	}

	// Phase 2: directed partition — everything rank 3 sends vanishes.
	for r := 0; r < n; r++ {
		if r != victim {
			ctl.Block(victim, r)
		}
	}
	if !rec.WaitDeaths(1, 15*time.Second) {
		t.Fatalf("partitioned rank not declared dead; dead = %v", rec.DeadRanks())
	}
	if got := rec.DeadRanks(); len(got) != 1 || got[0] != victim {
		t.Fatalf("dead = %v, want [%d]", got, victim)
	}
	// Death needed ping-retry exhaustion, so the suspicion episode is
	// on the books; ping resends also guarantee retry traffic.
	if v := sys.Metrics(0).Counter(MetricSuspects).Value(); v == 0 {
		t.Fatal("death declared without a recorded suspicion episode")
	}
	// The coordinator's detectors are done with their job; stop them
	// before healing so the partitioned rank's own (equally partitioned)
	// view cannot race fresh confirmations during the assertions below.
	rec.Stop()
	verifyLiveIndex(t, sys, victim)

	// Phase 3: the partition heals. The fenced rank still believes it
	// is a member and talks under its stale epoch — every frame must be
	// rejected at dispatch on the survivors without touching state.
	for r := 0; r < n; r++ {
		if r != victim {
			ctl.Heal(victim, r)
		}
	}
	fencedBefore := sys.Metrics(0).Counter(runtime.MetricRPCFencedFrames).Value()
	err := sys.Locality(victim).Call(0, "recovery.ping", &struct{}{}, nil,
		runtime.WithDeadline(400*time.Millisecond),
		runtime.WithRetries(2, 100*time.Millisecond))
	if !errors.Is(err, runtime.ErrCallTimeout) {
		t.Fatalf("stale rank's call: err = %v, want ErrCallTimeout (silently fenced)", err)
	}
	if v := sys.Metrics(0).Counter(runtime.MetricRPCFencedFrames).Value(); v <= fencedBefore {
		t.Fatal("no fenced frame counted at the survivor after the heal")
	}
	verifyLiveIndex(t, sys, victim)

	// Phase 4: a task wave across the survivors over the still-lossy
	// fabric — every task must execute exactly once (retries are
	// deduplicated server-side), and none may land on the fenced rank.
	execBase := executed.Load()
	futs := make([]*runtime.Future, tasks)
	for i := range futs {
		f, err := sys.Spawn("wave.count", i)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		var out int
		if err := f.WaitInto(&out); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if out != i {
			t.Fatalf("task %d = %d", i, out)
		}
	}
	if got := executed.Load() - execBase; got != tasks {
		t.Fatalf("wave executed %d tasks, want exactly %d", got, tasks)
	}

	// The lossy link forced retries somewhere (the confirmation pings
	// alone resend), and no survivor call may be stranded: in-flight
	// supervised retries (e.g. fire-and-forget fulfil acks crossing the
	// lossy link) get their full budget to drain, then pending must be
	// exactly zero.
	quiesce := func(rank int) int {
		deadline := time.Now().Add(30 * time.Second)
		for {
			pend := sys.Locality(rank).PendingCalls()
			if pend == 0 || time.Now().After(deadline) {
				return pend
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var retries uint64
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		retries += sys.Metrics(r).Counter(runtime.MetricRPCRetries).Value()
		if pend := quiesce(r); pend != 0 {
			t.Fatalf("rank %d has %d stranded calls after quiescence", r, pend)
		}
	}
	if retries == 0 {
		t.Fatal("no retries recorded across survivors despite 2% drop + partition")
	}
	// The partition itself was observed by the chaos layer.
	if v := sys.Metrics(victim).Counter(chaos.MetricPartitionDrops).Value(); v == 0 {
		t.Fatal("no partition drops counted at the victim")
	}
}

// TestDrainedRankStragglerIsFenced covers the drain half of the
// membership fence (DESIGN.md §6g): after a graceful drain the retired
// rank's process may linger and emit straggler frames — a late
// coverage report, a stale heartbeat. Survivors must reject them at
// dispatch (counted as fenced frames), exactly like a crashed rank's
// frames after a healed partition, and the failure detector must not
// have fired on the way out.
func TestDrainedRankStragglerIsFenced(t *testing.T) {
	const n, victim = 3, 2
	sys, _, startFabric := chaosSystem(t, n, chaos.Config{}, core.Config{
		Recovery: core.RecoveryConfig{Heartbeat: 20 * time.Millisecond, Timeout: 500 * time.Millisecond},
	})
	sys.Start()
	startFabric()
	rec := Attach(sys, Options{})
	defer rec.Stop()

	if err := rec.Drain(victim); err != nil {
		t.Fatal(err)
	}
	if sys.Locality(0).Peer(victim) != runtime.Departed || sys.Locality(victim).Peer(victim) != runtime.Departed {
		t.Fatal("drained rank not departed on every view")
	}

	// The drained rank's old incarnation sends a straggler report: the
	// survivor must fence it silently — the call times out instead of
	// mutating survivor state or resurrecting the membership.
	fencedBefore := sys.Metrics(0).Counter(runtime.MetricRPCFencedFrames).Value()
	err := sys.Locality(victim).Call(0, "recovery.ping", &struct{}{}, nil,
		runtime.WithDeadline(400*time.Millisecond),
		runtime.WithRetries(2, 100*time.Millisecond))
	if !errors.Is(err, runtime.ErrCallTimeout) {
		t.Fatalf("straggler call: err = %v, want ErrCallTimeout (silently fenced)", err)
	}
	if v := sys.Metrics(0).Counter(runtime.MetricRPCFencedFrames).Value(); v <= fencedBefore {
		t.Fatal("no fenced frame counted at the survivor")
	}
	if dead := rec.DeadRanks(); len(dead) != 0 {
		t.Fatalf("graceful drain tripped the failure detector: %v", dead)
	}
	if got := sys.Locality(0).LiveRanks(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("LiveRanks after drain = %v, want [0 1]", got)
	}
}

// TestPreJoinFrameIsFenced covers the join half of the fence: a member
// that has already installed the joiner's fence epoch must reject any
// frame the joiner sent before its handshake (stamped with the old
// epoch), while the same call goes through once the joiner has adopted
// the epoch via the real join protocol.
func TestPreJoinFrameIsFenced(t *testing.T) {
	const n, joiner = 3, 2
	sys, _, startFabric := chaosSystem(t, n, chaos.Config{}, core.Config{
		Latent:   []int{joiner},
		Recovery: core.RecoveryConfig{Heartbeat: 20 * time.Millisecond, Timeout: 500 * time.Millisecond},
	})
	sys.Start()
	startFabric()
	rec := Attach(sys, Options{})
	defer rec.Stop()

	// Pre-join, pre-fence: a latent rank's control traffic flows (this
	// is how item catalogs stay in sync before admission).
	if err := sys.Locality(joiner).Call(1, "recovery.ping", &struct{}{}, nil,
		runtime.WithDeadline(time.Second)); err != nil {
		t.Fatalf("latent control call: %v", err)
	}

	// Rank 1 installs the joiner's fence — the admission step of the
	// join protocol — while the joiner still runs under its old epoch:
	// its frames are now stale and must be fenced.
	sys.Locality(1).SetPeer(joiner, runtime.Member, 100)
	fencedBefore := sys.Metrics(1).Counter(runtime.MetricRPCFencedFrames).Value()
	err := sys.Locality(joiner).Call(1, "recovery.ping", &struct{}{}, nil,
		runtime.WithDeadline(400*time.Millisecond),
		runtime.WithRetries(2, 100*time.Millisecond))
	if !errors.Is(err, runtime.ErrCallTimeout) {
		t.Fatalf("pre-join frame: err = %v, want ErrCallTimeout (fenced below the join epoch)", err)
	}
	if v := sys.Metrics(1).Counter(runtime.MetricRPCFencedFrames).Value(); v <= fencedBefore {
		t.Fatal("no fenced frame counted at the member")
	}

	// The real handshake fences the joiner into the current epoch; its
	// calls pass everywhere from then on.
	if err := rec.Join(joiner); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if !sys.Locality(r).Peer(joiner).Live() {
			t.Fatalf("rank %d does not see the joiner as a member", r)
		}
	}
	if err := sys.Locality(joiner).Call(1, "recovery.ping", &struct{}{}, nil,
		runtime.WithDeadline(time.Second)); err != nil {
		t.Fatalf("post-join call: %v", err)
	}
	if dead := rec.DeadRanks(); len(dead) != 0 {
		t.Fatalf("join produced deaths: %v", dead)
	}
}
